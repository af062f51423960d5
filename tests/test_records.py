"""The value classes behave as immutable records: exact repr, equality within
one class, a hash that agrees with it, no assignment, and pickle and
deepcopy round trips that go back through the checked constructor."""

import copy
import pickle
import re

import pytest

from quandlehom.checks import CheckResult
from quandlehom.errors import (
    BadModulusError,
    LengthMismatchError,
    NotAUnitError,
    WordSyntaxError,
)
from quandlehom.intlinalg import AbelianInvariants, IntMatrix, SmithForm
from quandlehom.quandle import LinearAlexanderParams, Violation
from quandlehom.words import PackedElement, RewriteStep, Word, word_eval

P = LinearAlexanderParams(12, 5)
P_TEXT = "LinearAlexanderParams(n=12, t=5)"


def _records():
    """(record, an equal record built separately, a different one, its repr)."""
    word = Word(P, ((1, 2), (11, -1)))
    word_text = f"Word(params={P_TEXT}, letters=((1, 2), (11, -1)))"
    unit = IntMatrix([[1]])
    return [
        (
            Violation("idempotence", (3,)),
            Violation("idempotence", (3,)),
            Violation("idempotence", (4,)),
            "Violation(axiom='idempotence', witness=(3,))",
        ),
        # t is stored reduced, and num_orbits is neither compared nor printed
        (P, LinearAlexanderParams(12, 17), LinearAlexanderParams(12, 7), P_TEXT),
        (word, Word(P, [[1, 2], [11, -1]]), Word(P, ((1, 2),)), word_text),
        (
            PackedElement(P, (1, -2, 0, 4), 19),
            PackedElement(P, [1, -2, 0, 4], 7),
            PackedElement(P, (1, -2, 0, 4), 8),
            f"PackedElement(params={P_TEXT}, v=(1, -2, 0, 4), a=7)",
        ),
        (
            RewriteStep("braid", word, "e3 moves"),
            RewriteStep("braid", Word(P, ((1, 2), (11, -1))), "e3 moves"),
            RewriteStep("braid", word),
            f"RewriteStep(rule='braid', word={word_text}, note='e3 moves')",
        ),
        (
            SmithForm(IntMatrix([[2, 0], [0, 4]])),
            SmithForm(IntMatrix([[2, 0], [0, 4]]), None, None, None, None),
            SmithForm(IntMatrix([[2, 0], [0, 4]]), IntMatrix.identity(2)),
            "SmithForm(d=IntMatrix([[2, 0], [0, 4]]), u=None, v=None, v_inv=None, u_inv=None)",
        ),
        (
            SmithForm(unit, unit, unit, unit, unit),
            SmithForm(IntMatrix([[1]]), unit, unit, unit, IntMatrix([[1]])),
            SmithForm(unit, unit, unit, unit, IntMatrix([[-1]])),
            "SmithForm(d=IntMatrix([[1]]), u=IntMatrix([[1]]), v=IntMatrix([[1]]), "
            "v_inv=IntMatrix([[1]]), u_inv=IntMatrix([[1]]))",
        ),
        (
            AbelianInvariants(2, [2, 4]),
            AbelianInvariants(2, (2, 4)),
            AbelianInvariants(2),
            "AbelianInvariants(rank=2, torsion=(2, 4))",
        ),
        (
            CheckResult("word-laws", {"n": 12}, 1, ["boom"]),
            CheckResult("word-laws", {"n": 12}, 1, ["boom"]),
            CheckResult("word-laws", {"n": 12}),
            "CheckResult(name='word-laws', context={'n': 12}, checks=1, failures=['boom'])",
        ),
    ]


RECORDS = _records()
IDS = [f"{type(record).__name__}-{i}" for i, (record, *_) in enumerate(RECORDS)]


def _first_field(text):
    return re.match(r"\w+\((\w+)=", text).group(1)


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_repr_is_pinned(record, same, other, text):
    assert repr(record) == repr(same) == text


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_equality_within_one_class(record, same, other, text):
    assert record is not same
    assert record == same and not record != same
    assert record != other and not record == other
    # another class never compares equal, even with equal field values
    for foreign, *_ in RECORDS:
        if type(foreign) is not type(record):
            assert record != foreign and not record == foreign
    first = getattr(record, _first_field(text))
    assert record != first and record != (first,)


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_equal_records_hash_equal(record, same, other, text):
    if isinstance(record, (CheckResult, SmithForm)):
        # a CheckResult is mutable, and an IntMatrix unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same)
        assert len({record, same, other}) == 2


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_assignment_and_deletion(record, same, other, text):
    name = _first_field(text)
    if isinstance(record, CheckResult):
        fresh = CheckResult(same.name, same.context, same.checks, list(same.failures))
        fresh.checks += 1
        fresh.failures.append("again")
        assert fresh.checks == same.checks + 1 and fresh != same
        del fresh.context
        with pytest.raises(AttributeError):
            fresh.context
        return
    value = getattr(record, name)
    for attempt in (
        lambda: setattr(record, name, value),
        lambda: delattr(record, name),
        lambda: setattr(record, "extra", 1),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(record, name) is value and record == same


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(record, same, other, text):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == text


def test_derived_slot_survives_the_round_trip():
    for twin in (pickle.loads(pickle.dumps(P)), copy.deepcopy(P)):
        assert twin.num_orbits == P.num_orbits == 4


def test_adopted_values_equal_the_checked_ones():
    letters = ((1, 2), (11, -1), (0, 3))
    assert Word._adopt(P, letters) == Word(P, list(map(list, letters)))
    packed = word_eval(Word(P, letters))
    assert packed == PackedElement(P, list(packed.v), packed.a + 5 * P.n)
    assert PackedElement._adopt(P, packed.v, packed.a) == packed
    assert hash(PackedElement._adopt(P, packed.v, packed.a)) == hash(packed)


def test_constructors_still_refuse():
    with pytest.raises(BadModulusError, match="modulus must be >= 1, got 0"):
        LinearAlexanderParams(0, 1)
    with pytest.raises(NotAUnitError, match="t=2 is not a unit modulo 4"):
        LinearAlexanderParams(4, 6)
    with pytest.raises(WordSyntaxError, match="color 12 outside 0..11"):
        Word(P, ((12, 1),))
    with pytest.raises(WordSyntaxError, match="letter exponents must be nonzero"):
        Word(P, ((1, 0),))
    with pytest.raises(TypeError, match="letter entries must be int"):
        Word(P, ((1, True),))
    with pytest.raises(LengthMismatchError, match="vector has 3 entries, expected 4"):
        PackedElement(P, (0, 0, 0), 0)
    with pytest.raises(TypeError, match="weight entries must be int"):
        PackedElement(P, (0, 0, 0, 0), 1.0)
    with pytest.raises(ValueError, match="rank must be non-negative"):
        AbelianInvariants(-1)
    with pytest.raises(ValueError, match="torsion factor 1 is not >= 2"):
        AbelianInvariants(0, (1,))
    with pytest.raises(ValueError, match=r"torsion chain broken: \(4, 2\)"):
        AbelianInvariants(0, (4, 2))
