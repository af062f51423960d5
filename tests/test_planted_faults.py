"""Planted faults: each sweep must still catch a wrong value, with every
expectation still counted.

A fault is patched into the name a check family calls, so the family runs
its whole sweep against one wrong answer.  It must fail, and its check
count must equal that of a correct run: an expectation that a faster sweep
dropped would show up as a lower count or as a missed fault.
"""

import itertools
import random

import pytest

from quandlehom import checks
from quandlehom.quandle import LinearAlexanderParams, Violation, build_alexander
from quandlehom.words import PackedElement, Word, word_eval

P43 = LinearAlexanderParams(4, 3)
P4_1 = LinearAlexanderParams(4, 1)  # the trivial quandle on 4 points
LETTERS = ((1, 1), (2, -1), (3, 1))  # e1 e2^-1 e3


def weight_action_count(n):
    # every word of length L <= 4 over 2n letters: L + 1 cuts and n images
    return sum((2 * n) ** length * (length + 1 + n) for length in range(5))


def test_wrong_action_is_caught(monkeypatch):
    # act sees only the evaluated element, so the fault sits on the value of
    # e1 e2^-1 e3 and hits every word with that value
    real = checks.act
    target = word_eval(Word(P43, LETTERS))

    def planted(x, packed):
        y = real(x, packed)
        return y + 1 if packed == target and x == 2 else y

    monkeypatch.setattr(checks, "act", planted)
    result = checks.check_weight_action_exhaustive(P43)
    letters = [(c, e) for c in range(4) for e in (1, -1)]  # the sweep's order
    hit = [
        Word(P43, word)
        for length in range(5)
        for word in itertools.product(letters, repeat=length)
        if word_eval(Word(P43, word)) == target
    ]
    assert len(hit) == 12 and Word(P43, LETTERS) in hit[:8]
    assert result.failures == [f"action formula fails on 2, {w}" for w in hit[:8]]
    assert result.checks == weight_action_count(4)


def test_one_evaluation_per_word(monkeypatch):
    real = checks.word_eval
    calls = 0

    def counted(word):
        nonlocal calls
        calls += 1
        return real(word)

    monkeypatch.setattr(checks, "word_eval", counted)
    result = checks.check_weight_action_exhaustive(P43)
    assert result.passed and result.checks == weight_action_count(4)
    assert calls == sum(8**length for length in range(5)) == 4681


def test_wrong_weight_is_caught(monkeypatch):
    real = checks.word_eval

    def planted(word):
        packed = real(word)
        if word.letters != LETTERS:
            return packed
        return PackedElement(word.params, packed.v, packed.a + 1)

    monkeypatch.setattr(checks, "word_eval", planted)
    result = checks.check_weight_action_exhaustive(P43)
    # the inner cuts of the word itself, its action on every point (act
    # takes the same wrong element), then each 4-letter word it ends
    assert result.failures[:7] == [
        "weight law fails on e1 e2^-1 e3 cut at 1",
        "weight law fails on e1 e2^-1 e3 cut at 2",
        *(f"action formula fails on {x}, e1 e2^-1 e3" for x in range(4)),
        "weight law fails on e0 e1 e2^-1 e3 cut at 1",
    ]
    assert result.checks == weight_action_count(4)


def test_wrong_cocycle_value_is_caught(monkeypatch):
    real = checks.extension_cocycle
    clean = checks.check_cocycle_identities(P43)
    assert clean.passed

    def planted(params, alpha, beta):
        packed = real(params, alpha, beta)
        if (alpha, beta) != ((-1, 3), (2, 1)):
            return packed
        return PackedElement(params, (packed.v[0] + 1, packed.v[1] - 1), 0)

    monkeypatch.setattr(checks, "extension_cocycle", planted)
    result = checks.check_cocycle_identities(P43)
    assert result.failures == ["closed cocycle form fails at (-1,3),(2,1)"]
    assert result.checks == clean.checks


def test_quandle_structure_faults_are_caught(monkeypatch):
    # twist 3 = -1 mod 4, so the dihedral comparison runs too
    clean = checks.check_quandle_structure(P43)
    assert clean.passed and clean.checks == 5
    monkeypatch.setattr(checks, "find_violation", lambda table: Violation("idempotence", (0,)))
    # two blocks, as many as the cosets, but not the cosets themselves
    monkeypatch.setattr(checks, "orbits", lambda quandle: [[0, 1], [2, 3]])
    monkeypatch.setattr(checks, "build_takasaki", lambda n: build_alexander(P4_1))
    result = checks.check_quandle_structure(P43)
    assert result.failures == [
        "constructor table fails axioms",
        "orbits [[0, 1], [2, 3]] are not the cosets of 2Z/4",
        "twist -1 table differs from the dihedral table",
    ]
    assert result.checks == clean.checks


def test_word_laws_fixed_sweeps_catch_faults(monkeypatch):
    # no random samples: the section and kernel sweeps alone, 1 + 11 * 4 + 4 checks
    real_section = checks.section
    clean = checks.check_word_laws(P43, random.Random(0), samples=0)
    assert clean.passed and clean.checks == 49

    def planted_section(params, k, a):
        return real_section(params, k, 2 if (k, a) == (2, 1) else a)

    monkeypatch.setattr(checks, "section", planted_section)
    # e1 is not central: it commutes with e_z only for odd z
    monkeypatch.setattr(checks, "canonical_word", lambda element: checks.generator(P43, 1))
    result = checks.check_word_laws(P43, random.Random(0), samples=0)
    assert result.failures == [
        "degree_weight(section(2,1)) = (2, 2)",
        "kernel word e1 fails to commute with e0",
        "kernel word e1 fails to commute with e2",
    ]
    assert result.checks == clean.checks


def test_word_laws_sample_sweep_catches_a_wrong_walk(monkeypatch):
    # each sample compares act(x, g) with the letter walk of g right after
    # computing it, so the walk knows which x and g the failure names
    samples = 20
    clean = checks.check_word_laws(P43, random.Random(5), samples)
    assert clean.passed
    real_act, real_walk = checks.act, checks._letter_walk
    acted, expected = [], []

    def recording_act(x, packed):
        acted.append(x)
        return real_act(x, packed)

    def planted_walk(params, letters):
        expected.append(f"action formula fails on {acted[-1]}, {Word(params, letters)}")
        return [(y + 1) % params.n for y in real_walk(params, letters)]

    monkeypatch.setattr(checks, "act", recording_act)
    monkeypatch.setattr(checks, "_letter_walk", planted_walk)
    result = checks.check_word_laws(P43, random.Random(5), samples)
    assert len(expected) == samples
    assert result.failures == expected[: checks.MAX_RECORDED_FAILURES]
    assert result.checks == clean.checks


def _doubled_values(real):
    def planted(params):
        phi = real(params)
        return lambda alpha, beta: PackedElement(
            params, tuple(2 * x for x in phi(alpha, beta).v), 0
        )

    return planted


def _doubled_last_row(real):
    def planted(params):
        rows = real(params)
        last = rows[-1]
        return rows[:-1] + [PackedElement(params, tuple(2 * x for x in last.v), 0)]

    return planted


@pytest.mark.parametrize(
    "name, fault",
    [("_word_cocycle", _doubled_values), ("kernel_lattice_basis", _doubled_last_row)],
)
@pytest.mark.parametrize("params", [P43, LinearAlexanderParams(9, 4), LinearAlexanderParams(12, 5)])
def test_kernel_generation_faults_are_caught(monkeypatch, name, fault, params):
    # a lattice of index 2 in the kernel is not the kernel: one check, failed
    clean = checks.check_kernel_generation(params)
    assert params.num_orbits >= 2 and clean.passed and clean.checks == 1
    monkeypatch.setattr(checks, name, fault(getattr(checks, name)))
    result = checks.check_kernel_generation(params)
    assert len(result.failures) == 1 and result.checks == 1
