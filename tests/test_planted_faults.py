"""Planted faults: each sweep must still catch a wrong value, with every
expectation still counted.

A fault is patched into the name a check family calls, so the family runs
its whole sweep against one wrong answer.  It must fail, and its check
count must equal that of a correct run: an expectation that a faster sweep
dropped would show up as a lower count or as a missed fault.
"""

from quandlehom import checks
from quandlehom.quandle import LinearAlexanderParams
from quandlehom.words import PackedElement

P43 = LinearAlexanderParams(4, 3)
LETTERS = ((1, 1), (2, -1), (3, 1))  # e1 e2^-1 e3


def weight_action_count(n):
    # every word of length L <= 4 over 2n letters: L + 1 cuts and n images
    return sum((2 * n) ** length * (length + 1 + n) for length in range(5))


def test_wrong_action_is_caught(monkeypatch):
    real = checks.act

    def planted(x, word):
        y = real(x, word)
        return y + 1 if word.letters == LETTERS and x == 2 else y

    monkeypatch.setattr(checks, "act", planted)
    result = checks.check_weight_action_exhaustive(P43)
    assert result.failures == ["action formula fails on 2, e1 e2^-1 e3"]
    assert result.checks == weight_action_count(4)


def test_wrong_weight_is_caught(monkeypatch):
    real = checks.word_eval

    def planted(word):
        packed = real(word)
        if word.letters != LETTERS:
            return packed
        return PackedElement(word.params, packed.v, packed.a + 1)

    monkeypatch.setattr(checks, "word_eval", planted)
    result = checks.check_weight_action_exhaustive(P43)
    # the inner cuts of the word itself, then each 4-letter word it starts
    assert result.failures[:3] == [
        "weight law fails on e1 e2^-1 e3 cut at 1",
        "weight law fails on e1 e2^-1 e3 cut at 2",
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
