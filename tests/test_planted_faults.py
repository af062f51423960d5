"""Planted faults: each sweep must still catch a wrong value, with every
expectation still counted.

A fault is patched into the name a check family calls, so the family runs
its whole sweep against one wrong answer.  It must fail, and its check
count must equal that of a correct run: an expectation that a faster sweep
dropped would show up as a lower count or as a missed fault.
"""

import itertools

from quandlehom import checks
from quandlehom.quandle import LinearAlexanderParams
from quandlehom.words import PackedElement, Word, word_eval

P43 = LinearAlexanderParams(4, 3)
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
