"""Traces of long and edge-case words: pinned byte for byte, legal step by step.

The corpus mixes long words (30-200 letters over m = 1..4, in three shapes)
with short words built to hit the places where a trace step joins parts of
the word: cancellations that run on across a join, negative exponents that
are multiples of the central degree d (raised to 0, so that their
neighbours merge), m = 1, a last run with k > 1, and input whose adjacent
letters share a color.
"""

import hashlib
import random

from quandlehom.checks import trace_violation
from quandlehom.cli import main
from quandlehom.quandle import LinearAlexanderParams
from quandlehom.intlinalg import multiplicative_order
from quandlehom.words import (
    merge_letters,
    parse_word,
    rewrite_trace,
)

# (n, t) with m = 4, 3, 2, 1, 4, 3, 2, 1
PAIRS = ((8, 5), (9, 4), (10, 3), (7, 3), (12, 5), (15, 4), (6, 5), (9, 2))

# sha256 over the 64 `normal-form --trace` reports of TRACE_CORPUS, in order
REPORTS_SHA256 = "76fc9ef3eed3bd191976cbda4bbcf55e8dd0ee33e25c83edbe533f92bdb22f14"

EDGE_WORDS = (
    # a raised e5^-3 vanishes and its e2 neighbours meet the central e2^-3
    (9, 4, "e2 e5^-3 e2"),
    # already canonical: no step
    (4, 3, "e1^-2 e0^-2"),
    # a cancellation at a join runs on: two central letters cancel in turn
    (4, 3, "e3^-2 e1^2 e2^-2 e0^4"),
    (10, 3, "e1^-4 e3^4 e0^-8 e2^4"),
    # m = 1: every letter is central-power material
    (7, 3, "e3^-6 e5 e3^-12 e2"),
    (9, 2, "e4^-6 e4^6 e1 e1^-1 e8^-12"),
    # the last run has k > 1 and is split
    (4, 3, "e3 e1 e0^3"),
    (8, 5, "e7 e2 e4^5"),
    # adjacent letters of one color in the input
    (4, 3, "e1 e1 e1^-1 e3 e3^2"),
    (15, 4, "e5^2 e5^-2 e5 e10 e10 e2^-1 e2^-1"),
)


def _format(letters):
    return " ".join(f"e{c}" if e == 1 else f"e{c}^{e}" for c, e in letters)


def _long_word(rng, n, t, length, shape):
    """``length`` letters in one of three shapes: unit, mixed (|e| <= 6), heavy."""
    m = LinearAlexanderParams(n, t).num_orbits
    exps = [
        rng.choice((1, -1)) * (rng.randint(1, 6) if shape == "mixed" else 1)
        for _ in range(length)
    ]
    if shape == "heavy":
        exps[0] *= rng.randint(100, 109)
    letters = [(i % m + m * rng.randrange(n // m), e) for i, e in enumerate(exps)]
    rng.shuffle(letters)
    return _format(letters)


def _long_words():
    rng = random.Random("trace-corpus:long")
    words = []
    for j in range(30):
        n, t = PAIRS[j % len(PAIRS)]
        shape = ("unit", "mixed", "heavy")[j % 3]
        length = round(30 * (200 / 30) ** (j / 29))
        words.append((n, t, _long_word(rng, n, t, length, shape)))
    return words


def _seam_words():
    """Short words with adjacent same-color letters and exponents +-n, +-d."""
    rng = random.Random("trace-corpus:seams")
    words = []
    for j in range(24):
        n, t = PAIRS[j % len(PAIRS)] if j % 3 else (4, 3)
        d = multiplicative_order(t, n)
        letters = []
        for _ in range(rng.randint(3, 9)):
            color = letters[-1][0] if letters and rng.random() < 0.4 else rng.randrange(n)
            exp = rng.choice((1, -1, n, -n, d, -d, -2 * d, 2))
            letters.append((color, exp))
        words.append((n, t, _format(letters)))
    return words


LONG_WORDS = _long_words()
TRACE_CORPUS = LONG_WORDS + list(EDGE_WORDS) + _seam_words()


def test_trace_reports_are_pinned(capsys):
    digest = hashlib.sha256()
    for n, t, text in TRACE_CORPUS:
        code = main(["normal-form", "--n", str(n), "--t", str(t), "--word", text, "--trace"])
        out = capsys.readouterr().out
        assert code == 0, (n, t, text)
        digest.update(out.encode())
    assert len(TRACE_CORPUS) == 64
    assert digest.hexdigest() == REPORTS_SHA256


def test_long_traces_are_legal_step_by_step():
    for n, t, text in LONG_WORDS:
        word = parse_word(text, LinearAlexanderParams(n, t))
        final, steps = rewrite_trace(word)
        before = merge_letters(word.letters)
        for step in steps:
            letters = step.word.letters
            assert merge_letters(letters) == letters, (text, step.rule)
            assert letters != before, (text, step.rule)
            before = letters
        assert trace_violation(word, final, steps) is None, text
