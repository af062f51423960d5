"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact integer comparisons; there are no tolerances
anywhere.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines as they complete.
"""

import random

from quandlehom.checks import (
    check_central_power,
    check_cocycle_identities,
    check_h2_oracles,
    check_kernel_generation,
    check_smith_random,
    check_weight_action_exhaustive,
    trace_violation,
    unit_pairs,
)
from quandlehom.intlinalg import AbelianInvariants
from quandlehom.homology import h2_chain_complex, h2_closed_form, h2_eisermann
from quandlehom.quandle import LinearAlexanderParams, build_alexander
from quandlehom.words import Word, canonical_word, rewrite_trace, word_eval


def _criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:2d} {status}: {description}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_c01_oracle_equivalence():
    failures = []
    seen = set()
    for params in unit_pairs(12, n_min=2):
        seen.add((params.n, params.t))
        result = check_h2_oracles(params)
        if not result.passed:
            failures.append((params.n, params.t, result.failures))
    assert (6, 5) in seen and (8, 3) in seen and (12, 7) in seen
    _criterion(
        1,
        "three homology routes agree for every n in 2..12 and every unit t",
        not failures,
        str(failures[:2]),
    )


def test_c02_prime_moduli_are_trivial():
    ok = True
    for n, t in ((5, 2), (7, 3)):
        params = LinearAlexanderParams(n, t)
        expected = AbelianInvariants(0)
        ok = ok and h2_closed_form(params) == expected
        ok = ok and h2_eisermann(params) == expected
        ok = ok and h2_chain_complex(build_alexander(params)) == expected
    _criterion(2, "prime moduli (5,2) and (7,3) give the trivial group", ok)


def test_c03_prime_square():
    params = LinearAlexanderParams(9, 4)
    expected = AbelianInvariants(6, (3, 3, 3))
    ok = (
        h2_closed_form(params) == expected
        and h2_eisermann(params) == expected
        and h2_chain_complex(build_alexander(params)) == expected
    )
    _criterion(3, "modulus 9, twist 4 gives rank 6 and torsion [3, 3, 3]", ok)


def test_c04_coprime_orbit_split_is_torsion_free():
    ok = True
    cases = 0
    for params in unit_pairs(6, n_min=6):
        m = params.num_orbits
        if m not in (2, 3) or params.n // m % m == 0:
            continue
        cases += 1
        for invariants in (
            h2_closed_form(params),
            h2_eisermann(params),
            h2_chain_complex(build_alexander(params)),
        ):
            ok = ok and invariants.torsion == ()
    ok = ok and cases >= 1
    _criterion(
        4, "modulus 6 with coprime orbit split gives torsion-free homology", ok
    )


def test_c05_normal_form_faithfulness():
    rng = random.Random(20240811)
    ok = True
    detail = ""
    for n, t in ((4, 3), (9, 4), (12, 5)):
        params = LinearAlexanderParams(n, t)
        for trial in range(10000):
            length = rng.randint(0, 12)
            letters = tuple(
                (rng.randrange(n), rng.choice((1, -1))) for _ in range(length)
            )
            word = Word(params, letters)
            packed = word_eval(word)
            cut = rng.randint(0, length)
            split_ok = packed == word_eval(Word(params, letters[:cut])) * word_eval(
                Word(params, letters[cut:])
            )
            cw = canonical_word(packed)
            round_ok = (
                word_eval(cw) == packed
                and canonical_word(word_eval(cw)).letters == cw.letters
            )
            final, steps = rewrite_trace(word)
            trace_ok = (
                final.letters == cw.letters
                and all(word_eval(step.word) == packed for step in steps)
                and trace_violation(word, final, steps) is None
            )
            if not (split_ok and round_ok and trace_ok):
                ok = False
                detail = f"n={n} t={t} trial={trial} word={word}"
                break
        if not ok:
            break
    _criterion(
        5,
        "30000 random words: multiplicative evaluation, canonical round "
        "trips, value-preserving rewrite traces with one rule use per step",
        ok,
        detail,
    )


def test_c06_cocycle_identity_suite():
    failures = []
    total = 0
    for params in unit_pairs(8):
        result = check_cocycle_identities(params, degree_span=2)
        total += result.checks
        if not result.passed:
            failures.append((params.n, params.t, result.failures[:2]))
    _criterion(
        6,
        f"cocycle identity suite exhaustive for n <= 8 ({total} checks)",
        not failures,
        str(failures[:2]),
    )


def test_c07_weight_and_action_exhaustive():
    failures = []
    total = 0
    for params in unit_pairs(6):
        result = check_weight_action_exhaustive(params, max_len=4)
        total += result.checks
        if not result.passed:
            failures.append((params.n, params.t, result.failures[:2]))
    _criterion(
        7,
        f"weight law and action formula exhaustive, words of length <= 4, "
        f"n <= 6 ({total} checks)",
        not failures,
        str(failures[:2]),
    )


def test_c08_central_power_degree():
    failures = []
    for params in unit_pairs(12):
        result = check_central_power(params)
        if not result.passed:
            failures.append((params.n, params.t, result.failures[:2]))
    _criterion(
        8,
        "central power degree equals the order of t and is minimal, n <= 12",
        not failures,
        str(failures[:2]),
    )


def test_c09_cocycle_image_generates_kernel():
    failures = []
    for params in unit_pairs(10):
        result = check_kernel_generation(params)
        if not result.passed:
            failures.append((params.n, params.t, result.failures))
    _criterion(
        9,
        "cocycle values span exactly the kernel lattice (Hermite equality), "
        "n <= 10",
        not failures,
        str(failures[:2]),
    )


def test_c10_smith_normal_form_random():
    result = check_smith_random(
        random.Random(20240811), samples=1000, max_dim=30, entry_bound=9
    )
    _criterion(
        10,
        f"1000 random matrices up to 30x30: divisibility chain and exact "
        f"u @ m @ v recomposition ({result.checks} checks)",
        result.passed,
        str(result.failures[:2]),
    )
