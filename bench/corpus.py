"""Seeded request corpora, one per workload, each request with its checker.

A round is the fixed batch a workload replays.  ``chain-h2`` and
``rewrite-trace`` replay the same requests every round (the order of
``chain-h2`` is shuffled per round); ``cli-requests`` and ``verify`` draw
fresh values every round from (seed, round), with the same make-up, so
that the program's memo tables see distinct exponents, as a fresh CLI
process would.  Sizes come from fixed ladders and the seed picks the rest
(twists, colors, signs, exponents), so the work per round barely depends on
the seed.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import reference as ref

WORKLOADS = ("chain-h2", "rewrite-trace", "cli-requests", "verify")

# every unit twist of every modulus up to this: the range the acceptance
# suite cross-checks the three H2 routes on
CHAIN_N_MAX = 10

# (n, t) for the rewrite corpus, with m = 4, 3, 4, 2, 1, 1, 2, 3
REWRITE_PAIRS = ((8, 5), (9, 4), (12, 5), (10, 3), (7, 3), (9, 2), (6, 5), (15, 4))
# 120 words in groups of (count, shortest, longest unit length, pairs, shapes);
# lengths are log-spread within a group.  The cost of a trace is about cubic
# in the length, so a log-spread ladder puts 15% between neighbours.  Groups
# of one length and pair put many near-equal costs where the median (rank
# 60) and the 90th percentile (rank 108) fall, and six equal longest unit
# words set the peak memory, so those figures barely move with the seed.
# Unit words much longer than 110 letters cost seconds each today.
REWRITE_GROUPS = (
    (42, 1, 30, REWRITE_PAIRS, ("unit", "mixed")),
    (36, 40, 40, ((10, 3),), ("unit",)),
    (18, 50, 70, REWRITE_PAIRS, ("unit", "mixed")),
    (12, 80, 80, ((8, 5),), ("unit",)),
    (6, 200, 200, ((9, 4), (7, 3), (10, 3), (15, 4), (9, 2), (6, 5)), ("heavy",)),
    (6, 110, 110, ((12, 5),), ("unit",)),
)

VERIFY_N_MAX = 4

NORMAL_FORM_PAIRS = ((8, 5), (9, 4), (12, 5), (7, 3), (100, 21), (1000, 11), (36, 13), (64, 33))


@dataclass
class Request:
    """One CLI invocation and the check of its (exit code, stdout)."""

    argv: list
    check: Callable[[int, str], "str | None"]

    def problem(self, code, text):
        """None if the report is right, else what is wrong with it."""
        try:
            return self.check(code, text)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            return f"malformed report: {exc!r}"


def _random_unit(rng, n):
    while True:
        t = rng.randrange(n)
        if ref.is_unit(n, t):
            return t


def _nt(n, t):
    return ["--n", str(n), "--t", str(t)]


def h2_request(n, t, method):
    context = {"n": n, "t": t, "method": method}

    def check(code, text):
        report, problem = ref.envelope_problem(text, "h2", context, code, 0)
        return problem or ref.h2_problem(report["result"], n, t)

    return Request(["h2", *_nt(n, t), "--method", method], check)


def normal_form_request(n, t, word, traced):
    context = {"n": n, "t": t, "word": word}

    def check(code, text):
        report, problem = ref.envelope_problem(text, "normal-form", context, code, 0)
        return problem or ref.normal_form_problem(report["result"], n, t, word, traced)

    argv = ["normal-form", *_nt(n, t), "--word", word]
    return Request(argv + ["--trace"] if traced else argv, check)


def orbits_request(n, t):
    def check(code, text):
        report, problem = ref.envelope_problem(text, "orbits", {"n": n, "t": t}, code, 0)
        return problem or ref.orbits_problem(report["result"], n, t)

    return Request(["orbits", *_nt(n, t)], check)


def phi_table_request(n, t):
    def check(code, text):
        report, problem = ref.envelope_problem(text, "phi-table", {"n": n, "t": t}, code, 0)
        return problem or ref.phi_table_problem(report["result"], n, t)

    return Request(["phi-table", *_nt(n, t)], check)


def axioms_request(path, table, valid):
    def check(code, text):
        report, problem = ref.envelope_problem(
            text, "axioms", {"table": path}, code, 0 if valid else 3,
            "ok" if valid else "error",
        )
        return problem or ref.axioms_problem(report, table, valid)

    return Request(["axioms", "--table", path], check)


def verify_request(n_max, seed):
    def check(code, text):
        context = {"n_max": n_max, "seed": seed}
        report, problem = ref.envelope_problem(text, "verify", context, code, 0)
        return problem or ref.verify_problem(report["result"], n_max)

    return Request(["verify", "--n-max", str(n_max), "--seed", str(seed)], check)


def chain_h2(seed, round_index, workdir):
    """h2 --method chain for every unit twist of every 2 <= n <= CHAIN_N_MAX (31)."""
    pairs = [(n, t) for n in range(2, CHAIN_N_MAX + 1) for t in range(n) if ref.is_unit(n, t)]
    random.Random(f"chain-h2:{seed}:{round_index}").shuffle(pairs)
    return [h2_request(n, t, "chain") for n, t in pairs]


def _rewrite_word(rng, n, t, length, style, big_sign):
    """A word of ``length`` unit letters in one of three shapes.

    The cost of the trace depends on how many letters are negative and how
    they spread over the orbits, so both are balanced rather than drawn;
    the seed picks the colors within each orbit and the order.
    """
    m = ref.orbit_count(n, t)
    exps = []
    if style == "heavy":
        # one exponent in the hundreds, with a fixed sign; the rest unit letters
        big = rng.randint(100, 109)
        exps.append(big_sign * big)
        length -= big
    small = []
    while length > 0:
        exp = min(rng.randint(1, 6), length) if style == "mixed" else 1
        small.append(exp)
        length -= exp
    signs = [(-1) ** i for i in range(len(small))]
    rng.shuffle(signs)
    exps += [s * e for s, e in zip(signs, small)]
    letters = [(i % m + m * rng.randrange(n // m), e) for i, e in enumerate(exps)]
    rng.shuffle(letters)
    return ref.format_word(letters)


def rewrite_trace(seed, round_index, workdir):
    """normal-form --trace on the 120 words of REWRITE_GROUPS, up to 200 letters.

    Length, (n, t) and shape of each word are fixed by its place; the seed
    draws colors within orbits, letter order, which letters are negative and
    exponent splits.  Every round replays the same words.
    """
    rng = random.Random(f"rewrite-trace:{seed}")
    requests = []
    for count, shortest, longest, pairs, styles in REWRITE_GROUPS:
        for j in range(count):
            length = round(shortest * (longest / shortest) ** (j / max(1, count - 1)))
            n, t = pairs[j % len(pairs)]
            word = _rewrite_word(rng, n, t, length, styles[j % len(styles)], (-1) ** j)
            requests.append(normal_form_request(n, t, word, True))
    return requests


def write_table(path, table):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(table)}\n")
        handle.writelines(" ".join(map(str, row)) + "\n" for row in table)


def _relabelled_alexander(rng, n):
    """An isomorphic copy of a random Alexander table: still a quandle."""
    base = ref.alexander_table(n, _random_unit(rng, n))
    sigma = list(range(n))
    rng.shuffle(sigma)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[base[a][b]]
    return table


def _eisermann_pair(rng, m):
    """Large n with exactly m orbits: n = m*k, t = 1 + m*s, gcd(k, s) = 1."""
    while True:
        k = rng.randrange(10**4, 10**6)
        s = rng.randrange(1, k)
        n, t = m * k, 1 + m * s
        if math.gcd(k, s) == 1 and math.gcd(t, n) == 1:
            return n, t


def cli_requests(seed, round_index, workdir):
    """100 interactive commands: 8 h2 formula, 8 h2 eisermann, 40 normal-form,
    12 phi-table, 8 valid and 8 corrupted axiom tables, 16 orbits."""
    rng = random.Random(f"cli-requests:{seed}:{round_index}")
    requests = []
    for _ in range(8):
        n = rng.randrange(10**5, 10**12)
        requests.append(h2_request(n, _random_unit(rng, n), "formula"))
    for m in (1, 2, 3, 4, 6, 8, 12, 16):
        requests.append(h2_request(*_eisermann_pair(rng, m), "eisermann"))
    for i in range(40):
        n, t = NORMAL_FORM_PAIRS[i % len(NORMAL_FORM_PAIRS)]
        exps = rng.sample(range(10**3, 10**6), 60)
        letters = [(rng.randrange(n), rng.choice((1, -1)) * e) for e in exps]
        requests.append(normal_form_request(n, t, ref.format_word(letters), False))
    for n in (8, 9, 10, 12, 12, 14, 15, 16, 16, 18, 20, 20):
        requests.append(phi_table_request(n, _random_unit(rng, n)))
    tables = os.path.join(workdir, f"round-{round_index}")
    os.makedirs(tables, exist_ok=True)
    for i, n in enumerate((12, 16, 20, 24, 28, 32, 36, 40) * 2):
        table = _relabelled_alexander(rng, n)
        valid = i < 8
        if not valid:
            # one entry changed: its column repeats a value, or a <| a != a
            a, b = rng.randrange(n), rng.randrange(n)
            table[a][b] = (table[a][b] + rng.randrange(1, n)) % n
        path = os.path.join(tables, f"table-{i}.tbl")
        write_table(path, table)
        requests.append(axioms_request(path, table, valid))
    for i in range(16):
        n = 80 + round(70 * i / 15)
        requests.append(orbits_request(n, _random_unit(rng, n)))
    return requests


def verify(seed, round_index, workdir):
    """One verify --n-max VERIFY_N_MAX with a fresh --seed per round."""
    rng = random.Random(f"verify:{seed}:{round_index}")
    return [verify_request(VERIFY_N_MAX, rng.randrange(10**6))]


BUILDERS = {
    "chain-h2": chain_h2,
    "rewrite-trace": rewrite_trace,
    "cli-requests": cli_requests,
    "verify": verify,
}
