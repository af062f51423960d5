"""Reference computations the benchmark checks quandlehom's reports against.

Nothing here imports quandlehom: every expected value is derived from the
paper's formulas for the linear Alexander quandle a <| b = t*a + (1-t)*b on
Z/n, with m = gcd(n, 1-t) orbits.  Each ``*_problem`` function returns None
when a report is right and a one-line description of the first fault
otherwise.
"""

from __future__ import annotations

import json
import math
import re

RULES = ("braid", "relation", "central-power")

# the family order of one (n, t) in a verify report; the exhaustive sweeps
# are capped at the moduli the suite specifies them for
FAMILIES = (
    ("quandle-structure", None),
    ("word-laws", None),
    ("weight-action-exhaustive", 6),
    ("central-power", None),
    ("rewriting", None),
    ("cocycle-identities", 8),
    ("kernel-generation", None),
    ("h2-oracles", None),
)
SMITH_CONTEXT = {"samples": 100, "max_dim": 12, "entry_bound": 9}
SMITH_CHECKS = 5 * SMITH_CONTEXT["samples"]
WEIGHT_ACTION_MAX_LEN = 4
COCYCLE_DEGREE_SPAN = 2

_TOKEN = re.compile(r"e(\d+)(?:\^(-?\d+))?\Z")


def is_unit(n, t):
    return math.gcd(t % n, n) == 1


def orbit_count(n, t):
    return math.gcd(n, (1 - t) % n)


def h2(n, t):
    """Closed formula: H2 = Z^(m(m-1)) + (Z/gcd(m, n/m))^m, as (rank, torsion)."""
    m = orbit_count(n, t)
    g = math.gcd(m, n // m)
    return m * (m - 1), [g] * m if g >= 2 else []


def orbits(n, t):
    """Orbits are the cosets of mZ/n, listed by their least element."""
    m = orbit_count(n, t)
    return [list(range(r, n, m)) for r in range(m)]


def geometric(n, t, e):
    """q(e) = 1 + t + ... + t^(e-1) mod n, with q(-j) = -t^(-j) q(j)."""
    t %= n
    if n == 1:
        return 0
    if e < 0:
        return -pow(t, e, n) * geometric(n, t, -e) % n
    if t == 1:
        return e % n
    return (pow(t, e, n * (t - 1)) - 1) // (t - 1) % n


def parse_word(text, n):
    """Letters (color, exponent) of a word ``e3 e0^-2``; ValueError if malformed."""
    letters = []
    for token in text.split():
        match = _TOKEN.match(token)
        if match is None:
            raise ValueError(f"bad token {token!r}")
        color = int(match.group(1))
        exp = int(match.group(2)) if match.group(2) is not None else 1
        if color >= n or exp == 0:
            raise ValueError(f"bad letter {token!r} for n={n}")
        letters.append((color, exp))
    return letters


def format_word(letters):
    return " ".join(f"e{c}" if e == 1 else f"e{c}^{e}" for c, e in letters)


def merge_adjacent(letters):
    """Free reduction of runs: adjacent letters of one color add up."""
    merged = []
    for color, exp in letters:
        if merged and merged[-1][0] == color:
            merged[-1] = (color, merged[-1][1] + exp)
            if merged[-1][1] == 0:
                merged.pop()
        else:
            merged.append((color, exp))
    return merged


def fold(letters, n, t):
    """The packed pair (v, a): per-orbit letter counts and the twisted weight.

    Per letter e_x^e the weight folds as a -> t^e a + q(e) x (mod n).
    """
    m = orbit_count(n, t)
    v = [0] * m
    a = 0
    for color, exp in letters:
        v[color % m] += exp
        a = (pow(t % n, exp, n) * a + geometric(n, t, exp) * color) % n if n > 1 else 0
    return v, a


def canonical_shape_problem(letters, n, t):
    """A canonical word is e_{m-1}^. ... e_1^. e_0^. [e_d] with d == 0 mod m.

    Block colors are orbit representatives in strictly decreasing order; the
    optional trailing letter e_d has exponent 1 and a nonzero color d that is
    a multiple of m.  Together with the packed pair this fixes the word.
    """
    m = orbit_count(n, t)
    blocks = letters
    if letters and letters[-1][0] >= m:
        d, e = letters[-1]
        if e != 1 or d % m:
            return f"trailing letter {format_word([letters[-1]])} is not e_d with d == 0 mod {m}"
        blocks = letters[:-1]
    colors = [c for c, _ in blocks]
    if any(c >= m for c in colors) or colors != sorted(set(colors), reverse=True):
        return f"blocks {format_word(blocks)} are not descending orbit representatives"
    return None


def degree_zero_cocycle(n, t, a, b):
    """phi((0, a), (0, b)) = e_{a mod m} + e_{b mod m} - e_{(a+b) mod m} - e_0."""
    m = orbit_count(n, t)
    v = [0] * m
    v[a % m] += 1
    v[b % m] += 1
    v[(a + b) % m] -= 1
    v[0] -= 1
    return v


def alexander_table(n, t):
    return [[(t * a + (1 - t) * b) % n for b in range(n)] for a in range(n)]


def witness_problem(table, axiom, witness):
    """None if ``witness`` breaks ``axiom`` in ``table``, checked directly."""
    n = len(table)
    if not all(isinstance(w, int) and 0 <= w < n for w in witness):
        return f"witness {witness} is out of range"
    if axiom == "idempotence" and len(witness) == 1:
        (a,) = witness
        return None if table[a][a] != a else f"{a} <| {a} == {a}"
    if axiom == "right-translation" and len(witness) == 1:
        (b,) = witness
        column = {table[a][b] for a in range(n)}
        return None if len(column) != n else f"right translation by {b} is bijective"
    if axiom == "self-distributivity" and len(witness) == 3:
        a, b, c = witness
        if table[table[a][b]][c] != table[table[a][c]][table[b][c]]:
            return None
        return f"(a<|b)<|c == (a<|c)<|(b<|c) at {witness}"
    return f"unknown axiom {axiom!r} with witness {witness}"


def multiplicative_order(t, n):
    d, x = 1, t % n
    while x != 1 % n:
        x = x * t % n
        d += 1
    return d


def family_checks(name, n, t):
    """Comparison count of a family whose sweep does not depend on the seed."""
    if name == "quandle-structure":
        return 4 + (t % n == (n - 1) % n)
    if name == "weight-action-exhaustive":
        # every word of length L <= 4 over 2n signed letters: L + 1 cuts, n points
        return sum(
            (2 * n) ** length * (length + 1 + n)
            for length in range(WEIGHT_ACTION_MAX_LEN + 1)
        )
    if name == "central-power":
        return 1 + 2 * n * n + multiplicative_order(t, n) - 1
    if name == "cocycle-identities":
        span = 2 * COCYCLE_DEGREE_SPAN + 1
        return (
            span**3 * n**3
            + span**2 * (2 * n + 5 * n * n)
            + n * n * (5 + 3 * n)
        )
    if name == "kernel-generation":
        return 1
    if name == "h2-oracles":
        return 4 + (orbit_count(n, t) == 1)
    return None


def verify_cases(n_max):
    """(name, context) of every family a ``verify --n-max`` report lists, in order."""
    cases = []
    for n in range(1, n_max + 1):
        for t in range(n):
            if not is_unit(n, t):
                continue
            for name, cap in FAMILIES:
                if cap is not None and n > cap:
                    continue
                context = {"n": n, "t": t}
                if name == "weight-action-exhaustive":
                    context["max_len"] = WEIGHT_ACTION_MAX_LEN
                elif name == "cocycle-identities":
                    context["degree_span"] = COCYCLE_DEGREE_SPAN
                cases.append((name, context))
    cases.append(("smith-normal-form", dict(SMITH_CONTEXT)))
    return cases


# --- report checks ---------------------------------------------------------


def envelope_problem(text, command, context, code, expected_code, status="ok"):
    """Parse a report and check its fixed envelope; returns (report, problem)."""
    if code != expected_code:
        return None, f"exit code {code}, expected {expected_code}"
    try:
        report = json.loads(text)
    except ValueError as exc:
        return None, f"report is not JSON: {exc}"
    if json.dumps(report, indent=2) + "\n" != text:
        return None, "report does not re-serialize byte-identically"
    keys = ["command", "context", "status", "result" if status == "ok" else "error"]
    if list(report) != keys:
        return None, f"report keys {list(report)}, expected {keys}"
    if report["command"] != command or report["status"] != status:
        return None, f"command/status {report['command']}/{report['status']}"
    if report["context"] != context:
        return None, f"context {report['context']}, expected {context}"
    return report, None


def h2_problem(result, n, t):
    rank, torsion = h2(n, t)
    if result != {"rank": rank, "torsion": torsion}:
        return f"h2({n},{t}) = {result}, formula gives rank {rank} torsion {torsion}"
    return None


def orbits_problem(result, n, t):
    expected = {"m": orbit_count(n, t), "orbits": orbits(n, t)}
    return None if result == expected else f"orbits({n},{t}) are not the cosets of mZ/n"


def phi_table_problem(result, n, t):
    m = orbit_count(n, t)
    if result.get("m") != m:
        return f"phi-table({n},{t}) reports m={result.get('m')}, expected {m}"
    table = result.get("table")
    if not isinstance(table, list) or len(table) != n:
        return f"phi-table({n},{t}) has the wrong shape"
    for a in range(n):
        for b in range(n):
            if table[a][b] != degree_zero_cocycle(n, t, a, b):
                return f"phi-table({n},{t}) entry ({a},{b}) = {table[a][b]}"
    return None


def normal_form_problem(result, n, t, word, traced):
    """Packed pair by the reference fold, canonical shape, and each trace step."""
    v, a = fold(parse_word(word, n), n, t)
    if result.get("packed") != {"v": v, "a": a} or result.get("degree") != sum(v):
        return f"packed {result.get('packed')} != reference ({v}, {a})"
    try:
        canonical = parse_word(result["canonical"], n)
    except (KeyError, ValueError) as exc:
        return f"canonical word unreadable: {exc}"
    problem = canonical_shape_problem(canonical, n, t)
    if problem:
        return problem
    if fold(canonical, n, t) != (v, a):
        return f"canonical word {result['canonical']} evaluates differently"
    keys = ["packed", "degree", "canonical"] + (["trace"] if traced else [])
    if list(result) != keys:
        return f"result keys {list(result)}, expected {keys}"
    if not traced:
        return None
    steps = result["trace"]
    letters = parse_word(word, n)
    if result["canonical"] == format_word(letters):
        return None if steps == [] else "canonical input produced a nonempty trace"
    if not steps:
        # no move is needed when the input only spells a block in pieces
        if format_word(merge_adjacent(letters)) != result["canonical"]:
            return "empty trace for an input that differs from the canonical word"
    elif steps[-1]["word"] != result["canonical"]:
        return "trace does not end at the canonical word"
    for i, step in enumerate(steps):
        if list(step) != ["rule", "word", "note"] or step["rule"] not in RULES:
            return f"step {i} is malformed: {step}"
        if fold(parse_word(step["word"], n), n, t) != (v, a):
            return f"step {i} ({step['rule']}) changes the value"
    return None


def axioms_problem(report, table, valid):
    """A valid table is accepted; a broken one is refused with a true witness."""
    if valid:
        if report["result"] != {"n": len(table), "valid": True}:
            return f"valid table reported as {report['result']}"
        return None
    error = report["error"]
    if error.get("code") != "AxiomViolation":
        return f"broken table refused with {error}"
    return witness_problem(table, error.get("axiom"), error.get("witness", []))


def verify_problem(result, n_max):
    cases = result.get("cases", [])
    expected = verify_cases(n_max)
    if [(c.get("name"), c.get("context")) for c in cases] != expected:
        return f"verify --n-max {n_max} lists other families than expected"
    for case in cases:
        if case.get("passed") is not True or case.get("failures") != []:
            return f"family {case['name']} {case['context']} failed"
        if not isinstance(case.get("checks"), int) or case["checks"] < 1:
            return f"family {case['name']} {case['context']} ran no checks"
        context = case["context"]
        if case["name"] == "smith-normal-form":
            want = SMITH_CHECKS
        else:
            want = family_checks(case["name"], context["n"], context["t"])
        if want is not None and case["checks"] != want:
            return f"family {case['name']} {context} ran {case['checks']} checks, expected {want}"
    summary = {
        "families": len(cases),
        "checks": sum(c["checks"] for c in cases),
        "failed_families": 0,
    }
    if result.get("summary") != summary:
        return f"summary {result.get('summary')} != {summary}"
    return None
