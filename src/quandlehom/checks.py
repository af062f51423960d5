"""Verification suites: algebraic identities, normal-form laws, oracle equality.

Each check function sweeps one family of properties for a fixed quandle
(or for random matrices) and reports how many individual comparisons ran
and which ones failed.  The CLI ``verify`` subcommand, the acceptance
tests and the unit tests all call these functions instead of sweeping the
same laws again by hand.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from operator import add, sub

from .cocycle import extension_cocycle, kernel_lattice_basis
from .errors import EmptyRangeError, NegativeCountError, NotAComplexError
from .homology import h2_chain_complex, h2_closed_form, h2_eisermann
from .intlinalg import IntMatrix, invariant_factors, multiplicative_order, smith_normal_form
from .quandle import (
    LinearAlexanderParams,
    build_alexander,
    build_takasaki,
    find_violation,
    orbits,
)
from .words import (
    Word,
    act,
    canonical_word,
    generator,
    merge_letters,
    rewrite_trace,
    section,
    word_eval,
)

MAX_RECORDED_FAILURES = 8
WEIGHT_ACTION_MAX_LEN = 4
COCYCLE_DEGREE_SPAN = 2
SMITH_ENTRY_BOUND = 9


@dataclass
class CheckResult:
    """Outcome of one check family: comparison count and failure messages."""

    name: str
    context: dict
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def check(self, ok):
        """Count one comparison and return whether it held; callers build
        the text for ``fail`` only on False, so a passing check builds none."""
        self.checks += 1
        return ok

    def fail(self, message):
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(message)


def unit_pairs(n_max):
    """All (n, t) with 1 <= n <= n_max and t a unit mod n, sorted."""
    return [
        LinearAlexanderParams(n, t)
        for n in range(1, n_max + 1)
        for t in range(n)
        if math.gcd(t, n) == 1
    ]


def _random_word(params, rng, max_len):
    length = rng.randint(0, max_len)
    return Word._adopt(
        params,
        tuple((rng.randrange(params.n), rng.choice((1, -1))) for _ in range(length)),
    )


def _letter_walk(params, letters):
    # every x moved one letter at a time, e_c^e: y -> t^e y + (1 - t^e) c;
    # the reference that the closed formula of act is checked against
    n, t = params.n, params.t
    images = range(n)
    for c, e in letters:
        te = pow(t, e, n)
        shift = (1 - te) * c
        images = [(te * y + shift) % n for y in images]
    return images


def check_quandle_structure(params):
    """Axioms, orbit partition versus cosets, connectivity criterion."""
    result = CheckResult("quandle-structure", {"n": params.n, "t": params.t})
    n, t = params.n, params.t
    quandle = build_alexander(params)
    if not result.check(find_violation(quandle.table) is None):
        result.fail("constructor table fails axioms")
    m = params.num_orbits
    blocks = orbits(quandle)
    if not result.check(len(blocks) == m):
        result.fail(f"orbit count {len(blocks)} != gcd {m}")
    expected = [sorted(range(r, n, m)) for r in range(m)]
    if not result.check(blocks == expected):
        result.fail(f"orbits {blocks} are not the cosets of {m}Z/{n}")
    if not result.check((len(blocks) == 1) == (m == 1)):
        result.fail("connectivity disagrees with gcd(n, 1-t) == 1")
    if t == (n - 1) % n:
        if not result.check(quandle == build_takasaki(n)):
            result.fail("twist -1 table differs from the dihedral table")
    return result


def check_word_laws(params, rng, samples=200):
    """Group laws of the packed representation on random words.

    Covers multiplicativity, the twisted weight law, injectivity of colors,
    the conjugation rule e_x g = g e_{x.g}, centrality of kernel elements,
    the central-element characterization, surjectivity of the (degree,
    weight) map,
    and the conjugation behavior of the section.
    """
    result = CheckResult("word-laws", {"n": params.n, "t": params.t})
    n, t = params.n, params.t

    packed_gens = [word_eval(generator(params, x)) for x in range(n)]
    if not result.check(len(set(packed_gens)) == n):
        result.fail("color map x -> e_x is not injective")

    for k in range(-5, 6):
        for a in range(n):
            packed = word_eval(section(params, k, a))
            f = (packed.degree, packed.a)
            if not result.check(f == (k, a)):
                result.fail(f"degree_weight(section({k},{a})) = {f}")

    for _ in range(samples):
        w1 = _random_word(params, rng, 8)
        w2 = _random_word(params, rng, 8)
        p1, p2, p12 = word_eval(w1), word_eval(w2), word_eval(w1 * w2)
        if not result.check(p12 == p1 * p2):
            result.fail(f"eval not multiplicative on {w1} | {w2}")
        if not result.check(p12.a == (pow(t, p2.degree, n) * p1.a + p2.a) % n):
            result.fail(f"weight law fails on {w1} | {w2}")

        g, pg = w1, p1
        x = rng.randrange(n)
        gx = act(x, pg)
        lhs = word_eval(generator(params, x) * g)
        rhs = word_eval(g * generator(params, gx))
        if not result.check(lhs == rhs):
            result.fail(f"conjugation rule fails on e{x}, {g}")

        if not result.check(gx == _letter_walk(params, g.letters)[x]):
            result.fail(f"action formula fails on {x}, {g}")

        # central-element characterization
        central = pow(t, pg.degree, n) == 1 % n and (1 - t) * pg.a % n == 0
        fixes_all = all(act(z, pg) == z for z in range(n))
        if not result.check(central == fixes_all):
            result.fail(f"centrality criterion disagrees with the action on {g}")
        if central:
            for z in range(n):
                if not result.check(
                    word_eval(generator(params, z) * g)
                    == word_eval(g * generator(params, z))
                ):
                    result.fail(f"central word {g} fails to commute with e{z}")

        # section conjugation in degree 1, against the closed form
        # (k, a)^(p, c) = (k, t^p a + (1 - t^k) c) in Z x| Z/n
        alpha = (1, rng.randrange(n))
        gamma = (rng.randint(-3, 4), rng.randrange(n))
        lhs = word_eval(
            section(params, *gamma).inverse()
            * section(params, *alpha)
            * section(params, *gamma)
        )
        (k, a), (p, c) = alpha, gamma
        rhs = word_eval(section(params, k, pow(t, p, n) * a + (1 - pow(t, k, n)) * c))
        if not result.check(lhs == rhs):
            result.fail(f"section conjugation fails on {alpha}, {gamma}")

    # kernel elements are central: build words with zero degree and weight
    for element in kernel_lattice_basis(params):
        g = canonical_word(element)
        for z in range(n):
            if not result.check(
                word_eval(generator(params, z) * g)
                == word_eval(g * generator(params, z))
            ):
                result.fail(f"kernel word {g} fails to commute with e{z}")
    return result


def check_weight_action_exhaustive(params):
    """Weight law on every factorization and action on every word of length <= 4.

    Words are walked shortest first, each level grown from the one below
    by one letter, so every prefix and suffix of a word has already been
    evaluated once: the cuts read its (weight, t^degree) back, and the
    reference images of the letter walk are one letter step from the
    prefix's images.  A level lists its words in lexicographic order, so
    the word at index i is i written in base 2n, one digit per letter:
    its prefix and suffix at a cut leaving j letters on the right sit at
    i // (2n)^j and i % (2n)^j of their levels.
    """
    result = CheckResult(
        "weight-action-exhaustive",
        {"n": params.n, "t": params.t, "max_len": WEIGHT_ACTION_MAX_LEN},
    )
    n, t = params.n, params.t
    # one _letter_walk step per letter: y -> t^e y + (1 - t^e) c
    steps = []
    for c in range(n):
        for e in (1, -1):
            te = pow(t, e, n)
            steps.append(((c, e), te, (1 - te) * c))
    scales = [len(steps) ** j for j in range(WEIGHT_ACTION_MAX_LEN + 1)]
    values = []  # values[length][i]: (weight, t^degree) of the i-th word
    level = [((), list(range(n)))]  # (letters, images), in lexicographic order
    for length in range(WEIGHT_ACTION_MAX_LEN + 1):
        if length:
            level = [
                (letters + (letter,), [(te * y + shift) % n for y in images])
                for letters, images in level
                for letter, te, shift in steps
            ]
        row = []
        values.append(row)
        for i, (letters, images) in enumerate(level):
            w = Word._adopt(params, letters)
            pw = word_eval(w)
            row.append((pw.a, pow(t, pw.degree, n)))
            for cut in range(length + 1):
                right = length - cut
                a1, _ = values[cut][i // scales[right]]
                a2, t2 = values[right][i % scales[right]]
                if not result.check(pw.a == (t2 * a1 + a2) % n):
                    result.fail(f"weight law fails on {w} cut at {cut}")
            for x, y in enumerate(images):
                if not result.check(act(x, pw) == y):
                    result.fail(f"action formula fails on {x}, {w}")
    return result


def check_central_power(params):
    """The order d of t satisfies t^d == 1, e_x^d is central, and d is minimal."""
    result = CheckResult("central-power", {"n": params.n, "t": params.t})
    n = params.n
    d = multiplicative_order(params.t, n)
    if not result.check(pow(params.t, d, n) == 1 % n):
        result.fail(f"order {d} of t fails t^{d} == 1 mod {n}")
    for x in range(n):
        power = generator(params, x, d)
        packed = word_eval(power)
        for y in range(n):
            if not result.check(act(y, packed) == y):
                result.fail(f"e{x}^{d} does not fix {y}")
            if not result.check(
                word_eval(power * generator(params, y))
                == word_eval(generator(params, y) * power)
            ):
                result.fail(f"e{x}^{d} does not commute with e{y}")
    for smaller in range(1, d):
        witness = any(
            act(y, moved) != y
            for moved in (word_eval(generator(params, x, smaller)) for x in range(n))
            for y in range(n)
        )
        if not result.check(witness):
            result.fail(f"e_x^{smaller} is already central for every x")
    return result


def _inverse(letters):
    return tuple([(c, -e) for c, e in reversed(letters)])


def _cyclic_difference(before, after):
    """after * before^-1 in the free group on the colors, cyclically reduced.

    One use of a relation X = Y turns a word P X S into P Y S exactly when
    this difference is conjugate to Y X^-1 (or to X Y^-1, for a use from
    right to left): the context P and S drops out, and so do merges and
    cancellations of adjacent letters of one color.
    """
    d = merge_letters(after.letters + _inverse(before.letters))
    i, j = 0, len(d) - 1
    while i < j and d[i][0] == d[j][0]:
        total = d[i][1] + d[j][1]
        if total:
            return ((d[i][0], total),) + d[i + 1 : j]
        i += 1
        j -= 1
    return d[i : j + 1]


def _conjugate_splits(diff):
    """Each reading of a cyclic word as W e_c^f W^-1 e_a^-f, as (c, f, a, W)."""
    size = len(diff)
    if size % 2:
        return
    half = size // 2
    for j in range(size):
        c, f = diff[j]
        a, g = diff[(j + half) % size]
        if g == -f and all(
            diff[(j + i) % size] == (diff[j - i][0], -diff[j - i][1])
            for i in range(1, half)
        ):
            yield c, f, a, tuple(diff[j - i] for i in range(half - 1, 0, -1))


def _is_braid(params, diff):
    # e_x^e B = B e_{x.B}^e has Y X^-1 = B e_{x.B}^e B^-1 e_x^-e
    return any(
        block and c == act(a, word_eval(Word._adopt(params, block)))
        for c, _, a, block in _conjugate_splits(diff)
    )


def _is_central_power(params, diff):
    # moving e_r^k (d | k, i.e. t^k == 1) across any word W to a letter e_c, c = r mod m
    n, t = params.n, params.t
    m = params.num_orbits
    return any(
        pow(t, f, n) == 1 % n and c % m == a % m for c, f, a, _ in _conjugate_splits(diff)
    )


def _peel(letters, back):
    """Split one unit off the back (or front) of a positive word: (color, rest)."""
    c, e = letters[-1] if back else letters[0]
    rest = ((c, e - 1),) if e > 1 else ()
    return c, letters[:-1] + rest if back else rest + letters[1:]


def _is_run_shift(params, new, old):
    # positive words old = e_z e_x^(k-1) e_y and new = e_r^k e_{y'} with
    # r = x mod m, z = x mod m, and the same value (which fixes y')
    new, old = merge_letters(new), merge_letters(old)
    _, run = _peel(new, back=True)
    z, rest = _peel(old, back=False)
    if len(run) != 1 or not rest:
        return False
    _, middle = _peel(rest, back=True)
    (r, k), = run
    x, count = middle[0] if middle else (z, 0)
    m = params.num_orbits
    if len(middle) > 1 or count != k - 1 or r != x % m or z % m != r:
        return False
    same = word_eval(Word._adopt(params, new + _inverse(old)))
    return same.a == 0 and not any(same.v)


def _is_relation(params, diff):
    signs = [e > 0 for _, e in diff]
    starts = [j for j in range(len(diff)) if signs[j] and not signs[j - 1]]
    if len(starts) != 1:
        return False
    rotated = diff[starts[0] :] + diff[: starts[0]]
    count = sum(signs)
    positive, negative = rotated[:count], _inverse(rotated[count:])
    # the common first unit e_r and last unit e_y = e_{y'} of the two sides
    # cancel in the difference; put them back (the last unit's color is free)
    for new, old in ((positive, negative), (negative, positive)):
        for head in ((), ((new[0][0], 1),)):
            for tail in ((), ((0, 1),)):
                if _is_run_shift(params, head + new + tail, head + old + tail):
                    return True
    return False


_RULE_TESTS = {
    "braid": _is_braid,
    "relation": _is_relation,
    "central-power": _is_central_power,
}


def rule_violation(before, after, rule):
    """None if ``after`` follows from ``before`` by one use of ``rule``, else why not.

    The forms are those of ``rewrite_trace``: a braid moves one letter past a
    block B (e_x^e B = B e_{x.B}^e), a relation shifts a run to its orbit
    representative (e_{x+s} e_x^(k-1) e_y = e_r^k e_{y'}), and a central
    power moves e_r^k with d | k to a letter e_c with c = r mod m.  Adjacent
    letters of one color may be merged in either word.
    """
    if rule not in _RULE_TESTS:
        return f"unknown rule {rule!r}"
    diff = _cyclic_difference(before, after)
    if not diff:
        return "the step changes nothing"
    if not _RULE_TESTS[rule](before.params, diff):
        return f"{before} -> {after} is not one {rule} step"
    return None


def _step_problems(word, steps):
    """Each step of a trace of ``word`` with its ``rule_violation`` (None if legal)."""
    before = word
    for step in steps:
        yield step, rule_violation(before, step.word, step.rule)
        before = step.word


def _ends_at(word, final, steps):
    # a trace without steps may still merge adjacent letters of one color
    last = steps[-1].word.letters if steps else merge_letters(word.letters)
    return last == final.letters


def trace_violation(word, final, steps):
    """None if a rewrite trace of ``word`` is legal, else its first fault.

    Legal means: each step is one use of its rule (see ``rule_violation``)
    on the word before it, and the last step is ``final``.
    """
    for index, (_, problem) in enumerate(_step_problems(word, steps)):
        if problem:
            return f"step {index}: {problem}"
    if not _ends_at(word, final, steps):
        return f"trace ends at {steps[-1].word if steps else word}, not at {final}"
    return None


def check_rewriting(params, rng, samples=100):
    """Canonical-word round trips and trace validity on random words of length <= 12.

    Every trace step must keep the value and be one use of its named rule,
    and the trace must end at the canonical word.
    """
    result = CheckResult("rewriting", {"n": params.n, "t": params.t})
    for _ in range(samples):
        w = _random_word(params, rng, 12)
        packed = word_eval(w)
        cw = canonical_word(packed)
        packed_cw = word_eval(cw)
        if not result.check(packed_cw == packed):
            result.fail(f"canonical word of {w} evaluates differently")
        if not result.check(canonical_word(packed_cw).letters == cw.letters):
            result.fail(f"canonical word of {w} is not a fixed point")
        final, steps = rewrite_trace(w)
        if not result.check(final.letters == cw.letters and _ends_at(w, final, steps)):
            result.fail(f"rewriting of {w} disagrees with the canonical word")
        for step, problem in _step_problems(w, steps):
            if not result.check(word_eval(step.word) == packed and problem is None):
                result.fail(f"step {step.rule} of {w}: {problem or 'the value changed'}")
        if cw.letters == w.letters:
            if not result.check(steps == ()):
                result.fail(f"canonical input {w} produced a nonempty trace")
    return result


def _word_cocycle(params):
    """phi(alpha, beta) = s(alpha) s(beta) s(alpha*beta)^-1 from the section
    words, the oracle for ``extension_cocycle``; alpha*beta is the collapse
    of the first two.  Sections are evaluated once, kept until phi is dropped.
    """

    @functools.cache
    def section_value(k, a):
        return word_eval(section(params, k, a))

    def phi(alpha, beta):
        product = section_value(*alpha) * section_value(*beta)
        packed = product * section_value(product.degree, product.a).inverse()
        if packed.degree or packed.a:
            raise AssertionError("cocycle word left the kernel")
        return packed

    return phi


def check_cocycle_identities(params):
    """Exhaustive identity suite for the extension cocycle.

    Sweeps the group 2-cocycle identity, both normalizations, twist
    invariance, reduction to degree one, braided symmetry, the closed
    four-letter form, the degree-zero braiding, the commutator form's
    bi-additivity / antisymmetry / vanishing, and the two-letter shift
    relation, over every argument (degrees in [-2, 2], all weights), on the
    section-word values; the four-letter form must also equal the formula.
    """
    result = CheckResult(
        "cocycle-identities",
        {"n": params.n, "t": params.t, "degree_span": COCYCLE_DEGREE_SPAN},
    )
    n, t = params.n, params.t
    params_m = params.num_orbits

    word_phi = _word_cocycle(params)

    # raw value tuples, one table per pair of degrees:
    # table(k, mm)[a][b] = phi((k, a), (mm, b)).v, freed when this returns
    @functools.cache
    def table(k, mm):
        return [[word_phi((k, a), (mm, b)).v for b in range(n)] for a in range(n)]

    def phi(k, a, mm, b):
        return table(k, mm)[a][b]

    degrees = range(-COCYCLE_DEGREE_SPAN, COCYCLE_DEGREE_SPAN + 1)
    zero = (0,) * params_m

    # group 2-cocycle identity, as bc + a_bc == ab_c + ab entrywise
    for k in degrees:
        for mm in degrees:
            t_mm = pow(t, mm, n)
            for p in degrees:
                t_p = pow(t, p, n)
                ab_rows, bc_rows = table(k, mm), table(mm, p)
                ab_c_rows, a_bc_rows = table(k + mm, p), table(k, mm + p)
                for a in range(n):
                    a_bc_row = a_bc_rows[a]
                    for b in range(n):
                        ab = ab_rows[a][b]
                        bc_row = bc_rows[b]
                        ab_c_row = ab_c_rows[(t_mm * a + b) % n]
                        shift = t_p * b
                        for c in range(n):
                            bc = bc_row[c]
                            ab_c = ab_c_row[c]
                            a_bc = a_bc_row[(shift + c) % n]
                            if not result.check(
                                list(map(add, bc, a_bc)) == list(map(add, ab_c, ab))
                            ):
                                result.fail(
                                    f"cocycle identity fails at ({k},{a}),({mm},{b}),({p},{c})"
                                )

    for k in degrees:
        for mm in degrees:
            for a in range(n):
                if not result.check(phi(k, a, mm, 0) == zero):
                    result.fail(f"phi(({k},{a}),({mm},0)) != 0")
                if not result.check(phi(k, 0, mm, a) == zero):
                    result.fail(f"phi(({k},0),({mm},{a})) != 0")
            for a in range(n):
                for b in range(n):
                    value = phi(k, a, mm, b)
                    if not result.check(value == phi(k, t * a % n, mm, t * b % n)):
                        result.fail(f"twist invariance fails at ({k},{a}),({mm},{b})")
                    if not result.check(value == phi(1, a, mm, b)):
                        result.fail(f"left degree reduction fails at ({k},{a}),({mm},{b})")
                    if not result.check(value == phi(k, a, 1, pow(t, 1 - mm, n) * b % n)):
                        result.fail(f"right degree reduction fails at ({k},{a}),({mm},{b})")
                    if not result.check(
                        value
                        == phi(
                            mm,
                            pow(t, 1 - k, n) * b % n,
                            k,
                            (pow(t, mm, n) * a + (1 - t) * b) % n,
                        )
                    ):
                        result.fail(f"braided symmetry fails at ({k},{a}),({mm},{b})")
                    # closed four-letter form of the cocycle word
                    tk = pow(t, -k, n)
                    tb = pow(t, 1 - mm, n) * b
                    closed = word_eval(
                        Word._adopt(
                            params,
                            (
                                (0, -1),
                                (tk * a % n, 1),
                                (tk * tb % n, 1),
                                (tk * (t * a + tb) % n, -1),
                            ),
                        )
                    )
                    formula = extension_cocycle(params, (k, a), (mm, b)).v
                    if not result.check(closed.v == value == formula and closed.a == 0):
                        result.fail(f"closed cocycle form fails at ({k},{a}),({mm},{b})")

    # the commutator form lam(u, w) = phi((0, w), (0, u)) - phi((0, u), (0, w))
    degree_zero = table(0, 0)
    lam = [
        [tuple(map(sub, degree_zero[w][u], degree_zero[u][w])) for w in range(n)]
        for u in range(n)
    ]

    # degree-zero braiding, commutator form, and the two-letter shift
    for a in range(n):
        for b in range(n):
            p0 = phi(0, a, 0, b)
            if not result.check(p0 == phi(0, t * b % n, 0, (a + (1 - t) * b) % n)):
                result.fail(f"degree-zero braiding fails at ({a},{b})")
            lam_ab = lam[a][b]
            if not result.check(lam_ab == zero):
                result.fail(f"commutator form is nonzero at ({a},{b})")
            if not result.check(lam_ab == phi(0, (1 - t) * b % n, 0, a)):
                result.fail(f"commutator/cocycle link fails at ({a},{b})")
            if not result.check(
                phi(0, a, 0, (1 - t) * b % n)
                == tuple(-x for x in phi(0, (1 - t) * a % n, 0, t * b % n))
            ):
                result.fail(f"twisted transposition identity fails at ({a},{b})")
            # factorization e_a e_b = e_0 e_{ta+b} * phi((1,a),(1,b))
            left = word_eval(generator(params, a) * generator(params, b))
            base = word_eval(generator(params, 0) * generator(params, (t * a + b) % n))
            correction = phi(1, a, 1, b)
            if not result.check(
                left.v == tuple(x + y for x, y in zip(base.v, correction))
                and left.a == base.a
            ):
                result.fail(f"factorization through e_0 fails at ({a},{b})")
            for c in range(n):
                pairwise = tuple(map(add, lam_ab, lam[a][c]))
                if not result.check(lam[a][(b + c) % n] == pairwise):
                    result.fail(f"commutator form not additive on the right at ({a},{b},{c})")
                pairwise = tuple(map(add, lam[a][c], lam[b][c]))
                if not result.check(lam[(a + b) % n][c] == pairwise):
                    result.fail(f"commutator form not additive on the left at ({a},{b},{c})")
                shifted = word_eval(
                    generator(params, (a - (1 - t) * c) % n)
                    * generator(params, (b + (1 - t) * t * c) % n)
                )
                if not result.check(shifted == left):
                    result.fail(f"two-letter shift relation fails at ({a},{b},{c})")
    return result


def check_kernel_generation(params):
    """The cocycle values span exactly the degree-and-weight-zero lattice.

    Lattices A and B are equal iff A, B and A + B have equal invariant
    factors: A lies in A + B, and equal lists mean an equal rank and an
    equal index in the common saturation.
    """
    result = CheckResult("kernel-generation", {"n": params.n, "t": params.t})
    phi, n, m = _word_cocycle(params), params.n, params.num_orbits
    values = {phi((1, a), (1, b)).v for a in range(n) for b in range(n)}
    basis = {row.v for row in kernel_lattice_basis(params)}
    spanned, lattice, both = (
        invariant_factors(IntMatrix._adopt([list(v) for v in rows], m))
        for rows in (values, basis, values | basis)
    )
    if not result.check(spanned == lattice == both):
        result.fail(f"invariant factors: cocycle values {spanned}, kernel {lattice}, both {both}")
    return result


def check_h2_oracles(params):
    """The three homology routes agree; structural sanity of the answer."""
    result = CheckResult("h2-oracles", {"n": params.n, "t": params.t})
    m = params.num_orbits
    quandle = build_alexander(params)
    formula = h2_closed_form(params)
    eisermann = h2_eisermann(params)
    broken = None
    try:
        chain = h2_chain_complex(quandle)
    except NotAComplexError as exc:
        # every expectation on the chain answer fails, so the count holds
        chain, broken = None, f"chain complex route failed: {exc}"
    if not result.check(formula == eisermann):
        result.fail(f"formula {formula} != pullback {eisermann}")
    if not result.check(chain is not None and formula == chain):
        result.fail(broken if chain is None else f"formula {formula} != chain complex {chain}")
    if not result.check(chain is not None and chain.rank == m * (m - 1)):
        result.fail(
            broken if chain is None else f"free rank {chain.rank} != m(m-1) = {m * (m - 1)}"
        )
    if m == 1:
        if not result.check(
            chain is not None and chain == formula and chain.rank == 0 and not chain.torsion
        ):
            result.fail(broken if chain is None else "connected quandle has nontrivial homology")
    # NotAComplexError: d2 @ d3 != 0 on a block, or a term outside its block
    if not result.check(broken is None):
        result.fail(broken)
    return result


def check_smith_random(rng, samples=100, max_dim=12):
    """Random-matrix properties of the Smith form: chain, recomposition and
    unimodular transforms, certified by their inverses."""
    result = CheckResult(
        "smith-normal-form",
        {"samples": samples, "max_dim": max_dim, "entry_bound": SMITH_ENTRY_BOUND},
    )
    for _ in range(samples):
        rows = rng.randint(1, max_dim)
        cols = rng.randint(1, max_dim)
        matrix = IntMatrix(
            [
                [rng.randint(-SMITH_ENTRY_BOUND, SMITH_ENTRY_BOUND) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        snf = smith_normal_form(matrix, transforms=True)
        diag = snf.d.diagonal()
        if not result.check(all(e >= 0 for e in diag)):
            result.fail(f"negative diagonal for {matrix}")
        chain_ok = all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
        if not result.check(chain_ok):
            result.fail(f"divisibility chain broken for {matrix}")
        off_diag_zero = all(
            snf.d.data[i][j] == 0
            for i in range(rows)
            for j in range(cols)
            if i != j
        )
        if not result.check(off_diag_zero):
            result.fail(f"result not diagonal for {matrix}")
        # with v @ v_inv == I this is u @ m @ v == d, and d @ v_inv costs
        # only d's diagonal; u @ u_inv == I makes u unimodular
        if not result.check(snf.u @ matrix == snf.d @ snf.v_inv):
            result.fail(f"u @ m != d @ v_inv for {matrix}")
        if not result.check(
            snf.v @ snf.v_inv == IntMatrix.identity(cols)
            and snf.u @ snf.u_inv == IntMatrix.identity(rows)
        ):
            result.fail(f"v_inv or u_inv is wrong for {matrix}")
    return result


def run_verification(n_max, seed=2024, word_samples=150, rewrite_samples=60):
    """Full suite over every quandle with modulus up to n_max, plus matrix checks.

    Results are ordered by (n, t) with the global matrix check last; the
    expensive exhaustive sweeps are capped at the moduli they are specified
    for (weight/action at n <= 6, cocycle identities at n <= 8).  An n_max
    below 1 names no quandle and raises EmptyRangeError; a negative sample
    count raises NegativeCountError.
    """
    if n_max < 1:
        raise EmptyRangeError(f"n-max must be >= 1, got {n_max}")
    for flag, count in (("word-samples", word_samples), ("rewrite-samples", rewrite_samples)):
        if count < 0:
            raise NegativeCountError(f"{flag} must be >= 0, got {count}")
    results = []
    for params in unit_pairs(n_max):
        rng = random.Random(seed * 1000003 + params.n * 101 + params.t)
        results.append(check_quandle_structure(params))
        results.append(check_word_laws(params, rng, word_samples))
        if params.n <= 6:
            results.append(check_weight_action_exhaustive(params))
        results.append(check_central_power(params))
        results.append(check_rewriting(params, rng, rewrite_samples))
        if params.n <= 8:
            results.append(check_cocycle_identities(params))
        results.append(check_kernel_generation(params))
        results.append(check_h2_oracles(params))
    results.append(check_smith_random(random.Random(seed)))
    return results
