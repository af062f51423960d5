"""Verification suites: algebraic identities, normal-form laws, oracle equality.

Each check function sweeps one family of properties for a fixed quandle
(or for random matrices) and reports how many individual comparisons ran
and which ones failed.  The CLI ``verify`` subcommand, the acceptance
tests and the unit tests all call these functions instead of sweeping the
same laws again by hand.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from .cocycle import extension_cocycle, kernel_lattice_basis
from .errors import EmptyRangeError, NegativeCountError, NotAComplexError
from .homology import h2_chain_complex, h2_closed_form, h2_eisermann
from .intlinalg import IntMatrix, hnf_rows, multiplicative_order, smith_normal_form
from .quandle import (
    LinearAlexanderParams,
    build_alexander,
    build_takasaki,
    find_violation,
    is_connected,
    orbits,
)
from .words import (
    PackedElement,
    Word,
    act,
    canonical_word,
    central_power_degree,
    degree_weight,
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

    def expect(self, ok, describe):
        self.checks += 1
        if not ok and len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append(describe() if callable(describe) else describe)


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
    return Word(
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
    result.expect(find_violation(quandle.table) is None, "constructor table fails axioms")
    m = params.num_orbits
    blocks = orbits(quandle)
    result.expect(len(blocks) == m, f"orbit count {len(blocks)} != gcd {m}")
    expected = [sorted(range(r, n, m)) for r in range(m)]
    result.expect(blocks == expected, f"orbits {blocks} are not the cosets of {m}Z/{n}")
    result.expect(
        is_connected(quandle) == (m == 1),
        "connectivity disagrees with gcd(n, 1-t) == 1",
    )
    if t == (n - 1) % n:
        result.expect(
            quandle == build_takasaki(n), "twist -1 table differs from the dihedral table"
        )
    return result


def check_word_laws(params, rng, samples=200):
    """Group laws of the packed representation on random words.

    Covers multiplicativity, the twisted weight law, injectivity of colors,
    the conjugation rule e_x g = g e_{x.g}, centrality of kernel elements,
    the central-element characterization, surjectivity of degree_weight,
    and the conjugation behavior of the section.
    """
    result = CheckResult("word-laws", {"n": params.n, "t": params.t})
    n, t = params.n, params.t

    packed_gens = [word_eval(generator(params, x)) for x in range(n)]
    result.expect(
        len(set(packed_gens)) == n, "color map x -> e_x is not injective"
    )

    for k in range(-5, 6):
        for a in range(n):
            f = degree_weight(section(params, k, a))
            result.expect(
                f == (k, a),
                lambda k=k, a=a, f=f: f"degree_weight(section({k},{a})) = {f}",
            )

    for _ in range(samples):
        w1 = _random_word(params, rng, 8)
        w2 = _random_word(params, rng, 8)
        p1, p2, p12 = word_eval(w1), word_eval(w2), word_eval(w1 * w2)
        result.expect(
            p12 == p1 * p2,
            lambda w1=w1, w2=w2: f"eval not multiplicative on {w1} | {w2}",
        )
        result.expect(
            p12.a == (pow(t, p2.degree, n) * p1.a + p2.a) % n,
            lambda w1=w1, w2=w2: f"weight law fails on {w1} | {w2}",
        )

        g, pg = w1, p1
        x = rng.randrange(n)
        lhs = word_eval(generator(params, x) * g)
        rhs = word_eval(g * generator(params, act(x, g)))
        result.expect(lhs == rhs, lambda g=g, x=x: f"conjugation rule fails on e{x}, {g}")

        result.expect(
            act(x, g) == _letter_walk(params, g.letters)[x],
            lambda g=g, x=x: f"action formula fails on {x}, {g}",
        )

        # central-element characterization
        central = pow(t, pg.degree, n) == 1 % n and (1 - t) * pg.a % n == 0
        fixes_all = all(act(z, g) == z for z in range(n))
        result.expect(
            central == fixes_all,
            lambda g=g: f"centrality criterion disagrees with the action on {g}",
        )
        if central:
            for z in range(n):
                result.expect(
                    word_eval(generator(params, z) * g)
                    == word_eval(g * generator(params, z)),
                    lambda g=g, z=z: f"central word {g} fails to commute with e{z}",
                )

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
        result.expect(
            lhs == rhs,
            lambda alpha=alpha, gamma=gamma: f"section conjugation fails on {alpha}, {gamma}",
        )

    # kernel elements are central: build words with zero degree and weight
    for element in kernel_lattice_basis(params):
        g = canonical_word(element)
        for z in range(n):
            result.expect(
                word_eval(generator(params, z) * g)
                == word_eval(g * generator(params, z)),
                lambda g=g, z=z: f"kernel word {g} fails to commute with e{z}",
            )
    return result


def check_weight_action_exhaustive(params):
    """Weight law on every factorization and action on every word of length <= 4.

    Words are walked shortest first, so every prefix and suffix of a word
    has already been evaluated once; the cuts read those values back.
    """
    result = CheckResult(
        "weight-action-exhaustive",
        {"n": params.n, "t": params.t, "max_len": WEIGHT_ACTION_MAX_LEN},
    )
    n, t = params.n, params.t
    alphabet = [(c, e) for c in range(n) for e in (1, -1)]
    values = {}
    for length in range(WEIGHT_ACTION_MAX_LEN + 1):
        for letters in itertools.product(alphabet, repeat=length):
            w = Word(params, letters)
            pw = values[letters] = word_eval(w)
            for cut in range(length + 1):
                p1, p2 = values[letters[:cut]], values[letters[cut:]]
                result.expect(
                    pw.a == (pow(t, p2.degree, n) * p1.a + p2.a) % n,
                    lambda w=w, cut=cut: f"weight law fails on {w} cut at {cut}",
                )
            for x, y in enumerate(_letter_walk(params, letters)):
                result.expect(
                    act(x, w) == y, lambda w=w, x=x: f"action formula fails on {x}, {w}"
                )
    return result


def check_central_power(params):
    """The central power degree equals the order of t, and is minimal."""
    result = CheckResult("central-power", {"n": params.n, "t": params.t})
    n = params.n
    d = central_power_degree(params)
    result.expect(
        d == multiplicative_order(params.t, n),
        f"central power degree {d} != order of t",
    )
    for x in range(n):
        power = generator(params, x, d)
        for y in range(n):
            result.expect(
                act(y, power) == y, f"e{x}^{d} does not fix {y}"
            )
            result.expect(
                word_eval(power * generator(params, y))
                == word_eval(generator(params, y) * power),
                f"e{x}^{d} does not commute with e{y}",
            )
    for smaller in range(1, d):
        witness = any(
            act(y, generator(params, x, smaller)) != y
            for x in range(n)
            for y in range(n)
        )
        result.expect(witness, f"e_x^{smaller} is already central for every x")
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
        block and c == act(a, Word(params, block))
        for c, _, a, block in _conjugate_splits(diff)
    )


def _is_central_power(params, diff):
    # moving e_r^k (d | k) across any word W to a letter e_c, c = r mod m
    d = central_power_degree(params)
    m = params.num_orbits
    return any(
        f % d == 0 and c % m == a % m for c, f, a, _ in _conjugate_splits(diff)
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
    same = word_eval(Word(params, new + _inverse(old)))
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
        result.expect(
            word_eval(cw) == packed, lambda w=w: f"canonical word of {w} evaluates differently"
        )
        result.expect(
            canonical_word(word_eval(cw)).letters == cw.letters,
            lambda w=w: f"canonical word of {w} is not a fixed point",
        )
        final, steps = rewrite_trace(w)
        result.expect(
            final.letters == cw.letters and _ends_at(w, final, steps),
            lambda w=w: f"rewriting of {w} disagrees with the canonical word",
        )
        for step, problem in _step_problems(w, steps):
            result.expect(
                word_eval(step.word) == packed and problem is None,
                lambda w=w, step=step, problem=problem: (
                    f"step {step.rule} of {w}: {problem or 'the value changed'}"
                ),
            )
        if cw.letters == w.letters:
            result.expect(
                steps == (), lambda w=w: f"canonical input {w} produced a nonempty trace"
            )
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
        assert packed.degree == 0 and packed.a == 0, "cocycle word left the kernel"
        return packed

    return phi


def cocycle_image_basis(params):
    """Hermite basis spanned by the word-route values phi((1, a), (1, b)).

    It should equal kernel_lattice_basis: the cocycle generates the kernel.
    """
    phi, n = _word_cocycle(params), params.n
    vectors = [phi((1, a), (1, b)).v for a in range(n) for b in range(n)]
    return [PackedElement(params, row, 0) for row in hnf_rows(vectors, params.num_orbits)]


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
    # raw value tuples, memoized for the sweeps and freed when this returns
    @functools.cache
    def phi(k, a, mm, b):
        return word_phi((k, a), (mm, b)).v

    degrees = range(-COCYCLE_DEGREE_SPAN, COCYCLE_DEGREE_SPAN + 1)
    zero = (0,) * params_m

    # group 2-cocycle identity
    for k in degrees:
        for mm in degrees:
            for p in degrees:
                for a in range(n):
                    for b in range(n):
                        for c in range(n):
                            bc = phi(mm, b, p, c)
                            ab_c = phi(k + mm, (pow(t, mm, n) * a + b) % n, p, c)
                            a_bc = phi(k, a, mm + p, (pow(t, p, n) * b + c) % n)
                            ab = phi(k, a, mm, b)
                            ok = all(
                                bc[i] - ab_c[i] + a_bc[i] - ab[i] == 0
                                for i in range(params_m)
                            )
                            result.expect(
                                ok,
                                lambda k=k, a=a, mm=mm, b=b, p=p, c=c: (
                                    f"cocycle identity fails at ({k},{a}),({mm},{b}),({p},{c})"
                                ),
                            )

    for k in degrees:
        for mm in degrees:
            for a in range(n):
                result.expect(
                    phi(k, a, mm, 0) == zero, f"phi(({k},{a}),({mm},0)) != 0"
                )
                result.expect(
                    phi(k, 0, mm, a) == zero, f"phi(({k},0),({mm},{a})) != 0"
                )
            for a in range(n):
                for b in range(n):
                    value = phi(k, a, mm, b)
                    result.expect(
                        value == phi(k, t * a % n, mm, t * b % n),
                        f"twist invariance fails at ({k},{a}),({mm},{b})",
                    )
                    result.expect(
                        value == phi(1, a, mm, b),
                        f"left degree reduction fails at ({k},{a}),({mm},{b})",
                    )
                    result.expect(
                        value == phi(k, a, 1, pow(t, 1 - mm, n) * b % n),
                        f"right degree reduction fails at ({k},{a}),({mm},{b})",
                    )
                    result.expect(
                        value
                        == phi(
                            mm,
                            pow(t, 1 - k, n) * b % n,
                            k,
                            (pow(t, mm, n) * a + (1 - t) * b) % n,
                        ),
                        f"braided symmetry fails at ({k},{a}),({mm},{b})",
                    )
                    # closed four-letter form of the cocycle word
                    tk = pow(t, -k, n)
                    tb = pow(t, 1 - mm, n) * b
                    closed = word_eval(
                        Word(
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
                    result.expect(
                        closed.v == value == formula and closed.a == 0,
                        f"closed cocycle form fails at ({k},{a}),({mm},{b})",
                    )

    def lam_of(u, w):
        return tuple(x - y for x, y in zip(phi(0, w, 0, u), phi(0, u, 0, w)))

    # degree-zero braiding, commutator form, and the two-letter shift
    for a in range(n):
        for b in range(n):
            p0 = phi(0, a, 0, b)
            result.expect(
                p0 == phi(0, t * b % n, 0, (a + (1 - t) * b) % n),
                f"degree-zero braiding fails at ({a},{b})",
            )
            lam = lam_of(a, b)
            result.expect(lam == zero, f"commutator form is nonzero at ({a},{b})")
            result.expect(
                lam == phi(0, (1 - t) * b % n, 0, a),
                f"commutator/cocycle link fails at ({a},{b})",
            )
            result.expect(
                phi(0, a, 0, (1 - t) * b % n)
                == tuple(-x for x in phi(0, (1 - t) * a % n, 0, t * b % n)),
                f"twisted transposition identity fails at ({a},{b})",
            )
            # factorization e_a e_b = e_0 e_{ta+b} * phi((1,a),(1,b))
            left = word_eval(generator(params, a) * generator(params, b))
            base = word_eval(generator(params, 0) * generator(params, (t * a + b) % n))
            correction = phi(1, a, 1, b)
            result.expect(
                left.v == tuple(x + y for x, y in zip(base.v, correction))
                and left.a == base.a,
                f"factorization through e_0 fails at ({a},{b})",
            )
            for c in range(n):
                pairwise = tuple(x + y for x, y in zip(lam_of(a, b), lam_of(a, c)))
                result.expect(
                    lam_of(a, (b + c) % n) == pairwise,
                    f"commutator form not additive on the right at ({a},{b},{c})",
                )
                pairwise = tuple(x + y for x, y in zip(lam_of(a, c), lam_of(b, c)))
                result.expect(
                    lam_of((a + b) % n, c) == pairwise,
                    f"commutator form not additive on the left at ({a},{b},{c})",
                )
                shifted = word_eval(
                    generator(params, (a - (1 - t) * c) % n)
                    * generator(params, (b + (1 - t) * t * c) % n)
                )
                result.expect(
                    shifted == left,
                    f"two-letter shift relation fails at ({a},{b},{c})",
                )
    return result


def check_kernel_generation(params):
    """The cocycle values span exactly the degree-and-weight-zero lattice."""
    result = CheckResult("kernel-generation", {"n": params.n, "t": params.t})
    spanned = [list(row.v) for row in cocycle_image_basis(params)]
    lattice = [list(row.v) for row in kernel_lattice_basis(params)]
    result.expect(
        spanned == lattice,
        f"cocycle image lattice {spanned} != kernel lattice {lattice}",
    )
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
    result.expect(
        formula == eisermann,
        f"formula {formula} != pullback {eisermann}",
    )
    result.expect(
        chain is not None and formula == chain,
        lambda: broken if chain is None else f"formula {formula} != chain complex {chain}",
    )
    result.expect(
        chain is not None and chain.rank == m * (m - 1),
        lambda: broken if chain is None else f"free rank {chain.rank} != m(m-1) = {m * (m - 1)}",
    )
    if m == 1:
        result.expect(
            chain is not None
            and chain == formula
            and chain.rank == 0
            and not chain.torsion,
            lambda: broken if chain is None else "connected quandle has nontrivial homology",
        )
    # h2_chain_complex raises NotAComplexError exactly when d2 @ d3 != 0
    result.expect(broken is None, "d2 @ d3 != 0")
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
        result.expect(
            all(e >= 0 for e in diag), lambda m=matrix: f"negative diagonal for {m}"
        )
        chain_ok = all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
        result.expect(chain_ok, lambda m=matrix: f"divisibility chain broken for {m}")
        off_diag_zero = all(
            snf.d.data[i][j] == 0
            for i in range(rows)
            for j in range(cols)
            if i != j
        )
        result.expect(off_diag_zero, lambda m=matrix: f"result not diagonal for {m}")
        # with v @ v_inv == I this is u @ m @ v == d, and d @ v_inv costs
        # only d's diagonal; u @ u_inv == I makes u unimodular
        result.expect(
            snf.u @ matrix == snf.d @ snf.v_inv,
            lambda m=matrix: f"u @ m != d @ v_inv for {m}",
        )
        result.expect(
            snf.v @ snf.v_inv == IntMatrix.identity(cols)
            and snf.u @ snf.u_inv == IntMatrix.identity(rows),
            lambda m=matrix: f"v_inv or u_inv is wrong for {m}",
        )
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
