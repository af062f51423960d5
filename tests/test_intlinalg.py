import dataclasses
import itertools
import math
import random

import pytest

from quandlehom import checks, intlinalg
from quandlehom.errors import (
    NotAComplexError,
    NotAUnitError,
    ShapeMismatchError,
)
from quandlehom.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    homology_invariants,
    invariant_factors,
    multiplicative_order,
    smith_normal_form,
)


def brute_order(t, n):
    # independent oracle: enumerate powers until the identity reappears
    x = t % n
    for d in range(1, n + 1):
        if x == 1 % n:
            return d
        x = x * t % n
    raise AssertionError("no order found")


def test_multiplicative_order_examples():
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(3, 4) == 2
    assert multiplicative_order(2, 7) == 3  # powers 2, 4, 8 == 1
    assert multiplicative_order(0, 1) == 1


def test_multiplicative_order_matches_enumeration():
    for n in range(1, 21):
        for t in range(n):
            if math.gcd(t, n) == 1:
                assert multiplicative_order(t, n) == brute_order(t, n)


def test_multiplicative_order_rejects_non_units():
    with pytest.raises(NotAUnitError):
        multiplicative_order(2, 4)
    with pytest.raises(NotAUnitError):
        multiplicative_order(3, 0)


def test_matrix_basics():
    source = [[1, 2], [3, 4]]
    m = IntMatrix(source)
    assert m.shape == (2, 2)
    assert m.data == [[1, 2], [3, 4]]
    assert m @ IntMatrix.identity(2) == m
    assert IntMatrix.zeros(2, 3).data == [[0, 0, 0], [0, 0, 0]]
    # data from outside is copied: later edits of the source do not leak in
    source[1][0] = 7
    source.append([5, 6])
    assert m.data == [[1, 2], [3, 4]] and m.shape == (2, 2)
    assert IntMatrix([]).shape == (0, 0)
    assert IntMatrix.zeros(0, 4).shape == (0, 4)
    with pytest.raises(ShapeMismatchError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ShapeMismatchError):
        IntMatrix([[], [1]])
    with pytest.raises(ShapeMismatchError):
        m @ IntMatrix.identity(3)
    for entry in (1.5, 2.0, True, "3"):
        with pytest.raises(TypeError):
            IntMatrix([[1, entry]])


def _product_by_loops(left, right, cols):
    # independent oracle: the textbook triple loop
    return [
        [sum(row[k] * right[k][j] for k in range(len(right))) for j in range(cols)]
        for row in left
    ]


def test_matmul_matches_triple_loop():
    # about a third each of all-zero, 10% dense and dense factors, with
    # 0 x k and k x 0 shapes among them
    rng = random.Random(11)
    for sample in range(200):
        rows, inner, cols = (rng.randint(0, 6) for _ in range(3))
        density = (0.0, 0.1, 1.0)[sample % 3]

        def draw(r, c):
            data = [
                [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)
            ]
            return data, IntMatrix(data) if r else IntMatrix.zeros(0, c)

        left, a = draw(rows, inner)
        right, b = draw(inner, cols)
        product = a @ b
        assert product.shape == (rows, cols)
        assert product.data == _product_by_loops(left, right, cols)
        if cols != rows:
            with pytest.raises(ShapeMismatchError):
                b @ a


def test_snf_trivial_cases():
    eye = IntMatrix.identity(2)
    assert smith_normal_form(eye).d == eye
    zero = IntMatrix.zeros(3, 2)
    assert smith_normal_form(zero).d == zero
    assert smith_normal_form(IntMatrix.zeros(0, 4)).d == IntMatrix.zeros(0, 4)


def test_snf_worked_example():
    # by hand: R2 - 3 R1 then C2 - 2 C1 gives diag(2, -4); signs normalize
    snf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]), transforms=True)
    assert snf.d == IntMatrix([[2, 0], [0, 4]])
    assert snf.u @ IntMatrix([[2, 4], [6, 8]]) @ snf.v == snf.d


@pytest.mark.parametrize("forgery", ["zero-transform", "dropped-factor"])
def test_smith_check_rejects_forged_forms(monkeypatch, forgery):
    # both forgeries pass chain, diagonal and u @ m @ v == d; only a
    # certificate that u is unimodular can tell them from the true form
    def forged(matrix, transforms=False):
        true = smith_normal_form(matrix, transforms)
        rows, cols = matrix.shape
        if forgery == "zero-transform":
            return dataclasses.replace(
                true,
                d=IntMatrix.zeros(rows, cols),
                u=IntMatrix.zeros(rows, rows),
                v=IntMatrix.identity(cols),
                v_inv=IntMatrix.identity(cols),
            )
        last = max((i for i, e in enumerate(true.d.diagonal()) if e), default=None)
        d, u = IntMatrix(true.d.data), IntMatrix(true.u.data)
        if last is not None:
            d.data[last][last] = 0
            u.data[last] = [0] * rows
        return dataclasses.replace(true, d=d, u=u)

    monkeypatch.setattr(checks, "smith_normal_form", forged)
    result = checks.check_smith_random(random.Random(2024))
    assert result.checks == 500
    assert not result.passed


def test_invariant_factors():
    assert invariant_factors(IntMatrix([[2, 4], [6, 8]])) == [2, 4]
    assert invariant_factors(IntMatrix.zeros(3, 3)) == []
    assert invariant_factors(IntMatrix.zeros(0, 4)) == []


@pytest.mark.parametrize(
    "matrix",
    [
        IntMatrix([[0, 1, 0, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 0, 1, 0]]),
        IntMatrix([[1, 2], [3, 7]]),  # unimodular: the elimination empties it
        IntMatrix.zeros(0, 4),
        IntMatrix.zeros(4, 0),
    ],
)
def test_invariant_factors_without_a_core(matrix, monkeypatch):
    expected = [e for e in smith_normal_form(matrix).d.diagonal() if e]

    def no_core(core, transforms=False):
        raise AssertionError(f"handed a {core.rows}x{core.cols} core")

    monkeypatch.setattr(intlinalg, "smith_normal_form", no_core)
    assert invariant_factors(matrix) == expected


def _determinant(rows):
    # cofactor expansion along the first row
    if not rows:
        return 1
    return sum(
        (-1) ** j * e * _determinant([row[:j] + row[j + 1:] for row in rows[1:]])
        for j, e in enumerate(rows[0])
        if e
    )


def _determinantal_factors(m):
    # independent oracle: d_k = D_k / D_(k-1), D_k the gcd of all k x k minors
    factors = []
    previous = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        divisor = 0
        for rows in itertools.combinations(m.data, k):
            for cols in itertools.combinations(range(m.cols), k):
                minor = [[row[j] for j in cols] for row in rows]
                divisor = math.gcd(divisor, _determinant(minor))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


@pytest.mark.parametrize(
    "entries",
    [
        (-1, 0, 0, 1),  # mostly units: the sparse elimination does the work
        (-1, 0, 1, 2, 3),  # units and non-units: elimination plus a core
        (-6, -4, -2, 0, 2, 4, 6),  # no units: all of it is the dense core
        (-9, -3, 0, 3, 6, 12),
    ],
)
def test_invariant_factors_match_determinantal_divisors(entries):
    rng = random.Random(sum(entries) * 1009 + len(entries))
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix(
            [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        )
        assert invariant_factors(m) == _determinantal_factors(m), m


def _sparse_with_factors(rng, rows, cols):
    # a diagonal with a known divisibility chain (mostly 1s, some larger
    # factors, then zeros), scattered by swaps and a few +-1 row and column
    # additions: the result stays sparse and rich in unit entries
    rank = rng.randint(min(rows, cols) // 2, min(rows, cols))
    factors = [1] * rank
    for i in range(rank - rng.randint(0, min(3, rank)), rank):
        factors[i] = (factors[i - 1] if i else 1) * rng.choice((1, 2, 3))
    data = [[0] * cols for _ in range(rows)]
    for i, f in enumerate(factors):
        data[i][i] = rng.choice((-1, 1)) * f
    for _ in range(rows + cols):
        a, b = rng.randrange(rows), rng.randrange(rows)
        data[a], data[b] = data[b], data[a]
        if a != b and rng.random() < 0.4:
            s = rng.choice((-1, 1))
            data[a] = [x + s * y for x, y in zip(data[a], data[b])]
        a, b = rng.randrange(cols), rng.randrange(cols)
        s = rng.choice((-1, 1)) if a != b and rng.random() < 0.4 else 0
        for row in data:
            row[a], row[b] = row[b], row[a]
            row[a] += s * row[b]
    return IntMatrix(data), factors


def test_invariant_factors_match_smith_on_sparse_matrices():
    # matrices up to 24 x 60 and their transposed shapes with a known Smith
    # form: the elimination picks among many unit pivots, fills in, moves
    # rows between length buckets and often leaves a core with factors >= 2
    rng = random.Random(2001)
    with_core = 0
    for sample in range(60):
        rows, cols = rng.randint(1, 24), rng.randint(1, 60)
        if sample % 2:
            rows, cols = cols, rows
        m, factors = _sparse_with_factors(rng, rows, cols)
        assert [e for e in smith_normal_form(m).d.diagonal() if e] == factors
        assert invariant_factors(m) == factors, m
        with_core += factors[-1:] > [1]
    assert with_core >= 20


def test_abelian_invariants_validation():
    AbelianInvariants(2, (2, 4))
    with pytest.raises(ValueError):
        AbelianInvariants(-1)
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 2))
    assert str(AbelianInvariants(0)) == "0"
    assert str(AbelianInvariants(1, (3,))) == "Z + Z/3"


def test_homology_invariants_examples():
    k = 4
    zero_low = IntMatrix.zeros(1, k)
    zero_high = IntMatrix.zeros(k, 1)
    assert homology_invariants(zero_low, zero_high) == AbelianInvariants(k)
    assert homology_invariants(
        IntMatrix.zeros(1, 1), IntMatrix([[2]])
    ) == AbelianInvariants(0, (2,))
    # Ker = <(1,1,0), (0,0,1)>, Im = <(2,2,0)>: d_high has no unit entry,
    # so its invariant factor comes from the dense core
    assert homology_invariants(
        IntMatrix([[1, -1, 0]]), IntMatrix([[2], [2], [0]])
    ) == AbelianInvariants(1, (2,))
    # the unit pivot leaves the core column (4, 2) behind; d_low = 0, so
    # the free rank is 3 - 0 - 2 = 1 and the factors of d_high are 1, 2
    assert homology_invariants(
        IntMatrix.zeros(1, 3), IntMatrix([[1, 1], [0, 4], [0, 2]])
    ) == AbelianInvariants(1, (2,))


def test_homology_invariants_errors():
    with pytest.raises(ShapeMismatchError, match=r"cannot multiply \(1, 2\) by \(3, 1\)"):
        homology_invariants(IntMatrix.zeros(1, 2), IntMatrix.zeros(3, 1))
    with pytest.raises(NotAComplexError):
        homology_invariants(IntMatrix([[1, 0]]), IntMatrix([[1], [0]]))


def _random_complex(rng):
    # d_low = P D_low Q and d_high = Q^-1 D_high R, where D_low and D_high
    # have disjoint diagonal supports in the middle degree, so the pair is
    # a complex whatever the unimodular P, Q, R
    a, b, c = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 6)
    r1 = rng.randint(0, min(a, b))
    r2 = rng.randint(0, min(b - r1, c))
    d_low, d_high = IntMatrix.zeros(a, b), IntMatrix.zeros(b, c)
    for i in range(r1):
        d_low.data[i][i] = rng.choice([-2, -1, 1, 3])
    for i in range(r2):
        d_high.data[r1 + i][i] = rng.choice([-2, -1, 1, 2, 4])
    p, _ = _random_unimodular(a, rng, ops=4)
    q, q_inv = _random_unimodular(b, rng, ops=4)
    r, _ = _random_unimodular(c, rng, ops=4)
    return p @ d_low @ q, q_inv @ d_high @ r


def test_homology_invariants_complex_check():
    # NotAComplexError exactly when d_low @ d_high has a nonzero entry:
    # true complexes, the same pairs with one entry of d_high bumped, and
    # 0 x k and k x 0 factors, whose product is empty
    rng = random.Random(15)
    pairs = []
    for _ in range(80):
        d_low, d_high = _random_complex(rng)
        bumped = IntMatrix(d_high.data)
        bumped.data[rng.randrange(bumped.rows)][rng.randrange(bumped.cols)] += rng.choice([-1, 1, 2])
        pairs += [(d_low, d_high), (d_low, bumped)]
    for _ in range(20):
        k = rng.randint(0, 3)
        pairs.append((IntMatrix.zeros(0, k), IntMatrix([[rng.randint(-2, 2)] for _ in range(k)])))
        pairs.append((IntMatrix([[rng.randint(-2, 2) for _ in range(k)]]), IntMatrix.zeros(k, 0)))
    raised = 0
    for d_low, d_high in pairs:
        if any(map(any, (d_low @ d_high).data)):
            with pytest.raises(NotAComplexError, match="d_low @ d_high is nonzero"):
                homology_invariants(d_low, d_high)
            raised += 1
        else:
            assert isinstance(homology_invariants(d_low, d_high), AbelianInvariants)
    assert raised >= 30  # a bump breaks the complex about half the time


def _random_unimodular(size, rng, ops=20):
    # a product of elementary row operations, and its inverse: the same
    # operations undone in reverse order
    steps = []
    for _ in range(ops):
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            steps.append((i, j, rng.randint(-2, 2)))

    def apply(ordered, sign):
        m = [[int(i == j) for j in range(size)] for i in range(size)]
        for i, j, q in ordered:
            for col in range(size):
                m[i][col] += sign * q * m[j][col]
        return IntMatrix(m)

    return apply(steps, 1), apply(steps[::-1], -1)


def test_homology_invariants_basis_independent():
    # a complex with known homology: d_low is diagonal on the first r1
    # columns, d_high on the next r2 rows, so Ker/Im = Z^(b - r1 - r2) plus
    # Z/|f| for the d_high factors f, chosen as a divisibility chain.
    # Changing bases of all three degrees consistently keeps the answer.
    rng = random.Random(7)
    for _ in range(25):
        a = rng.randint(1, 4)
        b = rng.randint(1, 5)
        r1 = rng.randint(0, min(a, b))
        r2 = rng.randint(0, b - r1)
        c = rng.randint(max(r2, 1), r2 + 2)
        d_low = IntMatrix.zeros(a, b)
        for i in range(r1):
            d_low.data[i][i] = rng.choice([-3, -2, -1, 1, 2, 3])
        factors = []
        for _ in range(r2):
            previous = abs(factors[-1]) if factors else 1
            factors.append(rng.choice([-1, 1]) * previous * rng.randint(1, 3))
        d_high = IntMatrix.zeros(b, c)
        for i, f in enumerate(factors):
            d_high.data[r1 + i][i] = f
        known = AbelianInvariants(
            b - r1 - r2, tuple(abs(f) for f in factors if abs(f) >= 2)
        )
        reference = homology_invariants(d_low, d_high)
        assert reference == known
        p, _ = _random_unimodular(a, rng)
        q, q_inv = _random_unimodular(b, rng)
        r, _ = _random_unimodular(c, rng)
        assert q @ q_inv == IntMatrix.identity(b)
        transformed = homology_invariants(p @ d_low @ q, q_inv @ d_high @ r)
        assert transformed == reference
