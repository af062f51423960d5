"""Second quandle homology by three independent routes.

* ``h2_chain_complex``: the direct definition, Ker/Im of the degree-2
  boundary pair of the quandle chain complex (the expensive oracle).
* ``h2_closed_form``: rank m(m-1) plus m copies of Z/gcd(m, n/m) for the
  linear quandle on Z/n with m orbits.
* ``h2_eisermann``: the orbit-stabilizer description, the pullback of
  Z^(m-1) and Ker(1-t) over Z/m raised to the m-th power, with one factor
  computed as the homology of a 1 x (m+1) chain pair.

All three must agree; the verification suite sweeps them against each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intlinalg import AbelianInvariants, IntMatrix, homology_invariants


@dataclass(frozen=True)
class BoundaryPair:
    """Degree-2 and degree-3 boundary matrices with their basis labels.

    Bases are the non-degenerate tuples (no two equal consecutive entries);
    degenerate tuples are identified with zero, which is the quandle
    quotient of the ambient rack complex.
    """

    d2: IntMatrix
    d3: IntMatrix
    basis1: tuple[int, ...]
    basis2: tuple[tuple[int, int], ...]
    basis3: tuple[tuple[int, int, int], ...]


def boundary_matrices(quandle):
    """Boundary maps d2(x,y) = (x) - (x<|y) and
    d3(x,y,z) = (x,z) - (x<|y, z) - (x,y) + (x<|z, y<|z).

    Terms that land on a degenerate pair are dropped.  The returned pair
    composes to zero.
    """
    n = quandle.n
    table = quandle.table
    basis2 = tuple((x, y) for x in range(n) for y in range(n) if x != y)
    basis3 = tuple(
        (x, y, z)
        for x in range(n)
        for y in range(n)
        if x != y
        for z in range(n)
        if y != z
    )

    d2 = [[0] * len(basis2) for _ in range(n)]
    for j, (x, y) in enumerate(basis2):
        d2[x][j] += 1
        d2[table[x][y]][j] -= 1

    # (a, b) with a != b sits at a*(n-1) + b - (b > a) in basis2; the
    # term (x, y) is never degenerate, since basis3 has x != y
    n1 = n - 1
    d3 = [[0] * len(basis3) for _ in range(len(basis2))]
    for j, (x, y, z) in enumerate(basis3):
        row_x = table[x]
        xy, xz, yz = row_x[y], row_x[z], table[y][z]  # x<|y, x<|z, y<|z
        if x != z:
            d3[x * n1 + z - (z > x)][j] += 1
        if xy != z:
            d3[xy * n1 + z - (z > xy)][j] -= 1
        d3[x * n1 + y - (y > x)][j] -= 1
        if xz != yz:
            d3[xz * n1 + yz - (yz > xz)][j] += 1

    return BoundaryPair(
        IntMatrix._adopt(d2, len(basis2)),
        IntMatrix._adopt(d3, len(basis3)),
        tuple(range(n)),
        basis2,
        basis3,
    )


def h2_chain_complex(quandle):
    """Second quandle homology straight from the chain complex.

    Exact; it serves as the oracle for the two closed routes.  d3 has
    n(n-1)^2 columns but at most 4 nonzeros in each.
    ``homology_invariants`` reads each matrix's nonzeros once, into sparse
    rows, and works only in those: the check d2 @ d3 == 0 forms no dense
    product, and both factorizations eliminate unit pivots from rows kept
    in length buckets.  Building the dense d3 and that one reading still
    touch all of its roughly n^5 entries; the pair is adopted as built,
    never copied.
    """
    pair = boundary_matrices(quandle)
    return homology_invariants(pair.d2, pair.d3)


def h2_closed_form(params):
    """Closed formula: Z^(m(m-1)) plus m copies of Z/gcd(m, n/m)."""
    n = params.n
    m = params.num_orbits
    g = math.gcd(m, n // m)
    torsion = (g,) * m if g >= 2 else ()
    return AbelianInvariants(m * (m - 1), torsion)


def h2_eisermann(params):
    """Homology via the stabilizer pullback, evaluated as a chain pair.

    One orbit contributes the pullback
        P = {(w, a) : w in Z^(m-1), a in Ker(1-t),
             sum r*w_r == a (mod m)},
    encoded as the lattice of (w, s) with sum r*w_r == (n/m)*s (mod m),
    taken modulo u = (0, ..., 0, m), i.e. s == s + m.

    Lift the congruence with a slack k: F(w, s, k) = sum r*w_r - (n/m)*s
    - m*k, the 1 x (m+1) row [1, 2, ..., m-1, -n/m, -m].  Dropping k maps
    Ker F onto P one-to-one, since m != 0 fixes k given (w, s), and it
    sends u' = (0, ..., 0, m, -n/m) to u, with F u' == 0.  So one factor
    is Ker F / <u'>, the homology of the pair (F, u'), and the homology is
    that factor raised to the m-th power.  At m = 1 the pair is [-n, -1]
    and (1, -n).
    """
    n = params.n
    m = params.num_orbits
    row = list(range(1, m)) + [-(n // m), -m]
    relation = [0] * (m - 1) + [m, -(n // m)]
    factor = homology_invariants(
        IntMatrix._adopt([row], m + 1),
        IntMatrix._adopt([[e] for e in relation], 1),
    )
    torsion = tuple(sorted(factor.torsion * m))
    return AbelianInvariants(factor.rank * m, torsion)
