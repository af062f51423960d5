"""Second quandle homology by three independent routes.

* ``h2_chain_complex``: the direct definition, Ker/Im of the degree-2
  boundary pair of the quandle chain complex (the expensive oracle),
  eliminated one orbit block at a time from sparse rows.
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

from .errors import NotAComplexError
from .intlinalg import AbelianInvariants, IntMatrix, _homology
from .intlinalg import homology_invariants, invariant_factors
from .quandle import orbits


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


def _boundary_blocks(quandle):
    """(block, d2 rows, d3 rows) for each block of ``orbits(quandle)``.

    Every term of d2(x, y) and d3(x, y, z) starts in the orbit of x, so
    both maps are block diagonal.  Rows are {column: entry} dicts over the
    bases of ``boundary_matrices`` cut to the block: with i the place of a
    in it, the pair (a, b) is i*(n-1) + b - (b > a), the triple (x, y, z)
    is pair(x, y)*(n-1) + z - (z > y).  Cancelling terms are dropped; by
    the quandle axioms the rest of a column are distinct, each +-1.  A
    term that starts outside its block raises NotAComplexError.
    """
    n = quandle.n
    n1 = n - 1
    table = quandle.table
    for block in orbits(quandle):
        place = {x: i for i, x in enumerate(block)}
        d2 = [{} for _ in block]
        d3 = [{} for _ in range(len(block) * n1)]
        try:
            for i, x in enumerate(block):
                row_x = table[x]
                first = i * n1
                for y in range(n):
                    if y == x:
                        continue
                    pair = first + y - (y > x)
                    xy, row_y = row_x[y], table[y]
                    moved = xy != x  # else (x, z) and (x<|y, z) cancel
                    if moved:
                        d2[i][pair] = 1
                        d2[place[xy]][pair] = -1
                        first_xy = place[xy] * n1
                    col = pair * n1
                    for z in range(n):
                        if z == y:
                            continue
                        if moved and z != x:
                            d3[first + z - (z > x)][col] = 1
                        if moved and z != xy:
                            d3[first_xy + z - (z > xy)][col] = -1
                        xz, yz = row_x[z], row_y[z]
                        if xz != x or yz != y:
                            d3[pair][col] = -1
                            if xz != yz:
                                d3[place[xz] * n1 + yz - (yz > xz)][col] = 1
                        col += 1
        except KeyError as exc:
            a = exc.args[0]
            raise NotAComplexError(f"a term starts at {a}, outside its block {block}") from None
        yield block, d2, d3


def boundary_matrices(quandle):
    """Boundary maps d2(x,y) = (x) - (x<|y) and
    d3(x,y,z) = (x,z) - (x<|y, z) - (x,y) + (x<|z, y<|z).

    Terms that land on a degenerate pair are dropped.  The returned pair
    composes to zero.  It is the dense view of the chain route's blocks.
    """
    n = quandle.n
    n1 = n - 1
    basis2 = tuple((x, y) for x in range(n) for y in range(n) if x != y)
    basis3 = tuple((x, y, z) for x, y in basis2 for z in range(n) if y != z)
    d2 = [[0] * len(basis2) for _ in range(n)]
    d3 = [[0] * len(basis3) for _ in basis2]
    for block, low, high in _boundary_blocks(quandle):
        # the block's pair i*n1 + r is the pair block[i]*n1 + r of basis2
        pairs = [x * n1 + r for x in block for r in range(n1)]
        for x, row in zip(block, low):
            for j, e in row.items():
                d2[x][pairs[j]] = e
        for i, row in zip(pairs, high):
            for j, e in row.items():
                d3[i][pairs[j // n1] * n1 + j % n1] = e
    d2, d3 = IntMatrix._adopt(d2, len(basis2)), IntMatrix._adopt(d3, len(basis3))
    return BoundaryPair(d2, d3, tuple(range(n)), basis2, basis3)


def h2_chain_complex(quandle):
    """Second quandle homology straight from the chain complex.

    Exact; it serves as the oracle for the two closed routes.  Each orbit
    block of the table is checked (d2 @ d3 == 0) and eliminated on its own
    sparse rows, about 4 n^3 nonzeros in all.  Ranks add over the blocks,
    and their torsion is merged into invariant factors, so the blocks are
    never assumed isomorphic.
    """
    rank = 0
    torsion = []
    for _, d2, d3 in _boundary_blocks(quandle):
        part = _homology(d2, d3, len(d3))
        rank += part.rank
        torsion += part.torsion
    diagonal = [[t * (i == j) for j in range(len(torsion))] for i, t in enumerate(torsion)]
    factors = invariant_factors(IntMatrix._adopt(diagonal, len(torsion)))
    return AbelianInvariants(rank, tuple(f for f in factors if f >= 2))


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
