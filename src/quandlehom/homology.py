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

import math

from .errors import NotAComplexError
from .intlinalg import AbelianInvariants, IntMatrix, _homology
from .intlinalg import homology_invariants, invariant_factors
from .quandle import orbits


def _boundary_blocks(quandle):
    """(block, d2 rows, d3 rows) for each block of ``orbits(quandle)``.

    The boundary maps are d2(x, y) = (x) - (x<|y) and
    d3(x, y, z) = (x, z) - (x<|y, z) - (x, y) + (x<|z, y<|z) on the
    non-degenerate tuples: pairs (a, b) with a != b, and triples (x, y, z)
    with (x, y) such a pair and y != z.  A term on a degenerate pair is
    zero, which is the quandle quotient of the rack complex.  Every term of
    d2(x, y) and d3(x, y, z) starts in the orbit of x, so both maps are
    block diagonal.  A block's bases are its points and the pairs and
    triples whose first entry lies in it: with i the place of a in the
    block, the pair (a, b) is i*(n-1) + b - (b > a), the triple (x, y, z)
    is pair(x, y)*(n-1) + z - (z > y).  Rows are {column: entry} dicts,
    a d2 row for each point, a d3 row for each pair.  Cancelling terms are
    dropped; by the quandle axioms the rest of a column are distinct, each
    +-1.  A term that starts outside its block raises NotAComplexError.
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
        part = _homology(d2, d3)
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
