"""The 2-cocycle measuring how far the canonical section is from a morphism.

The section s(k, a) = e_0^(k-1) e_a picks one word per (degree, weight)
pair.  Its defect phi(alpha, beta) = s(alpha) s(beta) s(alpha beta)^-1 is
a central PackedElement (v, 0).  For all degrees, with [x] = x mod m,

    phi((k, a), (l, b)) = e_[a] + e_[b] - e_[a+b] - e_0,

since the cocycle word equals e_0^-1 e_{t^-k a} e_{t^-k t^(1-l) b}
e_{t^-k (t a + t^(1-l) b)}^-1, e_x counts in orbit [x], and m = gcd(n, 1-t)
divides 1 - t: t == 1 mod m, so powers of t fix residues mod m.  checks.py
keeps the word route as the oracle.  The values span the kernel lattice.
The value depends only on the two weights, so the degree-zero table of
``phi-table`` is ``extension_cocycle(params, (0, a), (0, b))``.
"""

from .words import PackedElement


def extension_cocycle(params, alpha, beta):
    """phi(alpha, beta) for (degree, weight) pairs, from the closed form."""
    m = params.num_orbits
    a, b = alpha[1], beta[1]
    v = [0] * m
    v[a % m] += 1
    v[b % m] += 1
    v[(a + b) % m] -= 1
    v[0] -= 1
    return PackedElement._adopt(params, tuple(v), 0)


def kernel_lattice_basis(params):
    """Hermite basis of the kernel lattice, written down in closed form.

    The lattice is L = {v in Z^m : sum v = 0, sum r*v_r == 0 mod m}.  For
    m = 1 it is 0 and the basis is empty; for m >= 2 the rows are, in order,

        e_r + (r+1) e_(m-2) - (r+2) e_(m-1)    for r = 0, ..., m-3,
        m e_(m-2) - m e_(m-1),

    e.g. [[1, 1, -2], [0, 3, -3]] for m = 3, each returned as the kernel
    element (row, 0).  Each row has sum 0 and weight -m == 0, so it lies in
    L.  In the basis f_r = e_r - e_(m-1) of the sum-zero lattice H the rows
    read f_r + (r+1) f_(m-2) and m f_(m-2): triangular with diagonal
    (1, ..., 1, m), so they span a sublattice of index m in H.  The weight
    map H -> Z/m is onto (e_1 - e_0 has weight 1), so L has index m in H
    too, and the rows span L.  H is saturated and H / L is Z/m, so the
    invariant factors of the rows are 1 (m - 2 times) and m.  The lattice
    is spanned by the cocycle values; check_kernel_generation compares the
    two by their invariant factors.
    """
    m = params.num_orbits
    if m == 1:
        return []
    rows = [
        [int(j == r) for j in range(m - 2)] + [r + 1, -(r + 2)] for r in range(m - 2)
    ]
    rows.append([0] * (m - 2) + [m, -m])
    return [PackedElement._adopt(params, tuple(row), 0) for row in rows]
