"""The 2-cocycle measuring how far the canonical section is from a morphism.

The section s(k, a) = e_0^(k-1) e_a picks one word per (degree, weight)
pair.  Its defect phi(alpha, beta) = s(alpha) s(beta) s(alpha beta)^-1
lands in the central kernel of degree_weight: a PackedElement (v, 0) of
degree 0, on which the package's one semidirect law is plain addition of
the vectors v.  Those values generate the whole kernel, whose Hermite basis
``kernel_lattice_basis`` writes down in closed form.  Arguments are plain
(degree, weight) int pairs.
"""

from __future__ import annotations

from .intlinalg import hnf_rows
from .words import PackedElement, section, word_eval


def extension_cocycle(params, alpha, beta):
    """phi(alpha, beta) = s(alpha) s(beta) s(alpha*beta)^-1 as a PackedElement.

    alpha and beta are (degree, weight) pairs.  The word
    e_0^(k-1) e_a e_0^(m-1) e_b e_{t^m a + b}^-1 e_0^(1-k-m) is evaluated as
    the product of its three sections' PackedElements, alpha*beta being the
    degree collapse of the first two.  It always has degree 0 and weight 0,
    so it is (v, 0) with v its abelianization.
    """
    product = word_eval(section(params, *alpha)) * word_eval(section(params, *beta))
    packed = product * word_eval(section(params, product.degree, product.a)).inverse()
    assert packed.degree == 0 and packed.a == 0, "cocycle word left the kernel"
    return packed


def degree_zero_cocycle(params, a, b):
    """The cocycle restricted to degree zero: phi((0, a), (0, b))."""
    return extension_cocycle(params, (0, a), (0, b))


def commutator_form(params, x, y):
    """The commutator pairing phi0(y, x) phi0(x, y)^-1, i.e. v(y, x) - v(x, y).

    It equals the class of [e_0^-1 e_y, e_0^-1 e_x] and is bi-additive;
    over Z/n it vanishes identically, which is what collapses the two-letter
    shift relation used in the rewriting.
    """
    return degree_zero_cocycle(params, y, x) * degree_zero_cocycle(params, x, y).inverse()


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
    too, and the rows span L.  They are already in the form hnf_rows
    returns: positive pivots, and r+1 in [0, m) above the pivot m, so equal
    lattices give equal lists.  The lattice has rank m - 1 and is spanned
    by the cocycle values; check_kernel_generation compares the two bases.
    """
    m = params.num_orbits
    if m == 1:
        return []
    rows = [
        [int(j == r) for j in range(m - 2)] + [r + 1, -(r + 2)] for r in range(m - 2)
    ]
    rows.append([0] * (m - 2) + [m, -m])
    return [PackedElement(params, row, 0) for row in rows]


def cocycle_image_basis(params):
    """Canonical basis of the lattice spanned by all degree-1 cocycle values.

    Spanning vectors are phi((1, a), (1, b)) for all colors a, b; the
    result should coincide with kernel_lattice_basis, which is the
    generation statement for the kernel.
    """
    n = params.n
    vectors = []
    for a in range(n):
        for b in range(n):
            value = extension_cocycle(params, (1, a), (1, b))
            if any(value.v):
                vectors.append(list(value.v))
    basis = hnf_rows(vectors, params.num_orbits)
    return [PackedElement(params, row, 0) for row in basis]
