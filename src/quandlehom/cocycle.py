"""The 2-cocycle measuring how far the canonical section is from a morphism.

The section s(k, a) = e_0^(k-1) e_a picks one word per (degree, weight)
pair.  Its defect phi(alpha, beta) = s(alpha) s(beta) s(alpha beta)^-1
lands in the central kernel of degree_weight, so it is captured completely
by its abelianization vector; those vectors generate the whole kernel.
Arguments are plain (degree, weight) int pairs; their product is taken as
PackedElements, whose multiplication is the package's one semidirect law.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthMismatchError
from .intlinalg import congruence_kernel_basis, hnf_rows
from .quandle import LinearAlexanderParams
from .words import section, word_eval


@dataclass(frozen=True)
class KernelVector:
    """Element of the kernel of degree_weight, as its abelianization vector.

    Entries sum to zero (degree zero) and satisfy sum(r * v_r) == 0 mod m
    (weight zero); the central kernel embeds faithfully this way, so
    componentwise arithmetic is the group law.
    """

    params: LinearAlexanderParams
    v: tuple[int, ...]

    def __post_init__(self):
        m = self.params.num_orbits
        v = tuple(int(x) for x in self.v)
        if len(v) != m:
            raise LengthMismatchError(f"vector has {len(v)} entries, expected {m}")
        if sum(v) != 0:
            raise ValueError(f"{v} has nonzero degree")
        if sum(r * x for r, x in enumerate(v)) % m:
            raise ValueError(f"{v} has nonzero weight modulo {m}")
        object.__setattr__(self, "v", v)

    def __add__(self, other):
        if self.params != other.params:
            raise ValueError("vectors from different quandles")
        return KernelVector(self.params, tuple(x + y for x, y in zip(self.v, other.v)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KernelVector(self.params, tuple(-x for x in self.v))

    def is_zero(self):
        return not any(self.v)


def extension_cocycle(params, alpha, beta):
    """phi(alpha, beta) = s(alpha) s(beta) s(alpha*beta)^-1 as a KernelVector.

    alpha and beta are (degree, weight) pairs.  The word
    e_0^(k-1) e_a e_0^(m-1) e_b e_{t^m a + b}^-1 e_0^(1-k-m) is evaluated as
    the product of its three sections' PackedElements, alpha*beta being the
    degree collapse of the first two.  It always has degree 0 and weight 0;
    its abelianization is returned.
    """
    product = word_eval(section(params, *alpha)) * word_eval(section(params, *beta))
    packed = product * word_eval(section(params, product.degree, product.a)).inverse()
    assert packed.degree == 0 and packed.a == 0, "cocycle word left the kernel"
    return KernelVector(params, packed.v)


def degree_zero_cocycle(params, a, b):
    """The cocycle restricted to degree zero: phi((0, a), (0, b))."""
    return extension_cocycle(params, (0, a), (0, b))


def commutator_form(params, x, y):
    """The commutator pairing phi0(y, x) - phi0(x, y).

    It equals the class of [e_0^-1 e_y, e_0^-1 e_x] and is bi-additive;
    over Z/n it vanishes identically, which is what collapses the two-letter
    shift relation used in the rewriting.
    """
    return degree_zero_cocycle(params, y, x) - degree_zero_cocycle(params, x, y)


def kernel_lattice_basis(params):
    """Canonical basis of the kernel lattice {v : sum v = 0, sum r*v_r == 0 mod m}.

    The lattice has rank m - 1 and is spanned by the cocycle values; the
    basis is returned in Hermite form so equal lattices give equal lists.
    """
    m = params.num_orbits
    if m == 1:
        return []
    rows = [[1] * m, list(range(m))]
    basis = congruence_kernel_basis(rows, [0, m])
    return [KernelVector(params, tuple(vec)) for vec in basis]


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
            if not value.is_zero():
                vectors.append(list(value.v))
    basis = hnf_rows(vectors, params.num_orbits)
    return [KernelVector(params, tuple(vec)) for vec in basis]
