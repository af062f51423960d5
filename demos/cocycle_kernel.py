"""The extension cocycle, its degree-zero table, and the kernel lattice.

Run:  python demos/cocycle_kernel.py
"""

from quandlehom import (
    LinearAlexanderParams,
    cocycle_image_basis,
    commutator_form,
    degree_zero_cocycle,
    extension_cocycle,
    kernel_lattice_basis,
)

params = LinearAlexanderParams(4, 3)
n = params.n
print(f"quandle: twist {params.t} on Z/{n}, {params.num_orbits} orbits")
print()

# The section (k, a) |-> e_0^(k-1) e_a fails to be a morphism; the failure
# phi(alpha, beta) is central of degree and weight zero, so it is a vector
# of per-orbit letter counts.
print("degree-zero cocycle table (rows a, columns b):")
for a in range(n):
    print("  ", [degree_zero_cocycle(params, a, b).v for b in range(n)])
print()

# Normalizations: any argument with zero weight kills the value.  The
# arguments are (degree, weight) pairs.
print("phi((2,3),(5,0)) =", extension_cocycle(params, (2, 3), (5, 0)).v)
print("phi((3,0),(2,1)) =", extension_cocycle(params, (3, 0), (2, 1)).v)
print()

# The commutator pairing vanishes identically over Z/n; that collapse is
# what makes the two-letter shift relation (and hence the normal form) work.
print("commutator form on all pairs is zero:",
      all(commutator_form(params, x, y).is_zero()
          for x in range(n) for y in range(n)))
print()

# The cocycle values generate the whole kernel of (degree, weight).  Both
# lattices are reported by their canonical Hermite bases, so equality is
# literal list equality.
print("kernel lattice basis:", [kv.v for kv in kernel_lattice_basis(params)])
print("cocycle image basis: ", [kv.v for kv in cocycle_image_basis(params)])

big = LinearAlexanderParams(9, 4)
print()
print(f"twist {big.t} on Z/{big.n} ({big.num_orbits} orbits):")
print("kernel lattice basis:", [kv.v for kv in kernel_lattice_basis(big)])
print("cocycle image basis: ", [kv.v for kv in cocycle_image_basis(big)])
