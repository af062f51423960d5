"""The extension cocycle, its degree-zero table, and the kernel lattice.

Run:  python demos/cocycle_kernel.py
"""

from quandlehom import (
    LinearAlexanderParams,
    extension_cocycle,
    kernel_lattice_basis,
)
from quandlehom.checks import check_kernel_generation

params = LinearAlexanderParams(4, 3)
n = params.n
print(f"quandle: twist {params.t} on Z/{n}, {params.num_orbits} orbits")
print()

# The section (k, a) |-> e_0^(k-1) e_a fails to be a morphism; the failure
# phi(alpha, beta) is central of degree and weight zero: a PackedElement
# (v, 0) whose v counts the letters per orbit.
print("degree-zero cocycle table (rows a, columns b):")
for a in range(n):
    print("  ", [extension_cocycle(params, (0, a), (0, b)).v for b in range(n)])
print()

# Normalizations: any argument with zero weight kills the value.  The
# arguments are (degree, weight) pairs.
print("phi((2,3),(5,0)) =", extension_cocycle(params, (2, 3), (5, 0)).v)
print("phi((3,0),(2,1)) =", extension_cocycle(params, (3, 0), (2, 1)).v)
print()

# The commutator pairing phi0(y, x) - phi0(x, y) vanishes identically over
# Z/n, since the cocycle is symmetric; that collapse is what makes the
# two-letter shift relation (and hence the normal form) work.
print("commutator form on all pairs is zero:",
      all(extension_cocycle(params, (0, x), (0, y))
          == extension_cocycle(params, (0, y), (0, x))
          for x in range(n) for y in range(n)))
print()

# The cocycle values generate the whole kernel of (degree, weight).  The
# check compares the lattice they span with the closed-form basis by the
# invariant factors of the two spanning sets and of their union.
print("kernel lattice basis:", [kv.v for kv in kernel_lattice_basis(params)])
print("cocycle values span it:", check_kernel_generation(params).passed)

big = LinearAlexanderParams(9, 4)
print()
print(f"twist {big.t} on Z/{big.n} ({big.num_orbits} orbits):")
print("kernel lattice basis:", [kv.v for kv in kernel_lattice_basis(big)])
print("cocycle values span it:", check_kernel_generation(big).passed)
