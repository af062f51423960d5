"""Second quandle homology computed three independent ways, side by side.

Run:  python demos/homology_three_ways.py
"""

import math

from quandlehom import (
    LinearAlexanderParams,
    boundary_matrices,
    build_alexander,
    h2_chain_complex,
    h2_closed_form,
    h2_eisermann,
)

# The chain-complex route eliminates the boundary maps over the integers,
# one orbit block at a time, from about 4 n^3 nonzeros; the closed formula
# and the pullback route are instant.  They must agree everywhere.
print(f"{'n':>3} {'t':>3} {'m':>3}   {'formula':24} {'pullback':24} {'chain':24}")
for n in range(2, 11):
    for t in range(n):
        if math.gcd(t, n) != 1:
            continue
        params = LinearAlexanderParams(n, t)
        formula = h2_closed_form(params)
        pullback = h2_eisermann(params)
        chain = h2_chain_complex(build_alexander(params))
        assert formula == pullback == chain
        print(
            f"{n:>3} {t:>3} {params.num_orbits:>3}   "
            f"{str(formula):24} {str(pullback):24} {str(chain):24}"
        )
print()
print("all three routes agree on every line")
print()

# A glance at the machinery behind the chain route: the boundary pair of
# the twist-4 quandle on Z/9 and the shape of its matrices.
pair = boundary_matrices(build_alexander(LinearAlexanderParams(9, 4)))
print("twist 4 on Z/9 boundary shapes:", pair.d2.shape, pair.d3.shape)
print("first degree-2 basis labels:", pair.basis2[:6], "...")
print("d2 composed with d3 vanishes:", not any(map(any, (pair.d2 @ pair.d3).data)))
print()

# Beyond the chain oracle's comfortable range the two closed routes still
# agree; twist 21 on Z/25 has five orbits.
params = LinearAlexanderParams(25, 21)
print(f"twist 21 on Z/25: formula {h2_closed_form(params)}, "
      f"pullback {h2_eisermann(params)}")
