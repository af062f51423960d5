"""Second quandle homology computed three independent ways, side by side.

Run:  python demos/homology_three_ways.py
"""

import math

from quandlehom import (
    LinearAlexanderParams,
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

# Beyond the chain oracle's comfortable range the two closed routes still
# agree; twist 21 on Z/25 has five orbits.
params = LinearAlexanderParams(25, 21)
print(f"twist 21 on Z/25: formula {h2_closed_form(params)}, "
      f"pullback {h2_eisermann(params)}")
