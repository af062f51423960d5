"""Build finite quandles, validate their axioms, and inspect their orbits.

Run:  python demos/quandle_tables.py
"""

from quandlehom import (
    LinearAlexanderParams,
    build_alexander,
    build_conj,
    build_core,
    build_takasaki,
    find_violation,
    format_table,
    is_connected,
    orbits,
)


def show(title, quandle):
    print(f"--- {title} (n = {quandle.n}) ---")
    print(format_table(quandle), end="")
    print("orbits:", orbits(quandle), "connected:", is_connected(quandle))
    print()


# The quandle on Z/n with twist t multiplies as a <| b = t*a + (1-t)*b.
# With n = 4 and t = 3 the twist is -1, so this is also the dihedral table.
params = LinearAlexanderParams(4, 3)
q = build_alexander(params)
show("twist 3 on Z/4", q)
assert q == build_takasaki(4)
print("orbit count from gcd(n, 1-t):", params.num_orbits)
print()

# A prime modulus with t != 1 is always connected: 1 - t is invertible.
show("twist 2 on Z/5", build_alexander(LinearAlexanderParams(5, 2)))

# Quandles can also be carved out of groups.  Conjugation in the symmetric
# group on three letters has one orbit per conjugacy class.
perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
index = {p: i for i, p in enumerate(perms)}
s3 = [[index[tuple(h[g[x]] for x in range(3))] for h in perms] for g in perms]
show("conjugation quandle of S_3", build_conj(s3))

# The core operation g <| h = h g^-1 h of a cyclic group is the dihedral
# quandle again.
c5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
assert build_core(c5) == build_takasaki(5)
print("core of the cyclic group of order 5 equals the dihedral table")
print()

# Axiom validation pinpoints the first failure.
print("violation in [[1,0],[1,0]]:", find_violation([[1, 0], [1, 0]]))
print("violation in [[0,1],[0,1]]:", find_violation([[0, 1], [0, 1]]))
print("violation in the twist-3 table:", find_violation(q.table))
