import math

from quandlehom import homology
from quandlehom.intlinalg import AbelianInvariants, IntMatrix, homology_invariants
from quandlehom.homology import h2_chain_complex, h2_closed_form, h2_eisermann
from quandlehom.quandle import (
    LinearAlexanderParams,
    build_alexander,
    build_conj,
    build_core,
    build_takasaki,
    orbits,
)
from .test_quandle import cyclic_table, s3_table


def _boundary_by_definition(quandle):
    # independent reference: each column from the defining formula, rows
    # found through a dict index of the non-degenerate pairs
    n, table = quandle.n, quandle.table
    basis2 = [(x, y) for x in range(n) for y in range(n) if x != y]
    index2 = {pair: i for i, pair in enumerate(basis2)}
    basis3 = [(x, y, z) for (x, y) in basis2 for z in range(n) if z != y]
    d2 = [[0] * len(basis2) for _ in range(n)]
    for j, (x, y) in enumerate(basis2):
        d2[x][j] += 1
        d2[table[x][y]][j] -= 1
    d3 = [[0] * len(basis3) for _ in basis2]
    for j, (x, y, z) in enumerate(basis3):
        terms = (
            (1, (x, z)),
            (-1, (table[x][y], z)),
            (-1, (x, y)),
            (1, (table[x][z], table[y][z])),
        )
        for coeff, pair in terms:
            if pair[0] != pair[1]:
                d3[index2[pair]][j] += coeff
    return d2, d3, tuple(basis2), tuple(basis3)


def test_boundaries_compose_to_zero_on_corpus():
    corpus = [
        build_alexander(LinearAlexanderParams(6, 5)),
        build_alexander(LinearAlexanderParams(8, 3)),
        build_takasaki(7),
        build_conj(s3_table()),
        build_core(cyclic_table(4)),
        build_conj(cyclic_table(5)),
    ]
    for quandle in corpus:
        d2, d3, _, _ = _boundary_by_definition(quandle)
        product = IntMatrix(d2) @ IntMatrix(d3)
        assert product == IntMatrix.zeros(*product.shape)
        # raises NotAComplexError unless each block's sparse d2 @ d3 is 0
        h2_chain_complex(quandle)


def _take(row, columns):
    # the entries of a dense row at columns, as {place: entry}; zeroes them
    taken = {k: row[j] for k, j in enumerate(columns) if row[j]}
    for j in columns:
        row[j] = 0
    return taken


def test_boundary_blocks_match_definition():
    # tables from outside as well as formula-built ones: the arithmetic
    # position of a pair in a block must not depend on how the table arose
    corpus = [
        build_alexander(LinearAlexanderParams(3, 1)),  # trivial: d2 is zero
        build_alexander(LinearAlexanderParams(4, 3)),
        build_conj(s3_table()),
        build_core(cyclic_table(4)),
        build_takasaki(7),
        build_alexander(LinearAlexanderParams(8, 3)),
        build_alexander(LinearAlexanderParams(9, 4)),
    ]
    for quandle in corpus:
        n = quandle.n
        d2, d3, basis2, basis3 = _boundary_by_definition(quandle)
        index2 = {pair: i for i, pair in enumerate(basis2)}
        index3 = {triple: j for j, triple in enumerate(basis3)}
        points = []
        for block, low, high in homology._boundary_blocks(quandle):
            # the block's basis order: pairs by the place of their first point
            pairs = [index2[a, b] for a in block for b in range(n) if b != a]
            triples = [
                index3[x, y, z]
                for x, y in map(basis2.__getitem__, pairs)
                for z in range(n)
                if z != y
            ]
            assert low == [_take(d2[x], pairs) for x in block]
            assert high == [_take(d3[i], triples) for i in pairs]
            points += block
        assert sorted(points) == list(range(n))
        # every entry outside the blocks is zero
        assert not any(map(any, d2 + d3))


def test_block_route_matches_unsplit_elimination():
    # the per-orbit route against one elimination of the whole dense pair
    corpus = [
        build_alexander(LinearAlexanderParams(n, t))
        for n in range(1, 9)
        for t in range(n)
        if math.gcd(t, n) == 1
    ]
    corpus += [
        build_conj(s3_table()),
        build_core(cyclic_table(4)),
        build_takasaki(7),
        build_conj(cyclic_table(5)),
    ]
    split = 0
    for quandle in corpus:
        d2, d3, _, _ = _boundary_by_definition(quandle)
        assert h2_chain_complex(quandle) == homology_invariants(IntMatrix(d2), IntMatrix(d3))
        split += len(orbits(quandle)) > 1
    assert split >= 10


def test_block_torsion_merges_into_invariant_factors(monkeypatch):
    # two blocks, each with one middle generator and d3 = [2], then [3]:
    # Z/2 + Z/3 is Z/6, which no per-block reading gives
    def blocks(quandle):
        yield [0], [{}], [{0: 2}]
        yield [1], [{}], [{0: 3}]

    monkeypatch.setattr(homology, "_boundary_blocks", blocks)
    quandle = build_alexander(LinearAlexanderParams(2, 1))
    assert h2_chain_complex(quandle) == AbelianInvariants(0, (6,))


def test_h2_trivial_quandle():
    params = LinearAlexanderParams(2, 1)
    expected = AbelianInvariants(2)
    assert h2_closed_form(params) == expected
    assert h2_chain_complex(build_alexander(params)) == expected


def test_h2_discriminating_cases():
    # these two separate the order-versus-index readings of the torsion
    params = LinearAlexanderParams(6, 5)  # m = 2, gcd(2, 3) = 1
    expected = AbelianInvariants(2)
    assert h2_closed_form(params) == expected
    assert h2_eisermann(params) == expected
    assert h2_chain_complex(build_alexander(params)) == expected
    params = LinearAlexanderParams(8, 3)  # m = 2, gcd(2, 4) = 2
    expected = AbelianInvariants(2, (2, 2))
    assert h2_closed_form(params) == expected
    assert h2_eisermann(params) == expected
    assert h2_chain_complex(build_alexander(params)) == expected


def test_h2_closed_form_values():
    assert h2_closed_form(LinearAlexanderParams(4, 3)) == AbelianInvariants(2, (2, 2))
    # product of two distinct primes: torsion-free whichever factor m is
    assert h2_closed_form(LinearAlexanderParams(15, 13)) == AbelianInvariants(6)
    # p^2 with p = 5 orbits, too large for the chain oracle but closed forms agree
    params = LinearAlexanderParams(25, 21)
    assert params.num_orbits == 5
    expected = AbelianInvariants(20, (5, 5, 5, 5, 5))
    assert h2_closed_form(params) == expected
    assert h2_eisermann(params) == expected
    # every unit pair from n = 13 to 150: the pullback against the formula
    for n in range(13, 151):
        for t in range(n):
            if math.gcd(t, n) == 1:
                params = LinearAlexanderParams(n, t)
                assert h2_eisermann(params) == h2_closed_form(params), (n, t)
    # large n with m orbits: n = m*k, t = 1 + m*s, gcd(k, s) = 1
    for m, (n, t) in zip(
        (1, 2, 3, 4, 6, 8, 12, 16),
        (
            (536925, 536687),
            (1377272, 215247),
            (2844819, 1890682),
            (2646692, 2334381),
            (3662286, 3446533),
            (2092712, 5321),
            (10397232, 1233781),
            (5431952, 1763505),
        ),
    ):
        params = LinearAlexanderParams(n, t)
        assert params.num_orbits == m
        assert h2_eisermann(params) == h2_closed_form(params), (n, t)
