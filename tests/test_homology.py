import math

from quandlehom.intlinalg import AbelianInvariants, IntMatrix
from quandlehom.homology import (
    boundary_matrices,
    h2_chain_complex,
    h2_closed_form,
    h2_eisermann,
)
from quandlehom.quandle import (
    LinearAlexanderParams,
    build_alexander,
    build_conj,
    build_core,
    build_takasaki,
)
from .test_quandle import cyclic_table, s3_table


def test_boundary_shapes_and_labels():
    q = build_alexander(LinearAlexanderParams(2, 1))
    pair = boundary_matrices(q)
    assert len(pair.basis2) == 2  # n^2 - n
    assert pair.d2.shape == (2, 2)
    assert pair.d3.shape == (2, len(pair.basis3))
    assert pair.basis1 == (0, 1)


def test_trivial_quandle_has_zero_d2():
    q = build_alexander(LinearAlexanderParams(3, 1))
    d2 = boundary_matrices(q).d2
    assert d2 == IntMatrix.zeros(*d2.shape)


def test_d2_column_entries():
    # column of (1, 2) in Al(4, 3): +1 at (1), -1 at (1 <| 2) = (3)
    q = build_alexander(LinearAlexanderParams(4, 3))
    pair = boundary_matrices(q)
    j = pair.basis2.index((1, 2))
    column = [row[j] for row in pair.d2.data]
    expected = [0, 1, 0, -1]
    assert column == expected


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
        pair = boundary_matrices(quandle)
        product = pair.d2 @ pair.d3
        assert product == IntMatrix.zeros(*product.shape)


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
    # every unit pair past the n <= 12 the chain oracle is swept over
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
