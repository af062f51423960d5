import json
import math

from quandlehom.cli import main
from quandlehom.intlinalg import AbelianInvariants
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
    assert boundary_matrices(q).d2.is_zero()


def test_d2_column_entries():
    # column of (1, 2) in Al(4, 3): +1 at (1), -1 at (1 <| 2) = (3)
    q = build_alexander(LinearAlexanderParams(4, 3))
    pair = boundary_matrices(q)
    j = pair.basis2.index((1, 2))
    column = pair.d2.column(j)
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
        assert (pair.d2 @ pair.d3).is_zero()


def test_h2_paper_examples():
    # prime modulus: connected, trivial homology
    for params in (LinearAlexanderParams(5, 2), LinearAlexanderParams(7, 3)):
        expected = AbelianInvariants(0)
        assert h2_closed_form(params) == expected
        assert h2_eisermann(params) == expected
        assert h2_chain_complex(build_alexander(params)) == expected
    # square of a prime with p orbits: Z^(p-1)p + (Z/p)^p at p = 3
    params = LinearAlexanderParams(9, 4)
    expected = AbelianInvariants(6, (3, 3, 3))
    assert h2_closed_form(params) == expected
    assert h2_eisermann(params) == expected
    assert h2_chain_complex(build_alexander(params)) == expected


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


def test_h2_oracle_sweep_small():
    for n in range(1, 8):
        for t in range(n):
            if math.gcd(t, n) != 1:
                continue
            params = LinearAlexanderParams(n, t)
            formula = h2_closed_form(params)
            assert formula == h2_eisermann(params), (n, t)
            assert formula == h2_chain_complex(build_alexander(params)), (n, t)
            m = params.num_orbits
            assert formula.rank == m * (m - 1)
            if m == 1:
                assert formula == AbelianInvariants(0)


def test_h2_linear_dispatch(capsys):
    # the CLI picks the route with --method
    results = {}
    for method in ("formula", "eisermann", "chain"):
        assert main(["h2", "--n", "9", "--t", "4", "--method", method]) == 0
        results[method] = json.loads(capsys.readouterr().out)["result"]
    assert results["formula"] == results["eisermann"]
    assert results["chain"] == results["formula"]
    expected = h2_closed_form(LinearAlexanderParams(9, 4))
    assert results["formula"] == {"rank": expected.rank, "torsion": list(expected.torsion)}
    assert main(["h2", "--n", "9", "--t", "4", "--method", "guess"]) == 2
    capsys.readouterr()
