import math

import pytest

from quandlehom.checks import check_cocycle_identities
from quandlehom.cocycle import (
    KernelVector,
    cocycle_image_basis,
    commutator_form,
    degree_zero_cocycle,
    extension_cocycle,
    kernel_lattice_basis,
)
from quandlehom.intlinalg import hnf_rows
from quandlehom.quandle import LinearAlexanderParams

P43 = LinearAlexanderParams(4, 3)
P94 = LinearAlexanderParams(9, 4)


def test_kernel_vector_validation():
    KernelVector(P43, (2, -2))
    with pytest.raises(ValueError):
        KernelVector(P43, (1, 0))  # nonzero degree
    with pytest.raises(ValueError):
        KernelVector(P43, (1, -1))  # weight 1 mod 2
    v = KernelVector(P43, (-2, 2))
    assert (v + v).v == (-4, 4)
    assert (v - v).is_zero()
    assert (-v).v == (2, -2)


def test_cocycle_normalizations():
    for params in (P43, P94):
        for k in range(-2, 3):
            for mm in range(-2, 3):
                for a in range(params.n):
                    assert extension_cocycle(params, (k, a), (mm, 0)).is_zero()
                    assert extension_cocycle(params, (k, 0), (mm, a)).is_zero()


def test_cocycle_value_example():
    # the defining word e0^-1 e1 e0^-1 e1 e2^-1 e0 counts (-2, 2) per orbit
    value = extension_cocycle(P43, (0, 1), (0, 1))
    assert value.v == (-2, 2)
    assert degree_zero_cocycle(P43, 1, 1).v == (-2, 2)


def test_degree_zero_twist_invariance():
    # phi0(a, b) == phi0(t a, t b); instance: (1,1) versus (3,3) at t = 3
    assert degree_zero_cocycle(P43, 3, 3).v == (-2, 2)
    for params in (P43, LinearAlexanderParams(8, 5)):
        t = params.t
        for a in range(params.n):
            assert degree_zero_cocycle(params, a, 0).is_zero()
            for b in range(params.n):
                assert (
                    degree_zero_cocycle(params, a, b).v
                    == degree_zero_cocycle(params, t * a % params.n, t * b % params.n).v
                )


def test_commutator_form_vanishes():
    for params in (P43, P94, LinearAlexanderParams(8, 3), LinearAlexanderParams(12, 7)):
        for u in range(params.n):
            assert commutator_form(params, u, u).is_zero()
            for v in range(params.n):
                lam = commutator_form(params, u, v)
                assert lam.is_zero()
                assert (lam + commutator_form(params, v, u)).is_zero()
    assert commutator_form(LinearAlexanderParams(8, 3), 1, 3).is_zero()


def test_kernel_lattice_examples():
    assert kernel_lattice_basis(LinearAlexanderParams(5, 2)) == []
    basis = kernel_lattice_basis(P43)
    assert hnf_rows([list(kv.v) for kv in basis]) == hnf_rows([[-2, 2]])
    basis = kernel_lattice_basis(P94)
    assert len(basis) == 2
    # (0, 3, -3) is a kernel vector: e2^-3 e1^3 e0^-1 e3 has degree 0 and
    # weight 0, so the lattice is strictly larger than span{(-3,3,0), (-1,-1,2)}
    assert hnf_rows([list(kv.v) for kv in basis]) == hnf_rows(
        [[1, 1, -2], [0, 3, -3]]
    )
    witness = KernelVector(P94, (0, 3, -3))
    assert hnf_rows([list(kv.v) for kv in basis] + [list(witness.v)]) == hnf_rows(
        [list(kv.v) for kv in basis]
    )


def test_kernel_lattice_membership():
    for params in (P43, P94, LinearAlexanderParams(12, 5)):
        m = params.num_orbits
        for kv in kernel_lattice_basis(params):
            assert sum(kv.v) == 0
            assert sum(r * x for r, x in enumerate(kv.v)) % m == 0


def test_cocycle_values_span_kernel_lattice():
    for n in range(1, 9):
        for t in range(n):
            if math.gcd(t, n) != 1:
                continue
            params = LinearAlexanderParams(n, t)
            image = [list(kv.v) for kv in cocycle_image_basis(params)]
            lattice = [list(kv.v) for kv in kernel_lattice_basis(params)]
            assert image == lattice, (n, t)


def test_identity_suite_spot_checks():
    for params in (P43, LinearAlexanderParams(6, 5), P94):
        result = check_cocycle_identities(params, degree_span=1)
        assert result.passed, result.failures


def test_two_letter_shift_relation_up_to_twelve():
    # e_a e_b = e_{a-(1-t)c} e_{b+(1-t)tc} for every a, b, c and n <= 12
    from quandlehom.words import generator, word_eval

    for n in range(1, 13):
        for t in range(n):
            if math.gcd(t, n) != 1:
                continue
            params = LinearAlexanderParams(n, t)
            s = (1 - t) % n
            for a in range(n):
                for b in range(n):
                    plain = word_eval(generator(params, a) * generator(params, b))
                    for c in range(n):
                        shifted = word_eval(
                            generator(params, (a - s * c) % n)
                            * generator(params, (b + s * t * c) % n)
                        )
                        assert shifted == plain, (n, t, a, b, c)
