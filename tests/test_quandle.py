import math

import pytest

from quandlehom.cli import main
from quandlehom.errors import (
    BadModulusError,
    NotAGroupError,
    NotAUnitError,
    QuandleAxiomError,
    TableFormatError,
)
from quandlehom.quandle import (
    FiniteQuandle,
    LinearAlexanderParams,
    build_alexander,
    build_conj,
    build_core,
    build_takasaki,
    find_violation,
    format_table,
    is_connected,
    orbits,
    parse_table,
)


def cyclic_table(k):
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def s3_table():
    # permutations of {0,1,2} composed left-to-right: (p*q)(x) = q(p(x))
    perms = [
        (0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1),
    ]
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(q[p[x]] for x in range(3))] for q in perms] for p in perms
    ]


def test_params_validation():
    p = LinearAlexanderParams(4, 7)
    assert p.t == 3
    assert p.num_orbits == 2
    with pytest.raises(NotAUnitError):
        LinearAlexanderParams(4, 2)
    with pytest.raises(NotAUnitError):
        LinearAlexanderParams(0, 1)
    assert LinearAlexanderParams(1, 0).num_orbits == 1


def test_build_alexander_entries():
    q = build_alexander(LinearAlexanderParams(4, 3))
    assert q.op(1, 2) == 3  # 3*1 + 2*2 == 7 == 3 mod 4
    assert find_violation(q.table) is None
    trivial = build_alexander(LinearAlexanderParams(5, 1))
    assert all(trivial.op(a, b) == a for a in range(5) for b in range(5))


def test_takasaki_is_twist_minus_one():
    assert build_takasaki(4) == build_alexander(LinearAlexanderParams(4, 3))
    assert build_takasaki(7) == build_alexander(LinearAlexanderParams(7, 6))
    # two independent formulas: 2b - a and t*a + (1-t)*b at t = -1
    for n in range(1, 31):
        assert build_takasaki(n) == build_alexander(LinearAlexanderParams(n, n - 1)), n
    for n in (0, -3):
        with pytest.raises(BadModulusError):
            build_takasaki(n)


def test_formula_tables_skip_the_axiom_check(monkeypatch):
    def refuse(table):
        raise AssertionError("a formula table was re-checked")

    monkeypatch.setattr("quandlehom.quandle.find_violation", refuse)
    q = build_alexander(LinearAlexanderParams(60, 7))
    assert q.n == 60 and q.op(1, 2) == (7 * 1 - 6 * 2) % 60
    assert build_takasaki(9).op(1, 2) == 3


def test_outside_tables_are_still_checked(tmp_path, capsys):
    with pytest.raises(QuandleAxiomError):
        FiniteQuandle([[1, 0], [1, 0]])
    with pytest.raises(TableFormatError, match=r"^row 1 has 1 entries, expected 2$"):
        FiniteQuandle([[0, 1], [1]])
    with pytest.raises(TableFormatError, match=r"^entry \(0,1\) = 2 outside 0\.\.1$"):
        FiniteQuandle([[0, 2], [1, 0]])
    with pytest.raises(NotAGroupError):
        build_core([[0, 1, 2], [1, 0, 0], [2, 0, 0]])  # not associative
    path = tmp_path / "bad.tbl"
    path.write_text("3\n0 2 0\n2 1 1\n1 0 2\n")
    assert main(["axioms", "--table", str(path)]) == 3
    assert '"axiom": "self-distributivity"' in capsys.readouterr().out


def test_find_violation_reports():
    assert find_violation([[0, 0], [1, 1]]) is None  # trivial quandle
    v = find_violation([[1, 0], [1, 0]])
    assert v.axiom == "idempotence" and v.witness == (0,)
    v = find_violation([[0, 1], [0, 1]])
    assert v.axiom == "right-translation" and v.witness == (0,)
    # columns are permutations fixing the diagonal, but distributivity fails
    table = [[0, 2, 0], [2, 1, 1], [1, 0, 2]]
    v = find_violation(table)
    assert v.axiom == "self-distributivity"
    a, b, c = v.witness
    lhs = table[table[a][b]][c]
    rhs = table[table[a][c]][table[b][c]]
    assert lhs != rhs
    with pytest.raises(TableFormatError):
        find_violation([[0, 1], [1]])
    with pytest.raises(TableFormatError):
        find_violation([[0, 2], [1, 0]])


def test_validate_table():
    q = FiniteQuandle(build_alexander(LinearAlexanderParams(4, 3)).table)
    assert isinstance(q, FiniteQuandle)
    with pytest.raises(QuandleAxiomError) as info:
        FiniteQuandle([[1, 0], [1, 0]])
    assert info.value.axiom == "idempotence"
    assert info.value.witness == (0,)


def test_conj_of_abelian_group_is_trivial():
    q = build_conj(cyclic_table(3))
    assert all(q.op(a, b) == a for a in range(3) for b in range(3))


def test_core_of_cyclic_group():
    assert build_core(cyclic_table(3)) == build_alexander(LinearAlexanderParams(3, 2))
    assert build_core(cyclic_table(5)) == build_takasaki(5)


def test_conj_symmetric_group_orbits():
    q = build_conj(s3_table())
    assert sorted(len(block) for block in orbits(q)) == [1, 2, 3]


def test_not_a_group():
    with pytest.raises(NotAGroupError):
        build_conj([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(NotAGroupError):
        build_conj([[1, 0], [0, 0]])  # no identity element... 1*1=0, 0*0=1
    with pytest.raises(NotAGroupError):
        build_core([[0, 1, 2], [1, 0, 0], [2, 0, 0]])  # not associative


def test_orbits_examples():
    assert orbits(build_alexander(LinearAlexanderParams(4, 3))) == [[0, 2], [1, 3]]
    assert orbits(build_alexander(LinearAlexanderParams(5, 2))) == [[0, 1, 2, 3, 4]]
    trivial = build_alexander(LinearAlexanderParams(4, 1))
    assert orbits(trivial) == [[0], [1], [2], [3]]


def test_orbit_count_examples():
    assert LinearAlexanderParams(4, 3).num_orbits == 2
    assert LinearAlexanderParams(9, 4).num_orbits == 3
    assert LinearAlexanderParams(6, 1).num_orbits == 6


def test_orbit_count_matches_partition():
    for n in range(1, 31):
        for t in range(n):
            if math.gcd(t, n) != 1:
                continue
            params = LinearAlexanderParams(n, t)
            quandle = build_alexander(params)
            blocks = orbits(quandle)
            m = params.num_orbits
            assert len(blocks) == m
            assert blocks == [sorted(range(r, n, m)) for r in range(m)]


def test_is_connected():
    assert is_connected(build_alexander(LinearAlexanderParams(5, 2)))
    assert not is_connected(build_alexander(LinearAlexanderParams(4, 3)))
    assert not is_connected(build_alexander(LinearAlexanderParams(2, 1)))


def test_table_roundtrip():
    q = build_alexander(LinearAlexanderParams(4, 3))
    text = format_table(q)
    assert parse_table(text) == [list(row) for row in q.table]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n0",
        "2\n0 1\n",  # missing row
        "2\n0 1 1\n1 0\n",  # row too long
        "1\n2\n",  # entry out of range
        "2\n0 a\n1 0\n",  # non-integer entry
        "0\n",
    ],
)
def test_parse_table_rejects(text):
    with pytest.raises(TableFormatError):
        parse_table(text)
