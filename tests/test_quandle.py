import random

import pytest

from quandlehom.checks import check_quandle_structure, unit_pairs
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
    Violation,
    build_alexander,
    build_conj,
    build_core,
    build_takasaki,
    find_violation,
    format_table,
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
    assert q.table[1][2] == 3  # 3*1 + 2*2 == 7 == 3 mod 4
    assert find_violation(q.table) is None
    trivial = build_alexander(LinearAlexanderParams(5, 1))
    assert all(trivial.table[a][b] == a for a in range(5) for b in range(5))


def test_takasaki_is_twist_minus_one():
    assert build_takasaki(4) == build_alexander(LinearAlexanderParams(4, 3))
    assert build_takasaki(7) == build_alexander(LinearAlexanderParams(7, 6))
    # check_quandle_structure compares the two formulas for every n <= 30
    # in test_orbit_count_matches_partition
    for n in (0, -3):
        with pytest.raises(BadModulusError):
            build_takasaki(n)


def test_formula_tables_skip_the_axiom_check(monkeypatch):
    def refuse(table):
        raise AssertionError("a formula table was re-checked")

    monkeypatch.setattr("quandlehom.quandle.find_violation", refuse)
    q = build_alexander(LinearAlexanderParams(60, 7))
    assert q.n == 60 and q.table[1][2] == (7 * 1 - 6 * 2) % 60
    assert build_takasaki(9).table[1][2] == 3


def test_outside_tables_are_still_checked(tmp_path, capsys):
    with pytest.raises(QuandleAxiomError):
        FiniteQuandle([[1, 0], [1, 0]])
    with pytest.raises(TableFormatError, match=r"^a quandle is non-empty$"):
        FiniteQuandle([])
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


def reference_violation(table):
    """find_violation's contract, written as the plain triple loop."""
    n = len(table)
    for a in range(n):
        if table[a][a] != a:
            return Violation("idempotence", (a,))
    for b in range(n):
        if len({table[a][b] for a in range(n)}) != n:
            return Violation("right-translation", (b,))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[table[a][c]][table[b][c]]:
                    return Violation("self-distributivity", (a, b, c))
    return None


def test_find_violation_matches_triple_loop_on_random_tables():
    # idempotent tables whose columns are permutations: only self-distributivity
    # can fail, so the witness order is what is compared
    rng = random.Random(26)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 7)
        columns = []
        for b in range(n):
            others = [x for x in range(n) if x != b]
            rng.shuffle(others)
            columns.append(others[:b] + [b] + others[b:])
        table = [[columns[b][a] for b in range(n)] for a in range(n)]
        expected = reference_violation(table)
        assert find_violation(table) == expected, table
        verdicts.add(expected and expected.axiom)
    assert verdicts == {None, "self-distributivity"}


def test_find_violation_matches_triple_loop_on_swapped_alexander_tables():
    rng = random.Random(12)
    for params in unit_pairs(12):
        n = params.n
        for b in range(n):
            table = [list(row) for row in build_alexander(params).table]
            a1, a2 = rng.sample(range(n), 2) if n > 1 else (0, 0)
            table[a1][b], table[a2][b] = table[a2][b], table[a1][b]
            assert find_violation(table) == reference_violation(table), (params, b, a1, a2)


def test_parse_table_keeps_its_texts():
    assert parse_table("2\n-0 +1\n+1\t-0\n") == [[0, 1], [1, 0]]
    assert parse_table("2\n\t0 \t 1\t\n1\t\t0\n") == [[0, 1], [1, 0]]
    huge = "0" * 5000 + "1"
    cases = [
        ("3\n0 1 2\n1 x y\n2 0 1\n", "entry (1,1) = 'x' is not an integer"),
        ("3\n0 1 2\n1 7 y\n2 0 1\n", "entry (1,1) = 7 outside 0..2"),
        ("3\n0 1 2\n1 2 0\n2 0 -1\n", "entry (2,2) = -1 outside 0..2"),
        ("3\n0 1 2\n1 2\n2 0 1\n", "row 1 has 2 entries, expected 3"),
        (f"2\n0 {huge}\n1 x\n", "entry (0,1) has 5001 characters, past the integer string limit"),
        (f"2\n0 1\n1 x {huge}\n", "row 1 has 3 entries, expected 2"),
    ]
    for text, message in cases:
        with pytest.raises(TableFormatError) as info:
            parse_table(text)
        assert str(info.value) == message
    with pytest.raises(TableFormatError, match=r"^entry \(0,1\) = True outside 0\.\.1$"):
        FiniteQuandle([[0, True], [1, 0]])


def test_validate_table():
    formula = build_alexander(LinearAlexanderParams(4, 3))
    q = FiniteQuandle(formula.table)
    assert isinstance(q, FiniteQuandle)
    # equal tables are equal quandles, one set or dict key
    assert q == formula and hash(q) == hash(formula)
    assert len({q, formula, build_takasaki(4)}) == 1
    assert q != build_alexander(LinearAlexanderParams(4, 1))
    assert repr(q) == "FiniteQuandle(n=4)"
    with pytest.raises(QuandleAxiomError) as info:
        FiniteQuandle([[1, 0], [1, 0]])
    assert info.value.axiom == "idempotence"
    assert info.value.witness == (0,)


def test_conj_of_abelian_group_is_trivial():
    q = build_conj(cyclic_table(3))
    assert all(q.table[a][b] == a for a in range(3) for b in range(3))


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
    for table in ([[0, 2], [1, 0]], [[0, 1], [1]]):
        with pytest.raises(NotAGroupError, match=r"^row \d is not over 0\.\.1$"):
            build_conj(table)
    with pytest.raises(NotAGroupError, match="^empty table$"):
        build_conj([])


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
    # orbits are the cosets of mZ/n, and twist -1 gives the dihedral table
    for params in unit_pairs(30):
        result = check_quandle_structure(params)
        assert result.passed, (params, result.failures)


def test_is_connected():
    # connected means one orbit
    assert len(orbits(build_alexander(LinearAlexanderParams(5, 2)))) == 1
    assert len(orbits(build_alexander(LinearAlexanderParams(4, 3)))) != 1
    assert len(orbits(build_alexander(LinearAlexanderParams(2, 1)))) != 1


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
        "2\n0\u30001\n1 0\n",  # U+3000 IDEOGRAPHIC SPACE is not ASCII whitespace
        "2\n0 1\x1c1 0\n",  # nor is U+001C FILE SEPARATOR a line break
    ],
)
def test_parse_table_rejects(text):
    with pytest.raises(TableFormatError):
        parse_table(text)


def test_parse_table_reads_ascii_decimal_only():
    # int() reads "1_0" as 10 and ARABIC-INDIC DIGITs ONE and TWO as 1 and 2
    for text in ("2\n0 1_0\n1 0\n", "2\n0 \u0661\n1 0\n"):
        with pytest.raises(TableFormatError, match="is not an integer"):
            parse_table(text)
    with pytest.raises(TableFormatError, match="first line must be the size"):
        parse_table("\u0662\n0 1\n1 0\n")
