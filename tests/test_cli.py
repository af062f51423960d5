import dataclasses
import json

from quandlehom import checks
from quandlehom.cli import main
from quandlehom.intlinalg import IntMatrix
from quandlehom.quandle import LinearAlexanderParams, build_alexander, format_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out) if captured.out.strip() else None


def test_h2_formula_example(capsys):
    code, report = run_cli(capsys, "h2", "--n", "9", "--t", "4", "--method", "formula")
    assert code == 0
    assert report["status"] == "ok"
    assert report["result"] == {"rank": 6, "torsion": [3, 3, 3]}


def test_h2_chain_example(capsys):
    code, report = run_cli(capsys, "h2", "--n", "5", "--t", "2", "--method", "chain")
    assert code == 0
    assert report["result"] == {"rank": 0, "torsion": []}


def test_h2_methods_agree(capsys):
    results = []
    for method in ("formula", "eisermann", "chain"):
        code, report = run_cli(capsys, "h2", "--n", "8", "--t", "3", "--method", method)
        assert code == 0
        results.append(report["result"])
    assert results[0] == results[1] == results[2] == {"rank": 2, "torsion": [2, 2]}


def test_orbits(capsys):
    code, report = run_cli(capsys, "orbits", "--n", "4", "--t", "3")
    assert code == 0
    assert report["result"] == {"m": 2, "orbits": [[0, 2], [1, 3]]}


def test_normal_form(capsys):
    code, report = run_cli(
        capsys, "normal-form", "--n", "4", "--t", "3", "--word", "e2 e3"
    )
    assert code == 0
    result = report["result"]
    assert result["packed"] == {"v": [1, 1], "a": 1}
    assert result["canonical"] == "e1 e2"
    assert "trace" not in result


def test_normal_form_trace(capsys):
    code, report = run_cli(
        capsys, "normal-form", "--n", "4", "--t", "3", "--word", "e2 e3", "--trace"
    )
    assert code == 0
    trace = report["result"]["trace"]
    assert trace
    assert {step["rule"] for step in trace} <= {"braid", "central-power", "relation"}
    assert trace[-1]["word"] == "e1 e2"


def test_phi_table(capsys):
    code, report = run_cli(capsys, "phi-table", "--n", "4", "--t", "3")
    assert code == 0
    result = report["result"]
    assert result["m"] == 2
    table = result["table"]
    assert table[1][1] == [-2, 2]
    for a in range(4):
        assert table[a][0] == [0, 0]
        assert table[0][a] == [0, 0]


def test_axioms_valid(tmp_path, capsys):
    path = tmp_path / "al43.tbl"
    path.write_text(format_table(build_alexander(LinearAlexanderParams(4, 3))))
    code, report = run_cli(capsys, "axioms", "--table", str(path))
    assert code == 0
    assert report["result"] == {"n": 4, "valid": True}


def test_axioms_violation(tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_text("2\n1 0\n1 0\n")
    code, report = run_cli(capsys, "axioms", "--table", str(path))
    assert code == 3
    assert report["status"] == "error"
    assert report["error"]["axiom"] == "idempotence"
    assert report["error"]["witness"] == [0]


def test_axioms_format_error(tmp_path, capsys):
    path = tmp_path / "ragged.tbl"
    path.write_text("2\n0 1 1\n1 0\n")
    code, report = run_cli(capsys, "axioms", "--table", str(path))
    assert code == 3
    assert report["error"]["code"] == "TableFormat"


def test_missing_table_file(capsys):
    code, report = run_cli(capsys, "axioms", "--table", "/nonexistent/q.tbl")
    assert code == 3
    assert report["error"]["code"] == "IO"


def test_not_a_unit(capsys):
    code, report = run_cli(capsys, "h2", "--n", "9", "--t", "3")
    assert code == 3
    assert report["error"]["code"] == "NotAUnit"


def test_bad_modulus(capsys):
    for n in ("0", "-3"):
        for command in ("h2", "orbits", "normal-form"):
            argv = [command, "--n", n, "--t", "1"]
            if command == "normal-form":
                argv += ["--word", "e0"]
            code, report = run_cli(capsys, *argv)
            assert code == 3
            assert report["error"]["code"] == "BadModulus"


def test_verify_refuses_negative_samples(capsys):
    for flag in ("--word-samples", "--rewrite-samples"):
        code, report = run_cli(capsys, "verify", "--n-max", "2", flag, "-3")
        assert code == 3
        assert report["status"] == "error"
        assert report["error"]["code"] == "NegativeCount"
    code, report = run_cli(
        capsys, "verify", "--n-max", "2", "--word-samples", "0", "--rewrite-samples", "0"
    )
    assert code == 0


def test_verify_reports_broken_boundary_map(capsys, monkeypatch):
    real = checks.boundary_matrices

    def broken(quandle):
        # bump one d3 entry in a row that d2 does not kill, so d2 @ d3 != 0
        pair = real(quandle)
        d3 = IntMatrix(pair.d3.data)
        for i in range(d3.rows):
            if d3.cols and any(row[i] for row in pair.d2.data):
                d3.data[i][0] += 1
                break
        return dataclasses.replace(pair, d3=d3)

    monkeypatch.setattr(checks, "boundary_matrices", broken)
    code, report = run_cli(
        capsys, "verify", "--n-max", "3", "--word-samples", "5", "--rewrite-samples", "5"
    )
    assert code == 1
    failed = [case for case in report["result"]["cases"] if not case["passed"]]
    assert [(case["name"], case["context"]) for case in failed] == [
        ("h2-oracles", {"n": 3, "t": 2})
    ]
    assert failed[0]["checks"] == 5
    assert "d2 @ d3 != 0" in failed[0]["failures"]
    assert report["result"]["summary"]["failed_families"] == 1


def test_word_syntax_error(capsys):
    code, report = run_cli(
        capsys, "normal-form", "--n", "4", "--t", "3", "--word", "e9"
    )
    assert code == 3
    assert report["error"]["code"] == "WordSyntax"


def test_verify_refuses_empty_range(capsys):
    for n_max in ("0", "-1"):
        code, report = run_cli(capsys, "verify", "--n-max", n_max)
        assert code == 3
        assert report["status"] == "error"
        assert report["error"]["code"] == "EmptyRange"


def test_bad_flags_exit_two(capsys):
    assert main(["h2", "--n", "5"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["h2", "--n", "5", "--t", "2", "--method", "guess"]) == 2
    capsys.readouterr()


def test_json_roundtrips_byte_identical(capsys):
    main(["h2", "--n", "9", "--t", "4"])
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
    main(["normal-form", "--n", "4", "--t", "3", "--word", "e2 e3", "--trace"])
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_verify_small(capsys):
    code, report = run_cli(
        capsys,
        "verify",
        "--n-max",
        "3",
        "--seed",
        "7",
        "--word-samples",
        "25",
        "--rewrite-samples",
        "10",
    )
    assert code == 0
    result = report["result"]
    summary = result["summary"]
    assert summary["families"] == len(result["cases"])
    assert summary["checks"] == sum(case["checks"] for case in result["cases"])
    assert summary["failed_families"] == 0
    assert all(case["passed"] for case in result["cases"])
    # canonical ordering: cases sorted by modulus then twist
    keyed = [
        (case["context"]["n"], case["context"]["t"])
        for case in result["cases"]
        if "n" in case["context"]
    ]
    assert keyed == sorted(keyed)
