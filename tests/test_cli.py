import json
import os
import pathlib
import subprocess
import sys

import quandlehom
from quandlehom import cli, homology
from quandlehom.checks import unit_pairs
from quandlehom.cocycle import extension_cocycle
from quandlehom.cli import main
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
    # the command repeats the m x m residue block; the reference asks the
    # closed form once per entry
    parser = cli._build_parser()
    for params in unit_pairs(12):
        args = parser.parse_args(["phi-table", "--n", str(params.n), "--t", str(params.t)])
        report, code = args.handler(args)
        n = params.n
        table = [
            [list(extension_cocycle(params, (0, a), (0, b)).v) for b in range(n)]
            for a in range(n)
        ]
        assert code == 0
        assert report["result"] == {"m": params.num_orbits, "table": table}, params


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
    real = homology._boundary_blocks

    def broken(quandle):
        # bump one d3 entry in a row that d2 does not kill, so d2 @ d3 != 0
        for block, d2, d3 in real(quandle):
            hit = next((k for row in d2 for k in row), None)
            if hit is not None and any(d3):
                d3[hit][0] = d3[hit].get(0, 0) + 1
            yield block, d2, d3

    monkeypatch.setattr(homology, "_boundary_blocks", broken)
    code, report = run_cli(
        capsys, "verify", "--n-max", "3", "--word-samples", "5", "--rewrite-samples", "5"
    )
    assert code == 1
    failed = [case for case in report["result"]["cases"] if not case["passed"]]
    assert [(case["name"], case["context"]) for case in failed] == [
        ("h2-oracles", {"n": 3, "t": 2})
    ]
    assert failed[0]["checks"] == 5
    # each of the four checks on the chain answer prints the error's own text
    assert failed[0]["failures"] == ["chain complex route failed: d_low @ d_high is nonzero"] * 4
    assert report["result"]["summary"]["failed_families"] == 1


def test_verify_reports_boundary_term_outside_its_block(capsys, monkeypatch):
    real = homology.orbits

    def split(quandle):
        # move the last element of the first block of two or more into a
        # block of its own.  The table closes each true orbit, so only a
        # wrong partition can send a term such as (x<|y, z) outside its block
        blocks = real(quandle)
        for i, block in enumerate(blocks):
            if len(block) > 1:
                return blocks[:i] + [block[:-1], block[-1:]] + blocks[i + 1 :]
        return blocks

    monkeypatch.setattr(homology, "orbits", split)
    code, report = run_cli(
        capsys, "verify", "--n-max", "3", "--word-samples", "5", "--rewrite-samples", "5"
    )
    assert code == 1
    failed = [case for case in report["result"]["cases"] if not case["passed"]]
    assert [(case["name"], case["context"]) for case in failed] == [
        ("h2-oracles", {"n": 3, "t": 2})
    ]
    assert failed[0]["checks"] == 5
    assert any("outside its block" in text for text in failed[0]["failures"])
    assert report["result"]["summary"]["failed_families"] == 1


def test_word_syntax_error(capsys):
    code, report = run_cli(
        capsys, "normal-form", "--n", "4", "--t", "3", "--word", "e9"
    )
    assert code == 3
    assert report["error"]["code"] == "WordSyntax"
    # ARABIC-INDIC DIGIT THREE, which \d would read as 3
    code, report = run_cli(
        capsys, "normal-form", "--n", "6", "--t", "5", "--word", "e\u0663"
    )
    assert code == 3
    assert report["error"]["message"] == "bad token 'e\u0663'"
    # U+3000 IDEOGRAPHIC SPACE does not separate tokens
    code, report = run_cli(
        capsys, "normal-form", "--n", "6", "--t", "5", "--word", "e1\u3000e2"
    )
    assert code == 3
    assert report["error"]["code"] == "WordSyntax"


def test_numerals_past_the_int_string_limit_are_refused(tmp_path, capsys):
    # int() raises ValueError past sys.get_int_max_str_digits() (4,300 by
    # default); each case must still end in one report and exit code 3
    huge = "9" * 5000
    src = str(pathlib.Path(quandlehom.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-m", "quandlehom.cli", "normal-form", "--n", "4", "--t", "3",
         "--word", f"e1^{huge}"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert (child.returncode, child.stderr) == (3, "")
    assert json.loads(child.stdout)["error"]["code"] == "WordSyntax"
    code, report = run_cli(capsys, "normal-form", "--n", "4", "--t", "3", "--word", f"e{huge}")
    assert code == 3 and report["error"]["code"] == "WordSyntax"
    for name, text in (("size", f"{huge}\n0\n"), ("entry", f"2\n0 {'0' * 5000}1\n1 0\n")):
        path = tmp_path / f"{name}.tbl"
        path.write_text(text, encoding="utf-8")
        code = main(["axioms", "--table", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (3, ""), name
        assert json.loads(captured.out)["error"]["code"] == "TableFormat", name


def test_words_past_the_printable_bound_are_refused(capsys):
    # sum |e| + n (L + 1) bounds every int a normal-form report prints; a word
    # whose bound reaches 10^4300 (the default int-string limit) is refused
    # up front, with or without --trace, and one just under it is printed
    nines = "9" * 4300
    src = str(pathlib.Path(quandlehom.__file__).resolve().parents[1])
    for word, flags in ((f"e0^{nines} e0^{nines}", []), (f"e2 e1^-{nines}", ["--trace"])):
        child = subprocess.run(
            [sys.executable, "-m", "quandlehom.cli", "normal-form", "--n", "4", "--t", "3",
             "--word", word, *flags],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert (child.returncode, child.stderr) == (3, ""), flags
        assert json.loads(child.stdout)["error"]["code"] == "WordSyntax", flags
    for word in (f"e3^-{nines} e0", f"e0^{nines}"):
        for flags in ([], ["--trace"]):
            code = main(["normal-form", "--n", "4", "--t", "3", "--word", word, *flags])
            captured = capsys.readouterr()
            assert (code, captured.err) == (3, "")
            assert json.loads(captured.out)["error"]["code"] == "WordSyntax"
    # 1 + (10^4300 - 14) + 4 * 3 = 10^4300 - 1
    under = 10**4300 - 14
    for flags in ([], ["--trace"]):
        code = main(["normal-form", "--n", "4", "--t", "3", "--word", f"e2 e1^-{under}", *flags])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["result"]["degree"] == 1 - under
    code, report = run_cli(
        capsys, "normal-form", "--n", "4", "--t", "3", "--word", f"e2 e1^-{under + 1}"
    )
    assert code == 3 and report["error"]["code"] == "WordSyntax"


def test_axioms_non_utf8_table(tmp_path, capsys):
    path = tmp_path / "binary.tbl"
    path.write_bytes(b"2\n0 1\n\xff\xfe 0\n")
    code = main(["axioms", "--table", str(path)])
    out = capsys.readouterr().out
    assert code == 3
    report = json.loads(out)  # one JSON object, no traceback
    assert report["status"] == "error"
    assert report["error"]["code"] == "TableFormat"


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


def test_reused_parser_answers_like_a_fresh_process(capsys, monkeypatch):
    # the help text wraps to the terminal width, so pin it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    src = str(pathlib.Path(quandlehom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    h2 = ["h2", "--n", "12", "--t", "5", "--method", "eisermann"]
    calls = [
        h2,
        ["h2", "--n", "12"],  # --t missing: usage on stderr, exit 2
        ["--help"],
        ["normal-form", "--n", "9", "--t", "4", "--word", "e5^-1 e0 e7 e3^-2", "--trace"],
        h2,
    ]
    for argv in calls:
        code = main(list(argv))
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "quandlehom.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv
    assert cli._build_parser.cache_info().currsize == 1


def test_json_roundtrips_byte_identical(capsys):
    main(["h2", "--n", "9", "--t", "4"])
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
    main(["normal-form", "--n", "4", "--t", "3", "--word", "e2 e3", "--trace"])
    out = capsys.readouterr().out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_report_writer_equals_json_dumps():
    values = [
        {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]]],
        True, False, None, [True, False, None], {"ok": True, "none": None},
        "", "caf\u00e9 \x00\x1f\x7f \u2028 \U0001f600 \"\\/",
        {"\u00e9\n\t": "\x01", "": ""}, ["\u00e9", "\r"],
        0, -5, 10**999, -(10**999), [10**999, -1, 0],
        [1, "a", [2, [3]], {"b": None}, True, [], [[1], []], [[True]], [[1, True]]],
        [[1, 2], [3], [-4]], {"m": 2, "table": [[[1, -1], [0, 0]], [[-1, 1], [0, 0]]]},
        {1: [1, 2], "a": {None: (3, 4)}}, 1.5, [0.5, 1],
    ]
    for value in values:
        assert cli._dumps(value) == json.dumps(value, indent=2), value
    parser = cli._build_parser()
    for params in unit_pairs(12):
        for command in ("phi-table", "orbits"):
            args = parser.parse_args([command, "--n", str(params.n), "--t", str(params.t)])
            report, _ = args.handler(args)
            assert cli._dumps(report) == json.dumps(report, indent=2), (command, params)


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


def test_closed_pipe_leaves_stderr_empty():
    # a 371 kB report, far more than a pipe buffers, so the write must fail
    src = str(pathlib.Path(quandlehom.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "quandlehom.cli", "phi-table", "--n", "30", "--t", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert stderr == b""
