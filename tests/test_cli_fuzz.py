"""Seeded fuzz of ``cli.main`` over valid and malformed words, tables, moduli,
twists and flags: argparse refusals return 2 with empty stdout, and every
other input prints exactly one JSON report and returns 0, 1 or 3.  Moduli
stay at most 30 (8 for chain homology) and ``verify --n-max`` at most 3.
"""

import json
import random

from quandlehom.cli import main

WORD_PIECES = [
    "e0", "e1", "e2", "e5^-3", "e7^2", "e1^1000000000000", "e29", "e30",
    "e", "e-1", "e1^", "e1^0", "e1^-", "f1", "1", "^2", "e1_0", "e٣",
    "e1　e2", "e1\x1ce2", "e1\xa0e2", "E1", "e+1", "e1^+2", "e 1",
    " ", "\t", "\n", "",
    # past the interpreter's 4,300-digit int-string limit
    "e1^" + "7" * 5000, "e" + "0" * 4999 + "1",
]

TABLE_ROWS = [
    "2\n0 1\n1 0\n", "3\n0 2 1\n2 1 0\n1 0 2\n", "2\n1 0\n1 0\n",
    "3\n0 2 0\n2 1 1\n1 0 2\n", "2\n0 1\n", "2\n0 1 1\n1 0\n", "1\n2\n",
    "2\n0 a\n1 0\n", "0\n", "", "x\n0", "2\n0 1_0\n1 0\n", "٢\n0 1\n1 0\n",
    "2\n0　1\n1 0\n", "2\n0 1\x1c1 0\n", "2\r\n0 1\r\n1 0\r\n",
    "-1\n", "2\n0 -1\n1 0\n", "1\n0\n",
    "1" * 5000 + "\n0\n", "2\n0 " + "0" * 5000 + "1\n1 0\n",
]

NUMBERS = ["0", "1", "-1", "x", "", "1.5", "0x3", " 7", "1_0", "٣"]


def _number(rng, low, high):
    return rng.choice(NUMBERS) if rng.random() < 0.2 else str(rng.randint(low, high))


def _word(rng):
    return " ".join(rng.choice(WORD_PIECES) for _ in range(rng.randint(0, 6)))


def _table_path(rng, tmp_path, index):
    kind = rng.random()
    if kind < 0.1:
        return str(tmp_path / "missing.tbl")
    if kind < 0.15:
        return str(tmp_path)  # a directory, not a file
    path = tmp_path / f"t{index}.tbl"
    if kind < 0.25:
        path.write_bytes(b"2\n0 1\n\xff\xfe 0\n")  # not UTF-8
    else:
        path.write_text(rng.choice(TABLE_ROWS), encoding="utf-8")
    return str(path)


def _argv(rng, tmp_path, index):
    # verify costs up to half a second at --n-max 3, so it is drawn rarely
    command = "verify" if rng.random() < 0.03 else rng.choice(
        ["h2", "h2", "orbits", "normal-form", "normal-form", "phi-table", "axioms",
         "nonsense"]
    )
    argv = [command]
    method = rng.choice(["formula", "eisermann", "chain", "guess", None])
    if command in ("h2", "orbits", "phi-table", "normal-form"):
        top = 8 if command == "h2" and method == "chain" else 30
        argv += ["--n", _number(rng, -3, top), "--t", _number(rng, -40, 40)]
    if command == "h2" and method:
        argv += ["--method", method]
    elif command == "normal-form":
        argv += ["--word", _word(rng)] + (["--trace"] if rng.random() < 0.5 else [])
    elif command == "axioms":
        argv += ["--table", _table_path(rng, tmp_path, index)]
    elif command == "verify":
        argv += ["--n-max", str(rng.randint(-1, 3))]
        for flag in ("--seed", "--word-samples", "--rewrite-samples"):
            if rng.random() < 0.5:
                argv += [flag, str(rng.randint(-2, 5))]
    # malformed flags: drop one argument, add an unknown flag, or repeat one
    mutation = rng.random()
    if mutation < 0.1 and len(argv) > 1:
        del argv[rng.randrange(1, len(argv))]
    elif mutation < 0.15:
        argv.insert(rng.randrange(1, len(argv) + 1), "--bogus")
    elif mutation < 0.2 and len(argv) > 2:
        argv += argv[1:3]
    return argv


def test_cli_fuzz_gives_one_report_or_a_flag_refusal(tmp_path, capsys):
    rng = random.Random(20261018)
    codes = set()
    for index in range(300):
        argv = _argv(rng, tmp_path, index)
        code = main(argv)
        out = capsys.readouterr().out
        codes.add(code)
        if code == 2:
            assert out == "", argv
            continue
        assert code in (0, 1, 3), (argv, code)
        report = json.loads(out)  # exactly one JSON document, nothing else
        assert out == json.dumps(report, indent=2) + "\n", argv
        assert report["command"] == argv[0], argv
        assert report["status"] == ("error" if code == 3 else "ok"), argv
    assert {0, 2, 3} <= codes
