"""Replay a recorded CLI corpus and compare every report byte for byte.

``data/cli_golden.json`` holds the table files the corpus reads and, per
case, the argv, the exit code and the exact stdout of ``cli.main``: h2 by
all three methods for every unit pair n <= 8, ``verify --n-max 3``,
``phi-table``, ``orbits``, ``normal-form`` with and without ``--trace``,
``axioms`` on a valid table and on each violated axiom, and a few error
reports.  A change that must keep reports byte-identical keeps this test
passing unchanged.
"""

import contextlib
import io
import json
import pathlib

from quandlehom import quandle
from quandlehom.cli import _dumps, main

CORPUS = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.json"


def _replay(tmp_path, monkeypatch):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    for name, text in corpus["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    # table paths are relative, so the reports' context is the recorded one
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for case in corpus["cases"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(case["argv"]))
        if (code, out.getvalue()) != (case["exit"], case["stdout"]):
            mismatches.append(case["argv"])
    assert len(corpus["cases"]) == 98
    assert not mismatches, mismatches


def test_cli_reports_match_golden_corpus(tmp_path, monkeypatch):
    _replay(tmp_path, monkeypatch)


def test_entry_reader_alone_reads_every_table(tmp_path, monkeypatch):
    # parse_table reads a row entry by entry when the fast reader refuses
    # it; refusing every row must give the same rows and name the same
    # first bad entry of each broken table
    monkeypatch.setattr(quandle, "_row", lambda line, n: None)
    _replay(tmp_path, monkeypatch)


def test_golden_reports_reserialize_to_their_own_bytes():
    # README: reports re-serialize byte-identically after parsing
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    for case in corpus["cases"]:
        report = json.loads(case["stdout"])
        assert _dumps(report) + "\n" == case["stdout"], case["argv"]
        assert json.dumps(report, indent=2) + "\n" == case["stdout"], case["argv"]
