"""Run each demo and compare its stdout byte for byte with the recorded one.

``data/demos/<name>.txt`` holds the output of ``python demos/<name>.py``;
the demos are deterministic, so any difference is a change in what they
compute or print.
"""

import contextlib
import io
import pathlib
import runpy

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
DEMOS = TESTS.parent / "demos"


@pytest.mark.parametrize(
    "name", ["cocycle_kernel", "homology_three_ways", "normal_forms", "quandle_tables"]
)
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    expected = (TESTS / "data" / "demos" / f"{name}.txt").read_text(encoding="utf-8")
    assert out.getvalue() == expected
