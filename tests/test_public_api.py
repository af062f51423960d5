import ast
import pathlib
import subprocess
import sys

import quandlehom

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _imported_public_names():
    source = pathlib.Path(quandlehom.__file__).read_text(encoding="utf-8")
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            names.update(
                alias.asname or alias.name
                for alias in node.names
                if not (alias.asname or alias.name).startswith("_")
            )
    return names


def test_every_export_resolves():
    for name in quandlehom.__all__:
        assert getattr(quandlehom, name, None) is not None, name
    namespace = {}
    exec("from quandlehom import *", namespace)
    assert set(quandlehom.__all__) <= set(namespace)


def test_exports_have_no_duplicates():
    assert len(quandlehom.__all__) == len(set(quandlehom.__all__))


def test_exports_are_exactly_the_imported_names():
    # a name imported but not exported, or exported but no longer imported,
    # both mean the public surface drifted from the modules behind it
    assert set(quandlehom.__all__) == _imported_public_names()


def test_cli_import_leaves_heavy_standard_modules_out():
    # -I -S: no site hooks, so sys.modules holds only what the import pulled
    # in; dataclasses alone brought inspect, ast, dis and tokenize
    child = subprocess.run(
        [
            sys.executable,
            "-I",
            "-S",
            "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); import quandlehom.cli; "
            "print(quandlehom.cli.__file__); print(*sorted(sys.modules))",
            str(SRC),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    where, loaded = child.stdout.splitlines()
    assert pathlib.Path(where).resolve().is_relative_to(SRC)
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
    assert not heavy & set(loaded.split())
