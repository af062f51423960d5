import ast
import pathlib

import quandlehom


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
