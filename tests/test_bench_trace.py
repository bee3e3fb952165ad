"""The functions the benchmark's tracer wraps still exist.

`bench/tracing.py` names `(module, function)` pairs in TIMED and COUNTED,
and `Tracer.install` fails on a missing one only in a traced benchmark run.
This test reads the two tables from the file's source, without importing
or changing it, and resolves every name in `pdlsl`.
"""

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    tables = {
        name: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and (name := getattr(node.targets[0], "id", None)) in ("TIMED", "COUNTED")
    }
    assert set(tables) == {"TIMED", "COUNTED"}
    return [(module, attr) for table in tables.values() for module, attr, _ in table]


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
