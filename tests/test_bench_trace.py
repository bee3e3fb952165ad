"""The benchmark's tracer still sees the program.

`bench/tracing.py` names `(module, function)` pairs in TIMED and COUNTED,
and `Tracer.install` fails on a missing one only in a traced benchmark run.
The first test reads the two tables from the file's source, without
importing or changing it, and resolves every name in `pdlsl`. The second
installs the tracer around an extraction and a check, as a traced benchmark
pass does, and compares its counts with the values computed directly, so a
stage that stops calling another through its module, or a sequence whose
`frames` no longer counts them, fails here.
"""

import ast
import importlib
import importlib.util
import json
import pathlib

import pytest

import pdlsl

from conftest import EXAMPLES

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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


STAGES = ("tracking_from_json", "normalize_sequence", "validate_sequence", "segment",
          "posture_valuation", "transition_action", "build_model")


@pytest.mark.parametrize("fixture", ["route_clean", "route_dropout"])
def test_traced_pass_counts_what_it_traces(fixture):
    # The tracer wraps module attributes, so every call below goes through
    # the package, as the benchmark's own calls do.
    doc = json.loads((EXAMPLES / f"{fixture}.tracking.json").read_text(encoding="utf-8"))
    lexicon = pdlsl.parse_lexicon((EXAMPLES / "route.pdlsl").read_text(encoding="utf-8"))
    handedness = pdlsl.Handedness("right")
    seq = pdlsl.tracking_from_json(doc)
    model, diagnostics = pdlsl.extract_model(seq)
    report = pdlsl.verify(model, lexicon, handedness)

    tracer = _load_tracer()()
    tracer.install()
    try:
        traced_model, _ = pdlsl.extract_model(pdlsl.tracking_from_json(doc))
        traced_report = pdlsl.verify(traced_model, lexicon, handedness)
    finally:
        tracer.uninstall()

    assert traced_report.to_json() == report.to_json()
    counts = tracer.counts
    assert counts["extract.frames"] == len(seq.frames) == len(doc["frames"])
    assert counts["extract.states"] == model.state_count
    assert counts["extract.diagnostics"] == len(diagnostics)
    assert counts["check.pairs"] == model.state_count * len(lexicon.entries)
    assert all(counts[f"extract.{stage}"] > 0 for stage in STAGES)
    assert counts["extract.compute_velocities"] > 0
