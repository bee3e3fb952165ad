import contextlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

import pdlsl.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "docs" / "examples"


def bench_gen():
    """The benchmark's seeded input generators, `bench/gen.py` (standard
    library only)."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def stderr_records(err: str) -> list[dict]:
    """Each line of a `pdlsl` run's stderr, read as a diagnostic record: one
    JSON object with a `diagnostic` code, a `severity` and a `message`. Any
    other text on stderr fails the calling test."""
    lines = err.split("\n")
    assert lines.pop() == "", err  # every record ends its line
    records = [json.loads(line) for line in lines]
    for record in records:
        assert isinstance(record, dict), record
        assert isinstance(record.get("diagnostic"), str), record
        assert record.get("severity") in ("error", "warning"), record
        assert isinstance(record.get("message"), str), record
    return records


def main(argv):
    """`pdlsl.cli.main`, with what it writes to stderr checked by
    `stderr_records` and then written on, for the caller to read."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = pdlsl.cli.main(argv)
    stderr_records(err.getvalue())
    sys.stderr.write(err.getvalue())
    return code


@pytest.fixture(scope="session")
def route_tracking_doc():
    return json.loads((EXAMPLES / "route_clean.tracking.json").read_text())


@pytest.fixture(scope="session")
def route_lexicon_text():
    return (EXAMPLES / "route.pdlsl").read_text()
