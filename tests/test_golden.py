"""Golden outputs of the command line on the three shipped fixtures.

Each test runs `pdlsl` in-process and compares its output byte for byte
with a file under `tests/golden/`:

* `<fixture>.model.json` - `pdlsl extract <fixture>.tracking.json`;
* `<fixture>.<dominant>.report.json` - `pdlsl check` of that model with
  `route.pdlsl` and `route.overrides`, for both dominant hands;
* `eval.tsv` - `pdlsl eval` of ROUTE sub-formulas at every state of each
  model, one `fixture, dominant, state, formula, output` row per line.

After a deliberate change of output, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import json
import pathlib

import pytest

from pdlsl.cli import main

from conftest import EXAMPLES

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
FIXTURES = ("route_clean", "route_dropout", "route_teleport")
DOMINANTS = ("right", "left")
LEXICON = str(EXAMPLES / "route.pdlsl")
OVERRIDES = str(EXAMPLES / "route.overrides")
EVAL_FORMULAS = (
    "at(R,FACE) /\\ at(L,FACE) /\\ dir(L,R,E) /\\ cfg(R,CLAMP) /\\ cfg(L,CLAMP) /\\ touch(R,L)",
    "[move(R,W) & move(L,E)] (dir(L,R,E) /\\ cfg(R,CLAMP) /\\ cfg(L,CLAMP) /\\ !touch(R,L))",
    "(at(R,FACE) /\\ at(L,FACE) /\\ dir(L,R,E) /\\ cfg(R,CLAMP) /\\ cfg(L,CLAMP) /\\ touch(R,L))"
    " -> [move(R,W) & move(L,E)] (dir(L,R,E) /\\ cfg(R,CLAMP) /\\ cfg(L,CLAMP) /\\ !touch(R,L))",
    "dir(L,R,E) /\\ !touch(R,L)",
    "<move(R,W) & move(L,E)> true",
    "[(move(R,W) & move(L,E))*] cfg(R,CLAMP)",
    "touch(D,W) -> [move(D,W) & move(W,E)] !touch(D,W)",
)


def _model_path(fixture: str) -> str:
    return str(GOLDEN / f"{fixture}.model.json")


def _run(argv: list[str], capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _extract(fixture: str, out: pathlib.Path) -> bytes:
    assert main(["extract", str(EXAMPLES / f"{fixture}.tracking.json"), "-o", str(out)]) == 0
    return out.read_bytes()


def _check(fixture: str, dominant: str, out: pathlib.Path) -> bytes:
    argv = ["check", _model_path(fixture), LEXICON, "--overrides", OVERRIDES,
            "--dominant", dominant, "-o", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


def _eval_rows(run) -> str:
    lines = []
    for fixture in FIXTURES:
        states = json.loads(pathlib.Path(_model_path(fixture)).read_text())["states"]
        for dominant in DOMINANTS:
            for state in range(states):
                for formula in EVAL_FORMULAS:
                    out = run(["eval", _model_path(fixture), formula, str(state),
                               "--dominant", dominant])
                    row = (fixture, dominant, str(state), formula, out.rstrip("\n"))
                    lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_extract_matches_golden(fixture, tmp_path):
    got = _extract(fixture, tmp_path / "model.json")
    assert got == (GOLDEN / f"{fixture}.model.json").read_bytes()


@pytest.mark.parametrize("dominant", DOMINANTS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_check_matches_golden(fixture, dominant, tmp_path):
    got = _check(fixture, dominant, tmp_path / "report.json")
    assert got == (GOLDEN / f"{fixture}.{dominant}.report.json").read_bytes()


def test_eval_matches_golden(capsys):
    got = _eval_rows(lambda argv: _run(argv, capsys))
    assert got.encode("utf-8") == (GOLDEN / "eval.tsv").read_bytes()


def regenerate() -> None:
    """Rewrite every golden file from the current code."""
    import contextlib
    import io

    def run(argv: list[str]) -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0
        return buffer.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        for fixture in FIXTURES:
            _extract(fixture, GOLDEN / f"{fixture}.model.json")
        for fixture in FIXTURES:
            for dominant in DOMINANTS:
                _check(fixture, dominant, GOLDEN / f"{fixture}.{dominant}.report.json")
    (GOLDEN / "eval.tsv").write_bytes(_eval_rows(run).encode("utf-8"))


if __name__ == "__main__":
    regenerate()
