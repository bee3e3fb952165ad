import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pdlsl import (
    Handedness,
    extract_model,
    model_from_json,
    parse_lexicon,
    tracking_from_json,
    verify,
)
from pdlsl.cli import _dump_json

from conftest import EXAMPLES, ROOT, bench_gen, main, stderr_records

TRACKING = str(EXAMPLES / "route_clean.tracking.json")
LEXICON = str(EXAMPLES / "route.pdlsl")


def error(code, message, **position):
    """The one stderr record of a command that an error ends."""
    return [{"diagnostic": code, "severity": "error", "message": message, **position}]


@pytest.fixture()
def model_path(tmp_path):
    out = tmp_path / "route.model.json"
    assert main(["extract", TRACKING, "-o", str(out)]) == 0
    return str(out)


# --- extract -------------------------------------------------------------------


def test_extract_writes_model(model_path):
    doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
    assert doc["format"] == 1
    assert doc["states"] == 2
    model = model_from_json(doc)
    assert model.relation == frozenset({(0, 1), (1, 1)})


def test_extract_to_stdout(capsys):
    assert main(["extract", TRACKING]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"] == 2


def test_extract_missing_file(capsys):
    assert main(["extract", "/nonexistent/input.json"]) == 1
    assert "file not found" in capsys.readouterr().err


def test_output_and_input_paths_that_cannot_be_opened(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "m.json"
    assert main(["extract", TRACKING, "-o", str(out)]) == 1
    reason = os.strerror(errno.ENOENT)
    assert stderr_records(capsys.readouterr().err) == error(
        "cannot-write", f"cannot write {out}: {reason}")
    missing = tmp_path / "missing.json"
    for output in (out, missing):  # an input that is also the output is still read first
        assert main(["extract", str(missing), "-o", str(output)]) == 1
        assert stderr_records(capsys.readouterr().err) == error(
            "file-not-found", f"file not found: {missing}", file=str(missing))
    assert main(["extract", str(tmp_path)]) == 1
    reason = os.strerror(errno.EISDIR)
    assert stderr_records(capsys.readouterr().err) == error(
        "cannot-read", f"cannot read {tmp_path}: {reason}", file=str(tmp_path))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_output_that_fails_while_written(capsys):
    assert main(["extract", TRACKING, "-o", "/dev/full"]) == 1
    reason = os.strerror(errno.ENOSPC)
    assert stderr_records(capsys.readouterr().err) == error(
        "cannot-write", f"cannot write /dev/full: {reason}")


def run_into_closed_pipe(*argv):
    """Run `pdlsl` in a child process whose stdout is a pipe that nothing
    reads: its read end is closed before the child starts. Its exit code
    and stderr."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, "-m", "pdlsl.cli", *map(str, argv)], stdout=write,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


def test_closed_stdout_is_a_write_error(tmp_path, model_path):
    # A 200-posture model overflows the stdout buffer, so `extract` fails
    # while writing; `eval` writes one word, so it fails when it flushes.
    doc, _ = bench_gen().gen_utterance(random.Random(21), 200)
    tracking = tmp_path / "utterance.tracking.json"
    tracking.write_text(json.dumps(doc), encoding="utf-8")
    reason = os.strerror(errno.EPIPE)
    for argv in (["extract", tracking], ["eval", model_path, "true", "0"]):
        code, err = run_into_closed_pipe(*argv)
        # Every stderr line is a record: no "Exception ignored" line at exit.
        assert (code, stderr_records(err)) == (
            1, error("cannot-write", f"cannot write <stdout>: {reason}")), argv


def test_extract_non_monotone_frames(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "fps": 25,
        "frames": [
            {"t": 5, "right": {"pos": [0, 0]}},
            {"t": 3, "right": {"pos": [0, 0]}},
        ],
    }))
    assert main(["extract", str(bad)]) == 1
    assert "frame index" in capsys.readouterr().err


def test_extract_schema_error_has_pointer(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fps": 25, "frames": [{"t": 0, "right": {"pos": [1]}}]}))
    assert main(["extract", str(bad)]) == 1
    assert "/frames/0/right/pos" in capsys.readouterr().err


def test_extract_emits_teleport_diagnostics(capsys):
    assert main(["extract", str(EXAMPLES / "route_teleport.tracking.json")]) == 0
    err_lines = stderr_records(capsys.readouterr().err)
    assert any(d["diagnostic"] == "teleport" for d in err_lines)


# --- check ----------------------------------------------------------------------


def test_check_reports_route(model_path, capsys):
    assert main(["check", model_path, LEXICON]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["proposals"] == [
        {"state": 0, "signs": [{"sign": "ROUTE", "verdict": "match"}]},
        {"state": 1, "signs": []},
    ]


def test_check_table_same_content(model_path, capsys):
    assert main(["check", model_path, LEXICON]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["check", model_path, LEXICON, "--format", "table"]) == 0
    table = capsys.readouterr().out
    for state in doc["proposals"]:
        for sign in state["signs"]:
            assert f"s{state['state']}  {sign['sign']}  {sign['verdict']}" in table


def test_check_empty_result_is_success(model_path, tmp_path, capsys):
    lex = tmp_path / "none.pdlsl"
    lex.write_text("sign NOPE := at(R,NECK) /\\ touch(R,L) .\n")
    assert main(["check", model_path, str(lex)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(not s["signs"] for s in doc["proposals"])


def test_check_bad_lexicon_prints_span(model_path, tmp_path, capsys):
    lex = tmp_path / "bad.pdlsl"
    lex.write_text("sign BROKEN := touch(R,) .\n")
    assert main(["check", model_path, str(lex)]) == 1
    assert "1:24" in capsys.readouterr().err


def test_check_parse_errors_name_their_file(model_path, tmp_path, capsys):
    """The same bad atom in the lexicon and in the overrides file gives two
    errors that differ in the file they name."""
    lex = tmp_path / "bad.pdlsl"
    lex.write_text("sign BROKEN := at(Q,FACE) .\n")
    ov = tmp_path / "bad.overrides"
    ov.write_text("state 0: at(Q,FACE) = true\n")
    message = "unknown articulator 'Q' (expected D, L, R, W)"
    assert main(["check", model_path, str(lex)]) == 1
    assert stderr_records(capsys.readouterr().err) == error(
        "unknown-articulator", f"parse error: {lex}: 1:19: {message}", file=str(lex), line=1,
        column=19)
    assert main(["check", model_path, LEXICON, "--overrides", str(ov)]) == 1
    assert stderr_records(capsys.readouterr().err) == error(
        "unknown-articulator", f"parse error: {ov}: 1:13: {message}", file=str(ov), line=1,
        column=13)


def test_check_with_overrides(model_path, tmp_path, capsys):
    ov = tmp_path / "fix.overrides"
    ov.write_text("state 0: touch(R,L) = unknown\n")
    assert main(["check", model_path, LEXICON, "--overrides", str(ov)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["proposals"][0]["signs"] == [{"sign": "ROUTE", "verdict": "possible"}]


@pytest.mark.parametrize("line, message", [
    ("state 99: touch(R,L) = true", "override targets state 99"),
    ("state 0: touch(D,R) = true", "override for state 0 uses touch(D,R): D and R are the "
     "same hand for a right-dominant signer"),
])
def test_override_errors_name_the_overrides_file(model_path, tmp_path, capsys, line, message):
    ov = tmp_path / "fix.overrides"
    ov.write_text(f"state 0: touch(R,L) = unknown\n{line}\n")
    assert main(["check", model_path, LEXICON, "--overrides", str(ov)]) == 1
    code = "unknown-state" if line.startswith("state 99") else "alias-collision"
    assert stderr_records(capsys.readouterr().err) == error(code, f"{ov}: {message}",
                                                            file=str(ov))


@pytest.mark.parametrize(
    "fixture",
    ["route_clean.tracking.json", "route_dropout.tracking.json", "route_teleport.tracking.json"],
)
def test_pipeline_composition_matches_in_process(fixture, tmp_path, capsys):
    tracking = str(EXAMPLES / fixture)
    model_file = tmp_path / "m.json"
    assert main(["extract", tracking, "-o", str(model_file)]) == 0
    capsys.readouterr()
    assert main(["check", str(model_file), LEXICON]) == 0
    cli_text = capsys.readouterr().out

    lexicon = parse_lexicon(Path(LEXICON).read_text(encoding="utf-8"))
    seq = tracking_from_json(json.loads(Path(tracking).read_text(encoding="utf-8")))
    model, _ = extract_model(seq)
    report = verify(model, lexicon, Handedness.RIGHT_DOMINANT)
    in_process = json.dumps(report.to_json(), indent=2) + "\n"
    assert cli_text == in_process


def test_extract_output_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["extract", TRACKING, "-o", str(a)]) == 0
    assert main(["extract", TRACKING, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# Strings with quotes, backslashes, control characters and non-ASCII text
# (a line separator, an astral character), besides any Hypothesis draws.
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028\U0001f600a')) | st.text()
LEAVES = (TEXT | st.integers(-(10**40), 10**40) | st.integers() | st.floats()
          | st.booleans() | st.none())
DOCUMENTS = st.recursive(LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)), max_leaves=25)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(DOCUMENTS)
def test_dump_json_writes_the_bytes_of_json_dumps_indent_2(doc):
    assert _dump_json(doc) == json.dumps(doc, indent=2) + "\n"


# --- eval ------------------------------------------------------------------------


def test_eval_true(model_path, capsys):
    assert main(["eval", model_path, "true", "0"]) == 0
    assert capsys.readouterr().out.strip() == "True"


def test_eval_route_formula(model_path, capsys):
    formula = (
        "(at(R,FACE) /\\ at(L,FACE) /\\ dir(L,R,E) /\\ cfg(R,CLAMP) /\\ cfg(L,CLAMP)"
        " /\\ touch(R,L)) -> [move(R,W) & move(L,E)]"
        "(dir(L,R,E) /\\ cfg(R,CLAMP) /\\ cfg(L,CLAMP) /\\ !touch(R,L))"
    )
    assert main(["eval", model_path, formula, "0"]) == 0
    assert capsys.readouterr().out.strip() == "True"


def test_eval_unknown(model_path, capsys):
    assert main(["eval", model_path, "orient(R,N)", "0"]) == 0
    assert capsys.readouterr().out.strip() == "Unknown"


def test_eval_bad_state(model_path, capsys):
    assert main(["eval", model_path, "true", "9"]) == 1


def test_eval_grounds_with_dominant_flag(model_path, capsys):
    assert main(["eval", model_path, "[move(D,W)] true", "0"]) == 0
    assert capsys.readouterr().out.strip() == "True"


# --- lint -------------------------------------------------------------------------


def test_lint_clean(capsys):
    assert main(["lint", LEXICON]) == 0
    assert capsys.readouterr().err == ""


def test_lint_duplicate_two_spans(tmp_path, capsys):
    lex = tmp_path / "dup.pdlsl"
    lex.write_text("sign X := true .\nsign X := true .\n")
    assert main(["lint", str(lex)]) == 1
    err = capsys.readouterr().err
    assert err.count("duplicate sign") == 2


def test_lint_orientation_warning(tmp_path, capsys):
    lex = tmp_path / "orient.pdlsl"
    lex.write_text("sign X := orient(R,N) .\n")
    assert main(["lint", str(lex)]) == 0
    assert "orientation" in capsys.readouterr().err


def test_alias_collision_check_error_and_lint_warning(model_path, tmp_path, capsys):
    lex = tmp_path / "collide.pdlsl"
    lex.write_text("sign OK := true .\nsign X := touch(D,R) .\n")
    assert main(["check", model_path, str(lex)]) == 1
    assert stderr_records(capsys.readouterr().err) == error(
        "alias-collision",
        "sign 'X' uses touch(D,R): D and R are the same hand for a right-dominant signer")
    assert main(["check", model_path, str(lex), "--dominant", "left"]) == 0
    capsys.readouterr()
    # lint warns, naming the handedness, and accepts what check accepts for
    # some signer.
    assert main(["lint", str(lex)]) == 0
    assert stderr_records(capsys.readouterr().err) == [{
        "diagnostic": "alias-collision", "severity": "warning",
        "message": "sign 'X' uses touch(D,R): D and R are the same hand for a right-dominant "
                   "signer; check refuses this lexicon for such a signer",
        "file": str(lex), "line": 2, "column": 6,
    }]


def test_eval_alias_collision_spells_the_atom(model_path, capsys):
    assert main(["eval", model_path, "true /\\ dir(W,R,N)", "0", "--dominant", "left"]) == 1
    assert stderr_records(capsys.readouterr().err) == error(
        "alias-collision",
        "formula uses dir(W,R,N): W and R are the same hand for a left-dominant signer")


# --- configuration ------------------------------------------------------------------


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dominannt": "right"}))
    assert main(["extract", TRACKING, "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_unknown_segmentation_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"segmentation": {"tau": 1}}))
    assert main(["extract", TRACKING, "--config", str(cfg)]) == 2


def test_config_file_example_accepted(capsys):
    assert main(["extract", TRACKING, "--config", str(EXAMPLES / "config.json")]) == 0
    capsys.readouterr()


def test_flags_override_config(tmp_path, capsys):
    # Config says table; the flag forces json back on.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"format": "table"}))
    model_file = tmp_path / "m.json"
    assert main(["extract", TRACKING, "-o", str(model_file)]) == 0
    assert main(["check", str(model_file), LEXICON, "--config", str(cfg), "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


def test_mirrored_flag_flips_abscissa(tmp_path, capsys):
    model_file = tmp_path / "m.json"
    assert main(["extract", TRACKING, "--mirrored", "-o", str(model_file)]) == 0
    # Mirrored, the left hand sits west of the right one.
    assert main(["eval", str(model_file), "dir(L,R,W)", "0"]) == 0
    assert capsys.readouterr().out.strip() == "True"


def test_placemap_flag(tmp_path, capsys):
    assert main([
        "extract", TRACKING, "--placemap", str(EXAMPLES / "placemap.json"),
    ]) == 0
    capsys.readouterr()


# --- usage ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv, message", [
    (["eval", "MODEL", "true", "x"], "argument state: invalid int value: 'x'"),
    ([], "the following arguments are required: command"),
], ids=["state not an integer", "no command"])
def test_usage_error_is_one_record_with_argparse_message(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and stderr_records(err) == error("usage", message)


def test_help_goes_to_stdout(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["eval", "--help"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 0 and out.startswith("usage: pdlsl eval") and err == ""
