"""Golden outputs of the command line on the three shipped fixtures.

Each test runs `pdlsl` in-process and compares its output byte for byte
with a file under `tests/golden/`; every line a run writes to stderr is a
diagnostic record:

* `<fixture>.model.json` - `pdlsl extract <fixture>.tracking.json`;
* `route_teleport.extract.stderr` - the diagnostic records that
  `pdlsl extract route_teleport.tracking.json` writes to stderr;
* `lint.stderr` - the records of `pdlsl lint` on `lint_warnings.pdlsl`
  (an orientation and an alias-collision warning, exit code 0), then on
  `lint_duplicate.pdlsl` (a duplicate sign, exit code 1), then on
  `lint_duplicates.pdlsl` (a sign defined three times beside the two
  warnings, exit code 1), run from `tests/golden/`;
* `<fixture>.<dominant>.report.json` - `pdlsl check` of that model with
  `route.pdlsl` and `route.overrides`, for both dominant hands;
* `eval.tsv` - `pdlsl eval` of ROUTE sub-formulas at every state of each
  model, one `fixture, dominant, state, formula, output` row per line;
* `extract.tsv` - 200 seeded tracking documents from `_gen.gen_tracking`,
  run through `tracking_from_json` and `extract_model`, with the sha256 of
  the model file and the diagnostics, or the error, of each;
* `labels.tsv` - the same 200 documents and the three fixtures, extracted,
  with the state count, the sha256 of the model file without its
  `valuation` key, and the sha256 of the `(lo, hi)` label of every atom of
  `_gen.vocabulary`, or the error, of each: what the model says, however
  many of its cells the file lists;
* `load.tsv` - 300 seeded model documents from `_gen.gen_model_doc`, a third
  valid and the rest with one or two defects each, run through
  `model_from_json`, with the sha256 of the model file written back, or
  `SchemaError: pointer: message`;
* `parse.tsv` - about 1,500 seeded inputs built from grammar fragments,
  with the outcome of each parser entry point: the printed tree, or
  `Class line:col+len message (expected ...)` for a parse error.

A last test checks, on the runs of `labels.tsv`, that extraction lists no
cell whose documented default (`test_labeler._reference_atom_value`)
gives the same value.

After a deliberate change of output, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random

import pytest

import pdlsl.check
import pdlsl.cli
import pdlsl.core
from pdlsl.cli import _dump_json
from pdlsl.errors import ParseError, PdlslError, SchemaError
from pdlsl.extract import extract_model, tracking_from_json
from pdlsl.geometry import DEFAULT_PLACE_MAP
from pdlsl.model import _Labeler, model_from_json, model_to_json
from pdlsl.parsing import (
    MAX_DEPTH,
    parse_action,
    parse_atom,
    parse_atomic_action,
    parse_formula,
    parse_lexicon,
    print_action,
    print_atom,
    print_atomic_action,
    print_formula,
)

from _gen import MODEL_ATOM_TEXTS, gen_model_doc, gen_tracking, vocabulary
from conftest import EXAMPLES, main, stderr_records
from test_labeler import _reference_atom_value

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


def _main(argv: list[str], code: int = 0) -> tuple[str, str]:
    """Stdout and stderr of a `pdlsl` run that exits with `code`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    return out.getvalue(), err.getvalue()


def _run(argv: list[str]) -> str:
    return _main(argv)[0]


def _extract(fixture: str, out: pathlib.Path) -> tuple[bytes, str]:
    """The model file and the stderr of `pdlsl extract` on a fixture."""
    _, err = _main(["extract", str(EXAMPLES / f"{fixture}.tracking.json"), "-o", str(out)])
    return out.read_bytes(), err


def _check(fixture: str, dominant: str, out: pathlib.Path) -> bytes:
    argv = ["check", _model_path(fixture), LEXICON, "--overrides", OVERRIDES,
            "--dominant", dominant, "-o", str(out)]
    _main(argv)
    return out.read_bytes()


def _lint_stderr() -> str:
    """The stderr of `pdlsl lint` on each golden lexicon, run from
    `tests/golden/`, so that each record names its file as `lint.stderr` does."""
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        return "".join(_main(["lint", name], code)[1]
                       for name, code in (("lint_warnings.pdlsl", 0), ("lint_duplicate.pdlsl", 1),
                                          ("lint_duplicates.pdlsl", 1)))
    finally:
        os.chdir(cwd)


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


def _print_lexicon(lexicon) -> str:
    return " ".join(
        f"{e.name}@{e.span.line}:{e.span.column}+{e.span.length} := {print_formula(e.formula)} ."
        for e in lexicon.entries
    ) or "(no entries)"


PARSE_ENTRIES = (
    ("formula", parse_formula, print_formula),
    ("action", parse_action, print_action),
    ("atom", parse_atom, print_atom),
    ("atomic_action", parse_atomic_action, print_atomic_action),
    ("lexicon", parse_lexicon, _print_lexicon),
)
ARTS = ("R", "L", "D", "W")
DIRS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
NAMES = ("FACE", "CHEST", "CLAMP", "B_2", "x1")
SEPARATORS = (" ", " ", " ", "", "  ", "\t", "\n", "\r\n", "\r", " # note\n", "\n#\n")
FRAGMENTS = (
    "true", "dir(R,L,E)", "at(R,FACE)", "touch(R,L)", "cfg(L,CLAMP)", "orient(W,NW)",
    "move(D,S)", "thrill(W)", "touch(R,R)", "dir(R,R,E)", "dir(Q,L,E)", "move(R,X)",
    "!", "(", ")", "[", "]", "<", ">", "/\\", "\\/", "->", ";", "&", "|", "*", ",", ".",
    ":", ":=", "sign", "S1", "format", "1", "2", "²", "٣", "/", "\\", "-", "#", "é",
    "dir", "move", "Q", "\t", "\r", "\n", " ", "\u00a0", "\x0b",
)
MUTATION_CHARS = "()[]<>!/\\-:=,.;&|*# \t\r\n²٣é_RLQXE1"


def _leaf_text(rng: random.Random, heads: tuple[str, ...]) -> str:
    head = rng.choice(heads)
    kinds = {"dir": "aad", "at": "an", "touch": "aa", "cfg": "an", "orient": "ad", "move": "ad",
             "thrill": "a"}[head]
    pools = {"a": ARTS, "n": NAMES, "d": DIRS}
    return f"{head}({','.join(rng.choice(pools[k]) for k in kinds)})"


def _action_text(rng: random.Random, depth: int) -> str:
    sub = lambda: _action_text(rng, depth - 1)  # noqa: E731
    if depth <= 0 or rng.random() < 0.3:
        return _leaf_text(rng, ("move", "thrill"))
    return rng.choice((
        lambda: f"{sub()} ; {sub()}", lambda: f"{sub()} & {sub()}", lambda: f"{sub()} | {sub()}",
        lambda: f"{sub()}*", lambda: f"( {sub()} )",
    ))()


def _formula_text(rng: random.Random, depth: int) -> str:
    sub = lambda: _formula_text(rng, depth - 1)  # noqa: E731
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(("true", _leaf_text(rng, ("dir", "at", "touch", "cfg", "orient"))))
    return rng.choice((
        lambda: f"!{sub()}", lambda: f"( {sub()} )", lambda: f"{sub()} /\\ {sub()}",
        lambda: f"{sub()} \\/ {sub()}", lambda: f"{sub()} -> {sub()}",
        lambda: f"[{_action_text(rng, depth - 1)}] {sub()}",
        lambda: f"<{_action_text(rng, depth - 1)}> {sub()}",
    ))()


def _lexicon_text(rng: random.Random) -> str:
    head = rng.choice(("", "", "format: 1\n", "format: 2\n", "format:1 "))
    signs = (f"sign {rng.choice(('A', 'B', 'ROUTE'))} := {_formula_text(rng, 3)} ."
             for _ in range(rng.randint(0, 3)))
    return head + "\n".join(signs)


def _spaced(rng: random.Random, text: str) -> str:
    return "".join(rng.choice(SEPARATORS) if ch == " " else ch for ch in text)


def _mutated(rng: random.Random, text: str) -> str:
    i = rng.randint(0, len(text))
    return rng.choice((
        lambda: text[:i] + text[i + 1:],
        lambda: text[:i] + rng.choice(FRAGMENTS) + text[i:],
        lambda: text[:i] + rng.choice(MUTATION_CHARS) + text[i + 1:],
        lambda: text[:i],
    ))()


def _deep_inputs() -> list[str]:
    inputs = []
    for n in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1):
        moves = ["move(R,E)"] * n
        inputs += [
            "!" * n + "true", "(" * n + "true" + ")" * n, "[move(R,E)]" * n + "true",
            "<thrill(L)>" * n + "true", "true -> " * n + "true",
            " /\\ ".join(["touch(R,L)"] * n), "\\/".join(["true"] * (n // 3)),
            ";".join(moves), " & ".join(moves), "|".join(moves),
            "(" * n + "move(R,E)" + ")" * n, "(" * n + "move(R,E)" + ")*" * n,
            "[" + ";".join(moves) + "] true", "[" + "(" * n + "thrill(R)" + ")" * n + "] true",
            "sign DEEP := " + "!" * n + "true .",
            "sign DEEP := " + "/\\".join(["true"] * n) + " .",
        ]
    return inputs


def _parse_inputs() -> list[str]:
    rng = random.Random(4404)
    inputs = ["", " ", "#", "true # trailing", "true\n# trailing", "\t\rtrue\r\n", "²", "٣",
              "1²٣", "abc²", "format: ²", "format: ٣", "format: 01", "/", "\\", "a / b",
              "true \\ x", "touch(R,R)", "dir(R,R,E)", "é", "\u00a0true", "true\x0b",
              *FRAGMENTS, *_deep_inputs()]
    makers = (
        lambda: _formula_text(rng, 4), lambda: _action_text(rng, 4),
        lambda: _leaf_text(rng, ("dir", "at", "touch", "cfg", "orient")),
        lambda: _leaf_text(rng, ("move", "thrill")), lambda: _lexicon_text(rng),
    )
    generated = [_spaced(rng, rng.choice(makers)()) for _ in range(450)]
    inputs += generated
    inputs += [_mutated(rng, rng.choice(generated)) for _ in range(650)]
    inputs += ["".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(1, 8)))
               for _ in range(280)]
    return inputs


def _parse_outcome(parse, show, text: str) -> str:
    try:
        result = parse(text)
    except ParseError as exc:
        s = exc.span
        out = f"{type(exc).__name__} {s.line}:{s.column}+{s.length} {exc.args[0]}"
        return out + (f" (expected {', '.join(sorted(exc.expected))})" if exc.expected else "")
    return show(result)


def _parse_rows() -> str:
    lines = ["\t".join(("input", *(name for name, _, _ in PARSE_ENTRIES)))]
    for text in _parse_inputs():
        cells = [json.dumps(text, ensure_ascii=False)]
        cells += [_parse_outcome(parse, show, text) for _, parse, show in PARSE_ENTRIES]
        assert not any("\t" in c or "\n" in c for c in cells)
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _extract_outcome(seed: int) -> str:
    doc, options = gen_tracking(random.Random(f"extract:{seed}"))
    try:
        model, diagnostics = extract_model(tracking_from_json(doc), **options)
    except PdlslError as exc:
        return f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(_dump_json(model_to_json(model)).encode("utf-8")).hexdigest()
    notes = json.dumps([d.to_json() for d in diagnostics])
    return f"{model.state_count} states\t{digest}\t{notes}"


def _extract_rows() -> str:
    lines = ["seed\toutcome"]
    lines += [f"{seed}\t{_extract_outcome(seed)}" for seed in range(200)]
    return "\n".join(lines) + "\n"


def _label_runs():
    """The runs `labels.tsv` pins, as `(name, tracking document, options of
    extract_model)`: each `extract.tsv` seed, then each fixture."""
    for seed in range(200):
        yield str(seed), *gen_tracking(random.Random(f"extract:{seed}"))
    for fixture in FIXTURES:
        yield fixture, json.loads((EXAMPLES / f"{fixture}.tracking.json").read_text()), {}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _labels_outcome(doc: dict, options: dict) -> str:
    try:
        model, _ = extract_model(tracking_from_json(doc), **options)
    except PdlslError as exc:
        return f"{type(exc).__name__}: {exc}"
    file = model_to_json(model)
    del file["valuation"]
    labeler = _Labeler(model)
    atoms = vocabulary(model, options.get("place_map", DEFAULT_PLACE_MAP))
    labels = "".join(f"{print_atom(atom)} {labeler.atom(atom)}\n" for atom in atoms)
    return f"{model.state_count} states\t{_sha256(_dump_json(file))}\t{_sha256(labels)}"


def _labels_rows() -> str:
    lines = ["run\toutcome"]
    lines += [f"{name}\t{_labels_outcome(doc, options)}" for name, doc, options in _label_runs()]
    return "\n".join(lines) + "\n"


def _some_row(rng: random.Random, doc: dict) -> dict:
    """A valuation row of `doc` that is still an object, added if none is."""
    rows = [row for row in doc["valuation"] if type(row) is dict]
    if not rows:
        rows = [{"state": 0, "atom": "touch(R,L)", "value": "true"}]
        doc["valuation"].insert(rng.randint(0, len(doc["valuation"])), rows[0])
    return rng.choice(rows)


def _conflicting_repeat(rng: random.Random, doc: dict, state: int | None = None) -> None:
    """A row repeated later, maybe spelled another way, with another value."""
    if state is None:
        first = _some_row(rng, doc)
        texts = next((t for t in MODEL_ATOM_TEXTS if first.get("atom") in t), (first.get("atom"),))
        first = dict(first)
    else:
        texts = rng.choice(MODEL_ATOM_TEXTS)
        first = {"state": state, "atom": texts[0], "value": "true"}
        doc["valuation"].insert(rng.randint(0, len(doc["valuation"])), first)
    rows = doc["valuation"]
    start = next((i for i, row in enumerate(rows) if row == first), len(rows) - 1) + 1
    other = next(v for v in ("false", "unknown", "true") if v != first.get("value"))
    rows.insert(rng.randint(start, len(rows)), dict(first, atom=rng.choice(texts), value=other))


LOAD_DEFECTS = {
    "row not an object": lambda rng, doc: doc["valuation"].insert(
        rng.randint(0, len(doc["valuation"])),
        rng.choice((3, "touch(R,L)", None, True, [0, "touch(R,L)", "true"]))),
    "missing key": lambda rng, doc: _some_row(rng, doc).pop(rng.choice(("state", "atom", "value")),
                                                             None),
    "unknown key": lambda rng, doc: _some_row(rng, doc).update(
        {rng.choice(("vaule", "State", "note")): "true"}),
    "bool state": lambda rng, doc: _some_row(rng, doc).update(state=rng.choice((True, False))),
    "negative state": lambda rng, doc: _some_row(rng, doc).update(state=-rng.randint(1, 3)),
    "float state": lambda rng, doc: _some_row(rng, doc).update(state=1.0),
    "unknown value": lambda rng, doc: _some_row(rng, doc).update(
        value=rng.choice(("True", "maybe", "", 1, None))),
    "bad atom": lambda rng, doc: _some_row(rng, doc).update(
        atom=rng.choice(("touch(R,", "foo(R)", "", "touch(R,R)", "dir(R,Q,E)", "move(R,E)", 7))),
    "alias atom": lambda rng, doc: _some_row(rng, doc).update(
        atom=rng.choice(("touch(D,W)", "at(W,FACE)", "cfg(D,CLAMP)", "dir(R,W,E)"))),
    "conflicting repeat": _conflicting_repeat,
    "state out of range": lambda rng, doc: _some_row(rng, doc).update(
        state=doc["states"] + rng.choice((0, 1, 7, 10**20))),
    "conflict out of range": lambda rng, doc: _conflicting_repeat(
        rng, doc, rng.choice((-2, doc["states"], 10**20))),
    "bad observed": lambda rng, doc: doc["observed"].append(rng.choice((["X"], "R", [1]))),
    "bad configs": lambda rng, doc: doc["configs"].append(
        rng.choice(({"R": 3}, {"Q": None}, []))),
    "bad meta": lambda rng, doc: doc.update(meta=rng.choice((
        {"fps": -1}, {"segmentation": {"tau_still": "x"}}, {"fps": 25, "speed": 1}))),
    "long observed": lambda rng, doc: doc.update(observed=[["R"]] * (doc["states"] + 1)),
    "not serial": lambda rng, doc: doc.update(
        relation=[p for p in doc["relation"] if p[0] != doc["states"] - 1]),
}


def _load_outcome(seed: int) -> str:
    rng = random.Random(f"load:{seed}")
    doc = gen_model_doc(rng)
    defects = [] if seed % 3 == 0 else rng.sample(sorted(LOAD_DEFECTS), rng.choice((1, 1, 2)))
    for name in defects:
        LOAD_DEFECTS[name](rng, doc)
    try:
        model = model_from_json(doc)
    except SchemaError as exc:
        outcome = f"SchemaError: {exc}"
    else:
        outcome = hashlib.sha256(_dump_json(model_to_json(model)).encode("utf-8")).hexdigest()
    return f"{', '.join(defects) or 'valid'}\t{outcome}"


def _load_rows() -> str:
    lines = ["seed\tdefects\toutcome"]
    lines += [f"{seed}\t{_load_outcome(seed)}" for seed in range(300)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_extract_matches_golden(fixture, tmp_path):
    got, _ = _extract(fixture, tmp_path / "model.json")
    assert got == (GOLDEN / f"{fixture}.model.json").read_bytes()


def test_extract_stderr_matches_golden(tmp_path):
    _, err = _extract("route_teleport", tmp_path / "model.json")
    assert err.encode("utf-8") == (GOLDEN / "route_teleport.extract.stderr").read_bytes()
    # The keys that the benchmark's diagnostics check reads.
    found = [(d["diagnostic"], d.get("frame"), d.get("hand")) for d in stderr_records(err)]
    assert found == [("teleport", 5, "L")]


def test_lint_stderr_matches_golden():
    err = _lint_stderr()
    assert err.encode("utf-8") == (GOLDEN / "lint.stderr").read_bytes()
    assert [(d["diagnostic"], d["severity"], d["line"]) for d in stderr_records(err)] == [
        ("undecidable-orientation", "warning", 2), ("alias-collision", "warning", 3),
        ("duplicate-sign", "error", 2), ("duplicate-sign", "error", 3),
        ("duplicate-sign", "error", 3), ("duplicate-sign", "error", 4),
        ("duplicate-sign", "error", 6), ("undecidable-orientation", "warning", 5),
        ("alias-collision", "warning", 7)]


@pytest.mark.parametrize("dominant", DOMINANTS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_check_matches_golden(fixture, dominant, tmp_path):
    got = _check(fixture, dominant, tmp_path / "report.json")
    assert got == (GOLDEN / f"{fixture}.{dominant}.report.json").read_bytes()


@pytest.mark.parametrize("fixture", FIXTURES)
def test_check_grounds_no_tree_and_builds_no_anchor_set(fixture, tmp_path, monkeypatch):
    # `check` labels signs as parsed, grounding only their leaves, and reads
    # anchors off labels: with `ground` and `anchor_atoms` made to raise, it
    # still writes the golden reports.
    def refuse(*args):
        raise AssertionError("check calls a whole-tree walk")

    for module in (pdlsl.core, pdlsl.cli, pdlsl.check):  # `check` imports no `ground`
        monkeypatch.setattr(module, "ground", refuse, raising=False)
    monkeypatch.setattr(pdlsl.check, "anchor_atoms", refuse)
    for dominant in DOMINANTS:
        got = _check(fixture, dominant, tmp_path / f"{dominant}.json")
        assert got == (GOLDEN / f"{fixture}.{dominant}.report.json").read_bytes()


def test_eval_matches_golden():
    got = _eval_rows(_run)
    assert got.encode("utf-8") == (GOLDEN / "eval.tsv").read_bytes()


def test_extract_rows_match_golden():
    assert _extract_rows().encode("utf-8") == (GOLDEN / "extract.tsv").read_bytes()


def test_labels_match_golden():
    assert _labels_rows().encode("utf-8") == (GOLDEN / "labels.tsv").read_bytes()


def test_extraction_lists_no_cell_that_its_default_gives():
    for _, doc, options in _label_runs():
        try:
            model, _ = extract_model(tracking_from_json(doc), **options)
        except PdlslError:
            continue
        for (state, atom), value in model.valuation.items():
            assert value is not _reference_atom_value(model, {}, state, atom), (state, atom)


def test_load_rows_match_golden():
    assert _load_rows().encode("utf-8") == (GOLDEN / "load.tsv").read_bytes()


def test_parse_matches_golden():
    assert _parse_rows().encode("utf-8") == (GOLDEN / "parse.tsv").read_bytes()


def regenerate() -> None:
    """Rewrite every golden file from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    for fixture in FIXTURES:
        _, err = _extract(fixture, GOLDEN / f"{fixture}.model.json")
        if fixture == "route_teleport":
            (GOLDEN / f"{fixture}.extract.stderr").write_bytes(err.encode("utf-8"))
    for fixture in FIXTURES:
        for dominant in DOMINANTS:
            _check(fixture, dominant, GOLDEN / f"{fixture}.{dominant}.report.json")
    (GOLDEN / "lint.stderr").write_bytes(_lint_stderr().encode("utf-8"))
    (GOLDEN / "eval.tsv").write_bytes(_eval_rows(_run).encode("utf-8"))
    (GOLDEN / "extract.tsv").write_bytes(_extract_rows().encode("utf-8"))
    (GOLDEN / "labels.tsv").write_bytes(_labels_rows().encode("utf-8"))
    (GOLDEN / "load.tsv").write_bytes(_load_rows().encode("utf-8"))
    (GOLDEN / "parse.tsv").write_bytes(_parse_rows().encode("utf-8"))


if __name__ == "__main__":
    regenerate()
