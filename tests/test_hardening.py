"""Hostile inputs end in one diagnostic record on stderr and exit code 1 or
2, never in a traceback: formulas nested past the parser's depth limit,
non-finite numbers or deep nesting in JSON files, model files whose fields
disagree, directories and non-UTF-8 files in place of inputs, randomly
mutated copies of the shipped inputs, and an unknown or a repeated key
anywhere in a shipped JSON input."""

import contextlib
import copy
import io
import json
import pathlib
import random
import tempfile
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import pdlsl.model
from pdlsl import Articulator, ThreeVal, Touch, UtteranceModel, model_from_json
from pdlsl.errors import SchemaError
from pdlsl.parsing import MAX_DEPTH

from conftest import EXAMPLES, main, stderr_records

TRACKING = EXAMPLES / "route_clean.tracking.json"
CONFIG = EXAMPLES / "config.json"
PLACEMAP = EXAMPLES / "placemap.json"
MODEL = pathlib.Path(__file__).resolve().parent / "golden" / "route_clean.model.json"
LEXICON = EXAMPLES / "route.pdlsl"
OVERRIDES = EXAMPLES / "route.overrides"
ATOM = "touch(R,L)"
MOVE = "move(R,E)"

# Formula shapes whose nesting is exactly `n` levels.
SHAPES = {
    "negations": lambda n: "!" * n + ATOM,
    "parentheses": lambda n: "(" * n + ATOM + ")" * n,
    "conjunction chain": lambda n: " /\\ ".join([ATOM] * (n + 1)),
    "boxes": lambda n: f"[{MOVE}] " * n + ATOM,
    "sequence chain": lambda n: "[" + " ; ".join([MOVE] * n) + "] true",
    "action parentheses": lambda n: "[" + "(" * (n - 1) + MOVE + ")" * (n - 1) + "] true",
}


def run(argv, capsys):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().err


def one_line_error(err, prefix=""):
    """Whether stderr is one error record, its message starting with `prefix`."""
    records = stderr_records(err)
    return (len(records) == 1 and records[0]["severity"] == "error"
            and records[0]["message"].startswith(prefix) and "Traceback" not in err)


def write_sign(tmp_path, formula):
    path = tmp_path / "deep.pdlsl"
    path.write_text(f"sign DEEP := {formula} .\n", encoding="utf-8")
    return path


# --- formula depth ------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_at_the_limit_is_accepted(shape, tmp_path, capsys):
    formula = SHAPES[shape](MAX_DEPTH)
    lexicon = write_sign(tmp_path, formula)
    assert run(["lint", lexicon], capsys) == (0, "")
    assert run(["check", MODEL, lexicon], capsys)[0] == 0
    assert run(["eval", MODEL, formula, 0], capsys)[0] == 0


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_past_the_limit_is_a_parse_error(shape, tmp_path, capsys):
    formula = SHAPES[shape](MAX_DEPTH + 1)
    lexicon = write_sign(tmp_path, formula)
    code, err = run(["lint", lexicon], capsys)
    assert code == 1 and one_line_error(err, f"formula nests deeper than {MAX_DEPTH} levels")
    for argv in (["check", MODEL, lexicon], ["eval", MODEL, formula, 0]):
        code, err = run(argv, capsys)
        assert code == 1 and one_line_error(err, "parse error: ")


@pytest.mark.parametrize("formula", [
    "!" * 5000 + ATOM,
    " /\\ ".join([ATOM] * 1500),
    "[" + " ; ".join([MOVE] * 1500) + "] true",
])
def test_deep_lexicons_fail_cleanly(formula, tmp_path, capsys):
    lexicon = write_sign(tmp_path, formula)
    assert run(["lint", lexicon], capsys)[0] == 1
    code, err = run(["check", MODEL, lexicon], capsys)
    assert code == 1 and one_line_error(err, "parse error: ")


# --- non-finite JSON numbers ----------------------------------------------------


def tracking_with_fps(tmp_path, literal):
    text = json.dumps(json.loads(TRACKING.read_text())).replace(
        '"fps": 25.0', f'"fps": {literal}', 1
    )
    assert literal in text
    path = tmp_path / "tracking.json"
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_tracking_file_with_non_finite_fps(literal, tmp_path, capsys):
    code, err = run(["extract", tracking_with_fps(tmp_path, literal)], capsys)
    assert code == 1 and one_line_error(err)


def test_tracking_file_nested_too_deep_for_the_decoder(tmp_path, capsys):
    path = tmp_path / "tracking.json"
    path.write_text('{"fps": 25, "frames": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, err = run(["extract", path], capsys)
    assert code == 1 and one_line_error(err)


def test_config_file_with_nan_body_origin_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"body_origin": [NaN, 0]}', encoding="utf-8")
    code, err = run(["extract", TRACKING, "--config", config], capsys)
    assert code == 2 and one_line_error(err)


def test_placemap_file_with_infinite_bound(tmp_path, capsys):
    placemap = tmp_path / "placemap.json"
    placemap.write_text('{"places": {"FACE": [-Infinity, 0.3, 0.9, 1.5]}}', encoding="utf-8")
    code, err = run(["extract", TRACKING, "--placemap", placemap], capsys)
    assert code == 1 and one_line_error(err)


def test_model_file_with_overflowing_number(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(MODEL.read_text().replace('"max_jump": 0.5', '"max_jump": 1e999'))
    code, err = run(["check", model, EXAMPLES / "route.pdlsl"], capsys)
    assert code == 1 and one_line_error(err)


HUGE = "1" + "0" * 400  # an integer literal no double can hold


@pytest.mark.parametrize("argv, text, literal, code", [
    (lambda p: ["extract", p], TRACKING, '"fps": 25.0', 1),
    (lambda p: ["extract", p], TRACKING, "-0.02", 1),
    (lambda p: ["extract", TRACKING, "--config", p], CONFIG, '"tau_still": 0.02', 2),
    (lambda p: ["extract", TRACKING, "--placemap", p], PLACEMAP, "0.35", 1),
], ids=["tracking fps", "tracking position", "config threshold", "placemap bound"])
def test_integer_too_large_for_a_double(argv, text, literal, code, tmp_path, capsys):
    source = json.dumps(json.loads(text.read_text()))
    assert literal in source
    path = tmp_path / text.name
    path.write_text(source.replace(literal, literal.replace(literal.split()[-1], HUGE), 1))
    got, err = run(argv(path), capsys)
    assert got == code and one_line_error(err) and "too large" in err


# --- finite inputs whose derived values are not finite ----------------------------


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def alternating_hand(tmp_path):
    """A right hand that jumps between x = 1e308 and x = -1e308: each
    frame-to-frame difference overflows."""
    frames = [{"t": t, "head": [0.0, 1.2], "right": {"pos": [(-1) ** t * 1e308, 0.0]}}
              for t in range(8)]
    return ["extract", write_json(tmp_path, "tracking.json", {"fps": 25.0, "frames": frames})]


def tiny_body_scale(tmp_path):
    """A body scale whose reciprocal overflows."""
    return ["extract", TRACKING, "--config", write_json(tmp_path, "c.json", {"body_scale": 1e-310})]


def huge_heads(tmp_path):
    """Heads whose distance from the configured origin overflows, giving an
    infinite derived scale."""
    doc = json.loads(TRACKING.read_text())
    for frame in doc["frames"]:
        frame["head"] = [1.5e308, 1.5e308]
    config = write_json(tmp_path, "c.json", {"body_origin": [0, 0]})
    return ["extract", write_json(tmp_path, "tracking.json", doc), "--config", config]


@pytest.mark.parametrize("argv, message", [
    (tiny_body_scale, "coordinates must be finite"),
    (huge_heads, "body frame scale must be finite and positive"),
], ids=["tiny body scale", "huge heads"])
def test_overflow_in_derived_values_is_a_data_error(argv, message, tmp_path, capsys):
    code, err = run(argv(tmp_path), capsys)
    assert code == 1 and one_line_error(err) and message in err


def test_overflowing_jump_is_voided_as_a_teleport(tmp_path, capsys):
    # Each odd frame's jump overflows a double; it is voided as a teleport,
    # like a finite jump above max_jump.
    code = main([str(a) for a in alternating_hand(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0
    assert stderr_records(err) == [
        {"diagnostic": "teleport", "severity": "warning",
         "message": "R hand jumped inf body units in one frame", "frame": t, "hand": "R"}
        for t in (1, 3, 5, 7)
    ]
    assert json.loads(out)["states"] == 1


# --- model cross-field consistency --------------------------------------------------


def inconsistent_model(tmp_path, change):
    doc = json.loads(MODEL.read_text())
    change(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("change", [
    lambda doc: doc["valuation"].append({"state": 7, "atom": ATOM, "value": "true"}),
    lambda doc: doc["valuation"].append({"state": -1, "atom": ATOM, "value": "true"}),
    lambda doc: doc.update(observed=[["R", "L"]] * 5),
    lambda doc: doc.update(configs=[{"R": None, "L": None}] * 3),
], ids=["valuation state 7", "valuation state -1", "5 observed", "3 configs"])
def test_inconsistent_model_file_is_refused(change, tmp_path, capsys):
    code, err = run(["check", inconsistent_model(tmp_path, change), EXAMPLES / "route.pdlsl"],
                    capsys)
    assert code == 1 and one_line_error(err)


@pytest.mark.parametrize("segmentation", [None, 3, "x", [1]])
def test_model_file_with_non_object_segmentation_is_refused(segmentation, tmp_path, capsys):
    path = inconsistent_model(tmp_path, lambda doc: doc["meta"].update(segmentation=segmentation))
    code, err = run(["check", path, EXAMPLES / "route.pdlsl"], capsys)
    assert code == 1 and one_line_error(err) and "/meta/segmentation" in err


@pytest.mark.parametrize("thresholds, message", [
    ({"min_still": 0}, "frame counts must be at least 1"),
    ({"tau_still": -1}, "thresholds must be positive"),
], ids=["min_still 0", "tau_still -1"])
def test_model_file_with_invalid_segmentation_thresholds_is_refused(thresholds, message, tmp_path,
                                                                    capsys):
    # The run configuration's threshold rules hold for a model's `meta` too.
    path = inconsistent_model(tmp_path, lambda doc: doc["meta"]["segmentation"].update(thresholds))
    code, err = run(["check", path, EXAMPLES / "route.pdlsl"], capsys)
    assert code == 1 and stderr_records(err) == [
        {"diagnostic": "schema-error", "severity": "error",
         "message": f"{path}: /meta/segmentation: {message}", "file": str(path),
         "pointer": "/meta/segmentation"}]


def test_model_refuses_valuation_outside_its_states():
    # Checked at construction, so every way of building a model is covered.
    with pytest.raises(ValueError, match="state 2"):
        UtteranceModel(
            state_count=2,
            relation=frozenset({(0, 1), (1, 1)}),
            action_interp={},
            valuation={(2, Touch(Articulator.RIGHT, Articulator.LEFT)): ThreeVal.TRUE},
        )


@pytest.mark.parametrize("state", [-1, 2, 3, 10**20])
def test_bitsets_refuse_states_outside_the_model(state):
    # A state of 2 or more used to set a wrong bit, and -1 raised IndexError.
    with pytest.raises(ValueError, match=f"^state {state} outside 0..1$"):
        pdlsl.model._bitset([0, state], 2)


@pytest.mark.parametrize("state", [-1, 2, 10**20])
def test_model_file_rows_outside_the_states_never_reach_a_bitset(state):
    doc = {"format": 1, "states": 2, "relation": [[0, 1], [1, 1]], "valuation": [
        {"state": 1, "atom": ATOM, "value": "true"},
        {"state": state, "atom": ATOM, "value": "false"},
        {"state": state, "atom": "at(R,FACE)", "value": "true"},
    ]}
    with pytest.raises(SchemaError) as info:
        model_from_json(doc)
    assert str(info.value) == f"/: {ATOM} is valued at state {state}, outside 0..1"


@pytest.mark.parametrize("relation, rows, message", [
    ([[0, 0]], [(0, "true")], "/: state 1 has no outgoing transition (seriality)"),
    ([[0, 0]], [(10**12 - 1, "true")], "/: state 1 has no outgoing transition (seriality)"),
    ([[0, 0]], [(10**12, "true")], "/: state 1 has no outgoing transition (seriality)"),
    ([], [(0, "true")], "/: state 0 has no outgoing transition (seriality)"),
    ([[0, 10**12]], [(0, "true")],
     f"/: edge (0, {10**12}) references a state outside 0..{10**12 - 1}"),
    ([[0, 0]], [(5, "true"), (5, "false")],
     f"/valuation/1: {ATOM} at state 5 is listed again with another value"),
])
def test_a_declared_state_count_is_not_allocated_before_the_checks(relation, rows, message):
    # A serial relation has a pair from each state, so the valuation is read
    # into bytes for no more states than the relation has pairs.
    doc = {"format": 1, "states": 10**12, "relation": relation,
           "valuation": [{"state": s, "atom": ATOM, "value": v} for s, v in rows]}
    with pytest.raises(SchemaError) as info:
        model_from_json(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("relation, actions, message", [
    ([[5 * 10**7, 0]], [], "/: state 0 has no outgoing transition (seriality)"),
    ([[0, 5 * 10**7]], [], "/: state 1 has no outgoing transition (seriality)"),
    ([[0, 0]], [[5 * 10**7, 5 * 10**7 + 1]], "/: state 1 has no outgoing transition (seriality)"),
])
def test_reading_edges_takes_memory_by_the_size_of_the_file(relation, actions, message):
    # The edge bitsets cover no more states than the relation has pairs.
    doc = {"format": 1, "states": 10**8, "relation": relation,
           "actions": [{"action": "move(R,E)", "edges": actions}]}
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError) as info:
            model_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message and peak < 100_000


def test_a_relation_with_an_offset_per_pair_takes_memory_by_its_pairs():
    """The reversal s -> n-1-s gives each pair an offset of its own, so
    bitsets by offset would take memory by the square of the states: the
    relation and an action on the same edges keep their pairs, and the peak
    of reading them grows with the pairs."""
    peaks = []
    for n in (12_500, 100_000):
        pairs = [[s, n - 1 - s] for s in range(n)]
        doc = {"format": 1, "states": n, "relation": pairs,
               "actions": [{"action": MOVE, "edges": pairs}]}
        model_from_json({"format": 1, "states": 1, "relation": [[0, 0]]})  # compiles the table
        tracemalloc.start()
        try:
            model = model_from_json(doc)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert model.relation.diagonals is None and len(model.relation) == n
    assert peaks[1] < 12 * peaks[0]  # 8 times the pairs; by their square it would be 64


@pytest.mark.parametrize("shape", ["reversal", "two successors"])
def test_edges_that_keep_their_pairs_group_few_by_offset(shape):
    """Edges that keep their pairs stop grouping them by offset once the
    offsets would take more words than there are pairs: reading them peaks
    under twice the frozenset of the pairs, where grouping every pair into a
    list per offset peaked at 2.3 (reversal) and 3.1 times it."""
    n, rng = 20_000, random.Random(5)
    pairs = ([(s, n - 1 - s) for s in range(n)] if shape == "reversal"
             else [(s, rng.randrange(n)) for s in range(n) for _ in range(2)])
    peaks = []
    for build in (frozenset, partial(pdlsl.model.Edges.of, n)):
        tracemalloc.start()
        try:
            edges = build(pairs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert edges.diagonals is None and edges == set(pairs)
    assert peaks[1] < 2 * peaks[0], peaks


def test_reading_a_valuation_takes_memory_by_the_size_of_the_file():
    doc = {"format": 1, "states": 10**7, "relation": [[0, 0]], "valuation": [
        {"state": s, "atom": ATOM, "value": "true"} for s in (0, 10**7 - 1)
    ]}
    with pytest.raises(SchemaError, match="seriality"):
        model_from_json(doc)  # the first call compiles the model table
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match="seriality"):
            model_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# --- unreadable files -----------------------------------------------------------------


def not_utf8(tmp_path, source, after=b"("):
    """A copy of `source` with a 0xff byte after the first `after`."""
    path = tmp_path / source.name
    path.write_bytes(source.read_bytes().replace(after, after + b"\xff", 1))
    return path


@pytest.mark.parametrize("argv, verb", [
    (lambda d: ["lint", d], "read"),
    (lambda d: ["check", d, LEXICON], "read"),
    (lambda d: ["check", MODEL, d], "read"),
    (lambda d: ["extract", TRACKING, "-o", d], "write"),
], ids=["lint DIR", "check DIR lexicon", "check model DIR", "extract -o DIR"])
def test_directory_in_place_of_a_file(argv, verb, tmp_path, capsys):
    code, err = run(argv(tmp_path), capsys)
    assert code == 1 and one_line_error(err, f"cannot {verb} {tmp_path}: ")


@pytest.mark.parametrize("argv", [
    lambda t: ["lint", not_utf8(t, LEXICON)],
    lambda t: ["check", MODEL, not_utf8(t, LEXICON)],
    lambda t: ["check", MODEL, LEXICON, "--overrides", not_utf8(t, OVERRIDES)],
], ids=["lint lexicon", "check lexicon", "check overrides"])
def test_text_file_that_is_not_utf8(argv, tmp_path, capsys):
    code, err = run(argv(tmp_path), capsys)
    assert code == 1 and one_line_error(err)
    assert "not UTF-8 text" in err and str(tmp_path) in err
    assert stderr_records(err)[0]["diagnostic"] == "not-utf8"


@pytest.mark.parametrize("source, argv, code, diagnostic, prefix", [
    (TRACKING, lambda p: ["extract", p], 1, "not-utf8", ""),
    (MODEL, lambda p: ["check", p, LEXICON], 1, "not-utf8", ""),
    (PLACEMAP, lambda p: ["extract", TRACKING, "--placemap", p], 1, "not-utf8", ""),
    (CONFIG, lambda p: ["extract", TRACKING, "--config", p], 2, "config-error", "/: "),
], ids=["tracking", "model", "placemap", "config"])
def test_json_file_that_is_not_utf8(source, argv, code, diagnostic, prefix, tmp_path, capsys):
    path = not_utf8(tmp_path, source, after=b'"')
    got, err = run(argv(path), capsys)
    assert got == code and one_line_error(err)
    record = stderr_records(err)[0]
    assert record["diagnostic"] == diagnostic and record["file"] == str(path)
    assert record["message"] == f"{path}: {prefix}not UTF-8 text (invalid start byte)"


# --- mutated fixtures -----------------------------------------------------------------

# Each shipped input, and the command line that reads a copy of it at path `p`.
FUZZ_TARGETS = {
    "tracking": (TRACKING, lambda p: ["extract", p]),
    "config": (CONFIG, lambda p: ["extract", TRACKING, "--config", p]),
    "placemap": (PLACEMAP, lambda p: ["extract", TRACKING, "--placemap", p]),
    "model": (MODEL, lambda p: ["check", p, LEXICON]),
    "eval model": (MODEL, lambda p: ["eval", p, "[move(D,E)] touch(D,W)", "0"]),
    "lexicon": (LEXICON, lambda p: ["check", MODEL, p]),
    "lint lexicon": (LEXICON, lambda p: ["lint", p]),
    "overrides": (OVERRIDES, lambda p: ["check", MODEL, LEXICON, "--overrides", p]),
}
WRONG_VALUES = (None, True, -1, 0, 2**70, 1.5, 1e308, -1e308, 5e-324, "", "x", [], {}, [[]],
                {"a": 1})


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def mutate(source, data):
    raw = source.read_bytes()
    kinds = ("truncate", "stray bytes")
    if source.suffix == ".json":
        doc = json.loads(raw)
        lists = [c[k] for c, k in _slots(doc) if isinstance(c[k], list) and c[k]]
        kinds += ("drop key", "wrong type") + (("duplicate entry",) if lists else ())
    kind = data.draw(st.sampled_from(kinds))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "stray bytes":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + data.draw(st.binary(min_size=1, max_size=4)) + raw[at:]
    if kind == "duplicate entry":
        # A copy of one element, as it is or with one value changed.
        target = data.draw(st.sampled_from(lists))
        entry = copy.deepcopy(data.draw(st.sampled_from(target)))
        if isinstance(entry, (dict, list)) and entry and data.draw(st.booleans()):
            container, key = data.draw(st.sampled_from(list(_slots(entry))))
            container[key] = data.draw(st.sampled_from(WRONG_VALUES))
        target.append(entry)
        return json.dumps(doc).encode()
    container, key = data.draw(st.sampled_from(list(_slots(doc))))
    if kind == "drop key":
        del container[key]
    else:
        container[key] = data.draw(st.sampled_from(WRONG_VALUES))
    return json.dumps(doc).encode()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FUZZ_TARGETS)), st.data())
def test_cli_on_mutated_fixtures_exits_cleanly(target, data):
    source, argv = FUZZ_TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / source.name
        path.write_bytes(mutate(source, data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv(path)])
    assert code in (0, 1, 2), err.getvalue()
    records = stderr_records(err.getvalue())
    assert (code != 0) == any(r["severity"] == "error" for r in records), records


# --- unknown keys ---------------------------------------------------------------------

# Each shipped JSON input, the command line that reads a copy of it at path
# `p`, and the exit code that refuses it.
JSON_INPUTS = {
    "tracking": (TRACKING, lambda p: ["extract", p], 1),
    "model": (MODEL, lambda p: ["check", p, LEXICON], 1),
    "config": (CONFIG, lambda p: ["extract", TRACKING, "--config", p], 2),
    "placemap": (PLACEMAP, lambda p: ["extract", TRACKING, "--placemap", p], 1),
}


def _objects(node, at=""):
    """Every object inside a JSON document, with its JSON pointer (the
    shipped inputs have no key that needs escaping)."""
    if isinstance(node, dict):
        yield node, at
    for key, child in node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ():
        yield from _objects(child, f"{at}/{key}")


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
def test_unknown_key_in_any_object_is_refused_at_its_pointer(name, tmp_path):
    source, argv, expected_code = JSON_INPUTS[name]
    doc = json.loads(source.read_text(encoding="utf-8"))
    objects = list(_objects(doc))
    assert len(objects) >= 2  # the root and at least one nested object
    path = tmp_path / source.name
    for obj, at in objects:
        obj["bogus"] = 1
        path.write_text(json.dumps(doc), encoding="utf-8")
        del obj["bogus"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv(path)])
        assert code == expected_code and one_line_error(err.getvalue(), f"{path}: {at}/bogus: "), (
            at, err.getvalue())
        assert stderr_records(err.getvalue())[0]["pointer"] == f"{at}/bogus"


# --- repeated keys --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
def test_repeated_key_in_any_object_is_refused(name, tmp_path):
    source, argv, expected_code = JSON_INPUTS[name]
    doc = json.loads(source.read_text(encoding="utf-8"))
    path = tmp_path / source.name
    mark = "\0"  # a key no shipped input has, replaced in the text by the repeat
    for obj, _ in _objects(doc):
        key = next(iter(obj))
        obj[mark] = None
        text = json.dumps(doc).replace(f"{json.dumps(mark)}: null",
                                       f"{json.dumps(key)}: {json.dumps(obj[key])}")
        del obj[mark]
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv(path)])
        assert (code, stderr_records(err.getvalue())) == (expected_code, [{
            "diagnostic": "config-error" if expected_code == 2 else "schema-error",
            "severity": "error",
            "message": f"{path}: /: invalid JSON: duplicate key {json.dumps(key)}",
            "file": str(path), "pointer": "",
        }])
