"""The schema checker and the four JSON formats it guards: tracking, model,
place map and run configuration. Each format refuses unknown keys at every
level, never takes a boolean for a number, and reports every error at an
RFC 6901 JSON pointer."""

import copy
import json
import pathlib

import pytest

from pdlsl import ThreeVal, model_from_json, place_map_from_json, schema, tracking_from_json
from pdlsl.errors import ConfigError, SchemaError
from pdlsl.schema import (
    Invalid,
    array,
    check,
    choice,
    fixed,
    given,
    integer,
    mapping,
    number,
    optional,
    pointer,
    string,
    table,
)

from conftest import EXAMPLES, main, stderr_records

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
TRACKING = EXAMPLES / "route_clean.tracking.json"


def _doc(path):
    return json.loads(path.read_text(encoding="utf-8"))


MODEL_DOC = _doc(GOLDEN / "route_clean.model.json")
TRACKING_DOC = _doc(TRACKING)
PLACEMAP_DOC = _doc(EXAMPLES / "placemap.json")


def changed(doc, change):
    doc = copy.deepcopy(doc)
    change(doc)
    return doc


def refused_at(load, doc):
    with pytest.raises(SchemaError) as info:
        load(doc)
    return info.value.path


def run(argv, capsys):
    """The exit code of a command and its stderr, read as records."""
    code = main([str(a) for a in argv])
    return code, stderr_records(capsys.readouterr().err)


def schema_error(code, file, message):
    """The stderr records of a command that a schema error in `file` ends,
    `message` being the error's text after the file name."""
    pointer = message.split(": ", 1)[0]
    return [{"diagnostic": code, "severity": "error", "message": f"{file}: {message}",
             "file": str(file), "pointer": "" if pointer == "/" else pointer}]


# --- the checker ---------------------------------------------------------------


@pytest.mark.parametrize("where, expected", [
    ([], ""),
    (["places"], "/places"),
    (["A/B", "places"], "/places/A~1B"),
    (["~1", "places"], "/places/~01"),
    ([0, "", 3, "frames"], "/frames/3//0"),
])
def test_pointer_escapes_each_segment(where, expected):
    assert pointer(where) == expected


ROW = table("row", {
    "n": integer(0),
    "name": optional(string(), "anon"),
    "tag": optional(choice({"a": 1, "b": 2}), 0, null=True),
}, tuple)


@pytest.mark.parametrize("value, result", [
    ({"n": 3}, (3, "anon", 0)),
    ({"n": 0, "name": "x", "tag": "b"}, (0, "x", 2)),
    ({"n": 1, "tag": None}, (1, "anon", 0)),
])
def test_table_fills_in_defaults(value, result):
    assert check(ROW, value) == result


@pytest.mark.parametrize("value, path, message", [
    ([], "", "expected an object"),
    ({}, "/n", "expected a nonnegative integer"),
    ({"n": True}, "/n", "expected a nonnegative integer"),
    ({"n": 1.0}, "/n", "expected a nonnegative integer"),
    ({"n": -1}, "/n", "expected a nonnegative integer"),
    ({"n": 1, "name": None}, "/name", "expected a string"),
    ({"n": 1, "tag": "c"}, "/tag", "expected one of a, b"),
    ({"n": 1, "nmae": "x"}, "/nmae", "unknown row key"),
    ({"n": 1, "tag": 1}, "/tag", "expected one of a, b"),
    ({"n": 1, "tag": ["a"]}, "/tag", "expected one of a, b"),
])
def test_table_refusals(value, path, message):
    with pytest.raises(SchemaError) as info:
        check(ROW, value)
    assert (info.value.path, str(info.value)) == (path, f"{path or '/'}: {message}")


def test_table_reports_unknown_keys_only_when_there_are_some(monkeypatch):
    # A table with an optional key tests its keys inline, so an object whose
    # keys are all known costs no call; tracking rows are such objects.
    calls = []
    real = schema._unknown
    monkeypatch.setattr(schema, "_unknown", lambda *args: calls.append(args) or real(*args))
    row = table("row", {"n": integer(0), "name": optional(string(), "anon")}, tuple)
    assert [check(row, v) for v in ({"n": 1}, {"n": 2, "name": "x"})] == [(1, "anon"), (2, "x")]
    assert calls == []
    with pytest.raises(SchemaError) as info:
        check(row, {"n": 1, "nmae": "x", "zz": 0})
    assert str(info.value) == "/nmae: unknown row key" and len(calls) == 1


def test_a_given_key_reads_earlier_results():
    def scaled(values, n, m):
        if any(v >= n for v in values):
            raise Invalid(f"not below {n}", next(i for i, v in enumerate(values) if v >= n))
        return [v * n + m for v in values]

    node = table("t", {"n": integer(1), "m": integer(), "xs": optional(given(scaled, "n", "m"), [])},
                 tuple)
    assert check(node, {"n": 3, "m": 1, "xs": [1, 2]}) == (3, 1, [4, 7])
    assert check(node, {"n": 3, "m": 0}) == (3, 0, [])
    for value, message in [({"n": 2, "m": 0, "xs": [1, 5]}, "/xs/1: not below 2"),
                           ({"n": 0, "m": 0, "xs": [9]}, "/n: expected a positive integer"),
                           ({"n": 2, "m": "0", "xs": [9]}, "/m: expected an integer")]:
        with pytest.raises(SchemaError) as info:
            check(node, value)
        assert str(info.value) == message


def test_containers_point_at_the_failing_element():
    node = array(mapping(fixed("[a, b]", 2, number())))
    assert check(node, [{"x": [1.5, 2]}, {"y": [2, 3]}]) == [{"x": (1.5, 2)}, {"y": (2, 3)}]
    for value, path in [
        ([{"x": [1, 2]}, {"y": [1, 2, 3]}], "/1/y"),
        ([{"x": [1, 2]}, {"y/z": [1, False]}], "/1/y~1z/1"),
        ([{"x": [1, 2]}, {"y": [1, None]}], "/1/y/1"),
        ([{"x": [True, 2]}], "/0/x/0"),
        ([[]], "/0"),
    ]:
        with pytest.raises(SchemaError) as info:
            check(node, value)
        assert info.value.path == path


def test_containers_check_each_element_once():
    # A failing element is located as it fails, not by checking again.
    seen = []
    natural = integer(0)

    def item(value):
        seen.append(value)
        return natural(value)

    for node, value, path, checked in [
        (array(item), [0, 1, -2, 3], "/2", [0, 1, -2]),
        (mapping(item), {"a": 0, "b": -1, "c": 2}, "/b", [0, -1]),
    ]:
        seen.clear()
        with pytest.raises(SchemaError) as info:
            check(node, value)
        assert (info.value.path, seen) == (path, checked)


def test_build_errors_are_reported_at_their_node():
    def positive(value):
        if value <= 0:
            raise ValueError("must be positive")
        return value

    def dedupe(values):
        if len(set(values)) < len(values):
            raise Invalid("repeated", len(values) - 1)
        return values

    node = table("t", {"xs": array(number(build=positive), build=dedupe)})
    with pytest.raises(ConfigError) as info:
        check(node, {"xs": [1, 0]}, ConfigError)
    assert str(info.value) == "/xs/1: must be positive"
    with pytest.raises(SchemaError) as info:
        check(node, {"xs": [1, 1]})
    assert str(info.value) == "/xs/1: repeated"


# --- tracking ----------------------------------------------------------------------


@pytest.mark.parametrize("change, path", [
    (lambda d: d.update(format=True), "/format"),
    (lambda d: d.update(format=1.0), "/format"),
    (lambda d: d.update(mirrored=0), "/mirrored"),
    (lambda d: d["frames"][2].update(t=True), "/frames/2/t"),
    (lambda d: d["frames"][2]["right"].update(pos=[True, 1.0]), "/frames/2/right/pos/0"),
    (lambda d: d["frames"][2]["left"].update(orient="UP"), "/frames/2/left/orient"),
], ids=["format true", "format 1.0", "mirrored 0", "t true", "pos true", "orient UP"])
def test_tracking_refusals(change, path):
    assert refused_at(tracking_from_json, changed(TRACKING_DOC, change)) == path


def test_tracking_null_reads_as_a_dropout():
    doc = changed(TRACKING_DOC, lambda d: d["frames"][2].update(head=None, right=None))
    doc["frames"][3]["left"].update(pos=None, config=None, orient=None)
    frames = tracking_from_json(doc).frames
    assert frames.head.x[2] is None and frames.right.point(2) is None
    assert frames.left.point(3) is None and frames.left.config[3] is None


# --- model -------------------------------------------------------------------------------


@pytest.mark.parametrize("change, path", [
    (lambda d: d.update(relaton=d["relation"]), "/relaton"),
    (lambda d: d["valuation"][5].update(vaule="true"), "/valuation/5/vaule"),
    (lambda d: d["actions"][0].update(edge=[]), "/actions/0/edge"),
    (lambda d: d["meta"].update(fsp=25), "/meta/fsp"),
    (lambda d: d["meta"]["segmentation"].update(tau=1), "/meta/segmentation/tau"),
], ids=["model", "valuation row", "action", "meta", "meta segmentation"])
def test_model_refuses_unknown_keys(change, path):
    assert refused_at(model_from_json, changed(MODEL_DOC, change)) == path


@pytest.mark.parametrize("change, path", [
    (lambda d: d["valuation"][5].update(state=True), "/valuation/5/state"),
    (lambda d: d.update(format=True), "/format"),
    (lambda d: d.update(format=1.0), "/format"),
    (lambda d: d.update(states=True), "/states"),
    (lambda d: d["relation"][0].__setitem__(1, True), "/relation/0/1"),
    (lambda d: d["actions"][0]["edges"][0].__setitem__(0, False), "/actions/0/edges/0/0"),
    (lambda d: d["meta"]["segmentation"].update(min_still=3.0), "/meta/segmentation/min_still"),
], ids=["state true", "format true", "format 1.0", "states true", "relation end true",
        "action edge end false", "min_still 3.0"])
def test_model_takes_no_boolean_or_float_for_an_integer(change, path):
    assert refused_at(model_from_json, changed(MODEL_DOC, change)) == path


@pytest.mark.parametrize("change, path", [
    (lambda d: d["valuation"].append({"state": 0, "atom": "touch(D,W)", "value": "true"}),
     "/valuation/{}/atom"),
    (lambda d: d["actions"].append({"action": "move(D,E)", "edges": [[0, 1]]}),
     "/actions/{}/action"),
    (lambda d: d["observed"][1].append("W"), "/observed/1/2"),
    (lambda d: d["configs"][0].update(D="CLAMP"), "/configs/0/D"),
], ids=["valuation D/W", "action D", "observed W", "configs D"])
def test_model_refuses_the_hand_aliases(change, path):
    doc = changed(MODEL_DOC, change)
    expected = path.format(len(doc["valuation"]) - 1 if "valuation" in path
                           else len(doc["actions"]) - 1)
    assert refused_at(model_from_json, doc) == expected


def test_model_value_names_are_exact():
    doc = changed(MODEL_DOC, lambda d: d["valuation"][2].update(value="True"))
    assert refused_at(model_from_json, doc) == "/valuation/2/value"
    model = model_from_json(MODEL_DOC)
    assert set(model.valuation.values()) <= set(ThreeVal)


# --- place map -----------------------------------------------------------------


@pytest.mark.parametrize("fmt", [2, True, 1.0, "1", None])
def test_place_map_format_must_be_one(fmt):
    assert refused_at(place_map_from_json, dict(PLACEMAP_DOC, format=fmt)) == "/format"


def test_place_map_format_one_or_absent_loads():
    names = place_map_from_json(PLACEMAP_DOC).names()
    assert place_map_from_json(dict(PLACEMAP_DOC, format=1)).names() == names


@pytest.mark.parametrize("name, path", [("A/B", "/places/A~1B"), ("A~B", "/places/A~0B")])
def test_place_map_pointer_escapes_place_names(name, path, tmp_path, capsys):
    doc = {"places": {"A": [0, 1, 0, 1], name: [0, 1, 0]}}
    assert refused_at(place_map_from_json, doc) == path
    placemap = tmp_path / "placemap.json"
    placemap.write_text(json.dumps(doc), encoding="utf-8")
    code, records = run(["extract", TRACKING, "--placemap", placemap], capsys)
    assert code == 1 and records[0]["message"].startswith(f"{placemap}: {path}: ")
    assert records[0]["pointer"] == path


def test_place_map_decode_error_names_the_file(tmp_path, capsys):
    placemap = tmp_path / "placemap.json"
    placemap.write_text('{"places": ', encoding="utf-8")
    code, records = run(["extract", TRACKING, "--placemap", placemap], capsys)
    assert code == 1 and records[0]["message"].startswith(f"{placemap}: /: invalid JSON: ")


# --- run configuration -------------------------------------------------------------


@pytest.mark.parametrize("config, message", [
    ({"segmentation": {"tau": 1}}, "/segmentation/tau: unknown segmentation key"),
    ({"dominant": "middle"}, "/dominant: expected one of right, left"),
    ({"format": "yaml"}, "/format: expected one of json, table"),
    ({"mirrored": 1}, "/mirrored: expected a boolean"),
    ({"body_origin": [0, True]}, "/body_origin/1: expected a number"),
    ({"body_scale": 0}, "/body_scale: expected a positive number"),
    ({"segmentation": {"min_still": True}}, "/segmentation/min_still: expected an integer"),
    ({"segmentation": {"min_still": 0}}, "/segmentation: frame counts must be at least 1"),
    ({"placemap": 3}, "/placemap: expected a string"),
    ([], "/: expected an object"),
    ({"segmentation": {"tau_still": -1}}, "/segmentation: thresholds must be positive"),
    ({"segmentation": {"touch_unknown_band": -0.5}},
     "/segmentation: touch_unknown_band must be nonnegative"),
])
def test_config_errors_carry_a_pointer(config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, records = run(["extract", TRACKING, "--config", path], capsys)
    assert (code, records) == (2, schema_error("config-error", path, message))


def test_config_decode_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{", encoding="utf-8")
    code, records = run(["extract", TRACKING, "--config", path], capsys)
    assert code == 2 and records[0]["message"].startswith(f"{path}: /: invalid JSON: ")


# --- the file an error is about ----------------------------------------------------


MODEL = GOLDEN / "route_clean.model.json"
LEXICON = EXAMPLES / "route.pdlsl"


@pytest.mark.parametrize("kind, doc, error", [
    ("tracking", changed(TRACKING_DOC, lambda d: d.update(fps=0)),
     "/fps: expected a positive number"),
    ("model", changed(MODEL_DOC, lambda d: d.update(bogus=1)), "/bogus: unknown model key"),
    ("config", {"dominant": "middle"}, "/dominant: expected one of right, left"),
    ("placemap", {"places": {"A/B": [0, 1, 0]}},
     "/places/A~1B: expected [x_min, x_max, y_min, y_max]"),
])
def test_schema_errors_name_their_file(kind, doc, error, tmp_path, capsys):
    """A command reads several files; a schema error names the one it is
    about, also when that is a place map the config file names."""
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"placemap": str(bad)} if kind == "placemap" else {}))
    argv = {
        "tracking": ["extract", bad, "--config", config],
        "model": ["check", bad, LEXICON, "--config", config],
        "config": ["check", MODEL, LEXICON, "--config", bad],
        "placemap": ["check", MODEL, LEXICON, "--config", config],
    }[kind]
    code, records = run(argv, capsys)
    code_name = "config-error" if kind == "config" else "schema-error"
    assert (code, records) == (2 if kind == "config" else 1, schema_error(code_name, bad, error))
