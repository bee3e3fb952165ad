"""What each `pdlsl` process loads, the package's public names, and the
oldest Python it supports.

`import pdlsl` loads none of the package's modules; the first read of a
public name loads all eight. Each command of `pdlsl.cli` imports only the
modules that it runs, and none loads `dataclasses` or `inspect`. These
tests start fresh interpreters, so a module that an earlier test imported
cannot hide a load.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import pdlsl
from pdlsl import parsing

from conftest import EXAMPLES, ROOT, run_pdlsl

SRC = pathlib.Path(pdlsl.__file__).resolve().parent.parent
MODULES = {"pdlsl." + m for m in
           ("core", "errors", "schema", "geometry", "parsing", "model", "extract", "check")}

# Every name the package exported when its `__init__` imported all of its
# modules, under the module it was imported from there.
EXPORTED = {
    "core": """TOP Action And Articulator At Atom AtomF Atomic AtomicAction Box Choice
        Concurrent Config Direction Formula Handedness Move Not Orient Place Rect RelDir Seq
        Star Thrill Top Touch contains_alias diamond ground ground_atom implies
        iter_atoms iter_atomic_actions mirror_direction or_ resolve_articulator
        resolve_direction""",
    "errors": """AliasCollision CoincidentPoints ConfigError Diagnostic DuplicateSign
        NonFinite NonMonotoneTimestamps ParseError PdlslError SchemaError
        SourceSpan UngroundedFormula UnknownArticulator UnknownDirection UnknownState
        ZeroVector""",
    "geometry": """DEFAULT_PLACE_MAP PlaceMap Vec2 classify_direction load_place_map
        place_map_from_json relative_direction rotation_angle""",
    "parsing": """LexiconEntry LexiconFile lint_lexicon parse_action parse_atom
        parse_atomic_action parse_formula parse_lexicon print_action print_atom
        print_atomic_action print_formula""",
    "model": """ThreeVal UtteranceModel atom_value eval_formula eval_two_valued
        interpret_action model_from_json model_to_json""",
    "extract": """EPSILON_MOVE EpsilonMove Segment SegmentKind SegmentationParams
        TrackingSequence build_model compute_velocities extract_model normalize_sequence
        posture_valuation segment tracking_from_json transition_action validate_sequence""",
    "check": """MATCH POSSIBLE Override Proposal ProposalReport anchor_atoms apply_overrides
        lexicon_hash parse_overrides verify""",
}
NAMES = sorted(name for names in EXPORTED.values() for name in names.split())


def python(code, *args, cwd=None):
    """Run `code` in a fresh interpreter that finds this `pdlsl`; its last
    line of standard output, read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Runs one command; at exit prints the `pdlsl` modules, `hashlib`,
# `dataclasses` and `inspect`, if they were loaded, each with the number of
# lines of its file for a `pdlsl` module (`__init__.py` for the package) and
# 0 for the others.
COMMAND = """
import atexit, json, sys
OTHERS = ("hashlib", "dataclasses", "inspect")
def lines(name):
    if not name.startswith("pdlsl"):
        return 0
    with open(sys.modules[name].__file__, encoding="utf-8") as fh:
        return len(fh.readlines())
atexit.register(lambda: print(json.dumps({m: lines(m) for m in list(sys.modules)
                                          if m.startswith("pdlsl") or m in OTHERS})))
from pdlsl.cli import main
code = main(sys.argv[1:])
assert code == 0, code
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The modules loaded by `extract`, `check`, `eval` and `lint` on
    `route_clean`, each with the lines it compiled (see COMMAND)."""
    tmp = tmp_path_factory.mktemp("commands")
    model = tmp / "model.json"
    argvs = {
        "extract": ["extract", EXAMPLES / "route_clean.tracking.json", "-o", model],
        "check": ["check", model, EXAMPLES / "route.pdlsl", "-o", tmp / "report.json"],
        "eval": ["eval", model, "touch(R,L)", "0"],
        "lint": ["lint", EXAMPLES / "route.pdlsl"],
    }
    return {name: python(COMMAND, *argv, cwd=tmp) for name, argv in argvs.items()}


def test_commands_load_only_their_own_modules(loaded):
    # `geometry` loads for `extract`, or for a place map or body origin named.
    for command in ("check", "eval", "lint"):
        assert not loaded[command].keys() & {"pdlsl.extract", "pdlsl.geometry"}, command
    for command in ("extract", "lint"):
        assert not loaded[command].keys() & {"pdlsl.check", "hashlib"}, command
    assert "pdlsl.extract" in loaded["extract"] and "pdlsl.check" in loaded["check"]
    assert "pdlsl.geometry" in loaded["extract"]


def test_no_command_loads_dataclasses_or_inspect(loaded):
    for command, modules in loaded.items():
        assert not modules.keys() & {"dataclasses", "inspect"}, command


# A fault in a place map or body origin that `check` or `eval` is given:
# the files the case writes, its options, the record it ends in, and its
# exit code. The place map or body origin is read, and refused, before
# anything else, however late these commands load `geometry`.
BAD_PLACEMAP = '{"places": {"X": [0, 1, 0]}}'
PLACEMAP_FAULTS = {
    "missing --placemap": ({}, ["--placemap", "nope.json"], 1, {
        "diagnostic": "file-not-found", "severity": "error",
        "message": "file not found: nope.json", "file": "nope.json"}),
    "malformed --placemap": ({"pm.json": BAD_PLACEMAP}, ["--placemap", "pm.json"], 1, {
        "diagnostic": "schema-error", "severity": "error",
        "message": "pm.json: /places/X: expected [x_min, x_max, y_min, y_max]",
        "file": "pm.json", "pointer": "/places/X"}),
    "config placemap not a string": ({"c.json": '{"placemap": 3}'}, ["--config", "c.json"], 2, {
        "diagnostic": "config-error", "severity": "error",
        "message": "c.json: /placemap: expected a string", "file": "c.json",
        "pointer": "/placemap"}),
    "config placemap malformed": (
        {"c.json": '{"placemap": "pm.json"}', "pm.json": BAD_PLACEMAP}, ["--config", "c.json"], 1, {
            "diagnostic": "schema-error", "severity": "error",
            "message": "pm.json: /places/X: expected [x_min, x_max, y_min, y_max]",
            "file": "pm.json", "pointer": "/places/X"}),
    "config body_origin": ({"c.json": '{"body_origin": [1]}'}, ["--config", "c.json"], 2, {
        "diagnostic": "config-error", "severity": "error",
        "message": "c.json: /body_origin: expected [x, y]", "file": "c.json",
        "pointer": "/body_origin"}),
}


@pytest.mark.parametrize("case", PLACEMAP_FAULTS.values(), ids=PLACEMAP_FAULTS.keys())
def test_check_and_eval_refuse_a_bad_place_map_or_body_origin(case, tmp_path):
    files, options, code, record = case
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    model = ROOT / "tests" / "golden" / "route_clean.model.json"
    for argv in (["check", model, EXAMPLES / "route.pdlsl"], ["eval", model, "touch(R,L)", "0"]):
        proc = run_pdlsl(*argv, *options, cwd=tmp_path)
        expected = (code, b"", (json.dumps(record) + "\n").encode("utf-8"))
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv[0]


#: The most lines of `pdlsl` source that each command may load. A process
#: that writes no bytecode, as under PYTHONDONTWRITEBYTECODE=1, compiles
#: every line it loads, so each costs start-up time. A change that raises a
#: ceiling says why.
LINE_CEILINGS = {"extract": 3386, "check": 2804, "eval": 2619, "lint": 2619}


def test_commands_compile_no_more_lines_than_their_ceilings(loaded):
    counts = {command: sum(modules.values()) for command, modules in loaded.items()}
    assert all(counts[command] <= ceiling for command, ceiling in LINE_CEILINGS.items()), counts


def test_import_loads_nothing_and_a_public_name_loads_all_eight_modules():
    before, after = python(
        "import json, sys, pdlsl\n"
        "modules = lambda: sorted(m for m in sys.modules if m.startswith('pdlsl.'))\n"
        "before = modules(); pdlsl.verify\n"
        "print(json.dumps([before, modules()]))")
    assert before == []
    assert set(after) == MODULES


def test_every_exported_name_resolves_is_listed_and_star_imports():
    # Fresh interpreters: `dir` and the reads go through the unloaded package.
    unlisted = python("import json, sys, pdlsl\n"
                      "listed = dir(pdlsl)\n"
                      "for name in sys.argv[1:]: getattr(pdlsl, name)\n"
                      "print(json.dumps([n for n in sys.argv[1:] if n not in listed]))", *NAMES)
    assert unlisted == []
    star = python("import json\nfrom pdlsl import *\nprint(json.dumps(sorted(globals())))")
    assert set(NAMES) <= set(star)
    for module, names in EXPORTED.items():
        for name in names.split():
            value = getattr(pdlsl, name)  # loads the API if nothing has yet
            assert value is getattr(sys.modules[f"pdlsl.{module}"], name), name
    assert pdlsl.__version__ == "0.1.0"


# --- the oldest supported Python -------------------------------------------------------

PYTHON_FLOOR = (3, 10)  # `requires-python` in pyproject.toml


def test_every_module_parses_as_the_oldest_supported_python():
    modules = sorted((SRC / "pdlsl").glob("*.py"))
    assert len(modules) == 10
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=PYTHON_FLOOR)


def test_tokenizer_patterns_need_no_newer_python():
    # Atomic groups and possessive quantifiers came with Python 3.11.
    patterns = [v.pattern for v in vars(parsing).values() if isinstance(v, re.Pattern)]
    assert len(patterns) >= 2
    for pattern in patterns:
        assert not re.search(r"\(\?>|(?<!\\)[*+?}]\+", pattern), pattern
