"""Sign descriptions as dynamic-logic formulas, transition-system models
extracted from 2-D hand tracking, and model checking of a sign lexicon
against those models.

Importing the package loads none of its modules. The first read of a name
below (`pdlsl.verify`, `from pdlsl import verify`, `from pdlsl import *`)
loads all eight, so a library user sees the whole API at once, while a
`pdlsl` command imports only the modules that it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names, under the module that defines each; `schema` exports none.
_API = {
    "core": (
        "TOP", "Action", "And", "Articulator", "At", "Atom", "AtomF", "Atomic", "AtomicAction",
        "Box", "Choice", "Concurrent", "Config", "Direction", "Formula", "Handedness", "Move",
        "Not", "Orient", "Place", "Rect", "RelDir", "Seq", "Star", "Thrill", "Top", "Touch",
        "contains_alias", "diamond", "ground", "ground_atom", "implies", "iter_atoms",
        "iter_atomic_actions", "mirror_direction", "or_", "resolve_articulator",
        "resolve_direction",
    ),
    "errors": (
        "AliasCollision", "CoincidentPoints", "ConfigError", "Diagnostic", "DuplicateSign",
        "NonFinite", "NonMonotoneTimestamps", "ParseError", "PdlslError", "SchemaError",
        "SourceSpan", "UngroundedFormula", "UnknownArticulator", "UnknownDirection",
        "UnknownState", "ZeroVector",
    ),
    "schema": (),
    "geometry": (
        "DEFAULT_PLACE_MAP", "PlaceMap", "Vec2", "classify_direction", "load_place_map",
        "place_map_from_json", "relative_direction", "rotation_angle",
    ),
    "parsing": (
        "LexiconEntry", "LexiconFile", "lint_lexicon", "parse_action", "parse_atom",
        "parse_atomic_action", "parse_formula", "parse_lexicon", "print_action", "print_atom",
        "print_atomic_action", "print_formula",
    ),
    "model": (
        "SegmentationParams", "ThreeVal", "UtteranceModel", "atom_value", "eval_formula",
        "eval_two_valued", "interpret_action", "model_from_json", "model_to_json",
    ),
    "extract": (
        "EPSILON_MOVE", "EpsilonMove", "Segment", "SegmentKind", "TrackingSequence",
        "build_model", "compute_velocities", "extract_model", "normalize_sequence",
        "posture_valuation", "segment", "tracking_from_json", "transition_action",
        "validate_sequence",
    ),
    "check": (
        "MATCH", "POSSIBLE", "Override", "Proposal", "ProposalReport", "anchor_atoms",
        "apply_overrides", "lexicon_hash", "parse_overrides", "verify",
    ),
}
__all__ = [name for names in _API.values() for name in names]


def __getattr__(name: str):
    """Load the whole API on the first read of a public name or module,
    and keep it in the package's namespace so later reads find it there."""
    if name not in _API and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _API.items():
        loaded = importlib.import_module(f"{__name__}.{module}")
        globals().update((n, getattr(loaded, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
