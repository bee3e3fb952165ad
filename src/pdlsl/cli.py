"""Batch command line: extract, check, eval, lint.

Exit codes: 0 success, 1 unrecoverable data error, 2 usage error.
Configuration precedence: flags > config file > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Sequence

from .check import ProposalReport, parse_overrides, verify
from .core import Formula, Handedness, ground
from .errors import AliasCollision, ConfigError, ParseError, PdlslError, SchemaError, read_json
from .extract import Diagnostic, SegmentationParams, extract_model, tracking_from_json
from .geometry import DEFAULT_PLACE_MAP, PlaceMap, Vec2, load_place_map
from .model import eval_formula, model_from_json, model_to_json
from .parsing import lint_lexicon, parse_formula, parse_lexicon, print_atom


@dataclass(frozen=True)
class RunConfig:
    handedness: Handedness = Handedness.RIGHT_DOMINANT
    mirrored: bool | None = None  # None: use the tracking file's flag
    placemap: PlaceMap = DEFAULT_PLACE_MAP
    segmentation: SegmentationParams = SegmentationParams()
    output_format: str = "json"
    body_origin: Vec2 | None = None
    body_scale: float | None = None


_SEG_FIELDS = {f.name: f for f in fields(SegmentationParams)}
_CONFIG_KEYS = ("dominant", "mirrored", "placemap", "segmentation", "format",
                "body_origin", "body_scale")


def _segmentation_from_obj(obj: Any, base: SegmentationParams) -> SegmentationParams:
    if not isinstance(obj, Mapping):
        raise ConfigError("config key 'segmentation' must be an object")
    updates: dict[str, Any] = {}
    for key, value in obj.items():
        spec = _SEG_FIELDS.get(key)
        if spec is None:
            raise ConfigError(f"unknown segmentation key {key!r}")
        if spec.type in ("int", int):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"segmentation key {key!r} must be an integer")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"segmentation key {key!r} must be a number")
        updates[key] = value
    try:
        return replace(base, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | None) -> RunConfig:
    config = RunConfig()
    if path is None:
        return config
    obj = read_json(path, lambda message: ConfigError(f"invalid config JSON: {message}"))
    if not isinstance(obj, Mapping):
        raise ConfigError("config file must be a JSON object")
    for key in obj:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    if "dominant" in obj:
        config = replace(config, handedness=_handedness(obj["dominant"]))
    if "mirrored" in obj:
        if not isinstance(obj["mirrored"], bool):
            raise ConfigError("config key 'mirrored' must be a boolean")
        config = replace(config, mirrored=obj["mirrored"])
    if "placemap" in obj:
        if not isinstance(obj["placemap"], str):
            raise ConfigError("config key 'placemap' must be a file path")
        config = replace(config, placemap=load_place_map(obj["placemap"]))
    if "segmentation" in obj:
        config = replace(
            config, segmentation=_segmentation_from_obj(obj["segmentation"], config.segmentation)
        )
    if "format" in obj:
        config = replace(config, output_format=_output_format(obj["format"]))
    if "body_origin" in obj:
        raw = obj["body_origin"]
        if not (isinstance(raw, list) and len(raw) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)):
            raise ConfigError("config key 'body_origin' must be [x, y]")
        config = replace(config, body_origin=Vec2(float(raw[0]), float(raw[1])))
    if "body_scale" in obj:
        raw = obj["body_scale"]
        if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
            raise ConfigError("config key 'body_scale' must be a positive number")
        config = replace(config, body_scale=float(raw))
    return config


def _handedness(value: Any) -> Handedness:
    if value == "right":
        return Handedness.RIGHT_DOMINANT
    if value == "left":
        return Handedness.LEFT_DOMINANT
    raise ConfigError(f"dominant hand must be 'right' or 'left', got {value!r}")


def _output_format(value: Any) -> str:
    if value in ("json", "table"):
        return value
    raise ConfigError(f"format must be 'json' or 'table', got {value!r}")


def _apply_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "dominant", None) is not None:
        config = replace(config, handedness=_handedness(args.dominant))
    if getattr(args, "mirrored", False):
        config = replace(config, mirrored=True)
    if getattr(args, "placemap", None) is not None:
        config = replace(config, placemap=load_place_map(args.placemap))
    if getattr(args, "format", None) is not None:
        config = replace(config, output_format=_output_format(args.format))
    return config


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    return _apply_flags(load_config(getattr(args, "config", None)), args)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise PdlslError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_json(path: str) -> Any:
    return read_json(path, lambda message: SchemaError("", f"invalid JSON in {path}: {message}"))


def _emit_diagnostics(diagnostics: Sequence[Diagnostic]) -> None:
    for d in diagnostics:
        print(json.dumps(d.to_json(), sort_keys=False), file=sys.stderr)


def _dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# --- Commands -----------------------------------------------------------------


def cmd_extract(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    raw = tracking_from_json(_read_json(args.tracking))
    if config.mirrored is not None:
        raw = replace(raw, mirrored=config.mirrored)
    model, diagnostics = extract_model(
        raw,
        params=config.segmentation,
        place_map=config.placemap,
        body_origin=config.body_origin,
        body_scale=config.body_scale,
    )
    _emit_diagnostics(diagnostics)
    _write_output(_dump_json(model_to_json(model)), args.output)
    return 0


def _render_table(report: ProposalReport) -> str:
    lines = []
    for state, proposals in enumerate(report.per_state):
        if not proposals:
            lines.append(f"s{state}  -")
        for p in proposals:
            lines.append(f"s{state}  {p.sign}  {p.verdict}")
    return "\n".join(lines) + "\n"


def cmd_check(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    model = model_from_json(_read_json(args.model))
    lexicon = parse_lexicon(_read_text(args.lexicon))
    overrides = parse_overrides(_read_text(args.overrides)) if args.overrides else []
    report = verify(model, lexicon, config.handedness, overrides=overrides)
    if config.output_format == "table":
        _write_output(_render_table(report), args.output)
    else:
        _write_output(_dump_json(report.to_json()), args.output)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    model = model_from_json(_read_json(args.model))
    formula: Formula = parse_formula(args.formula)
    try:
        grounded = ground(formula, config.handedness)
    except AliasCollision as exc:
        raise AliasCollision(f"formula uses {print_atom(exc.atom)}: {exc}", exc.atom) from None
    value = eval_formula(model, args.state, grounded)
    print(str(value))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    lexicon, issues = lint_lexicon(_read_text(args.lexicon))
    for issue in issues:
        print(f"{args.lexicon}:{issue}", file=sys.stderr)
    return 0 if lexicon is not None else 1


# --- Entry point ---------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, output_default: bool = True) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--dominant", choices=("right", "left"), help="signer's dominant hand")
    parser.add_argument("--mirrored", action="store_true", help="treat footage as camera-facing")
    parser.add_argument("--placemap", metavar="PATH", help="places-of-articulation file")
    parser.add_argument("--format", choices=("json", "table"), help="output format")
    if output_default:
        parser.add_argument("-o", "--output", metavar="PATH", help="write output here instead of stdout")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdlsl",
        description="Extract transition-system models from hand tracking data and "
        "check them against a sign lexicon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="tracking file -> model file")
    p_extract.add_argument("tracking", help="tracking JSON input")
    _add_common(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_check = sub.add_parser("check", help="model + lexicon -> sign proposals")
    p_check.add_argument("model", help="model JSON input")
    p_check.add_argument("lexicon", help="lexicon (.pdlsl) input")
    p_check.add_argument("--overrides", metavar="PATH", help="valuation override lines")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate one formula at one state")
    p_eval.add_argument("model", help="model JSON input")
    p_eval.add_argument("formula", help="formula text")
    p_eval.add_argument("state", type=int, help="state id")
    _add_common(p_eval, output_default=False)
    p_eval.set_defaults(func=cmd_eval)

    p_lint = sub.add_parser("lint", help="check a lexicon file")
    p_lint.add_argument("lexicon", help="lexicon (.pdlsl) input")
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"pdlsl: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"pdlsl: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        verb = "write" if exc.filename == getattr(args, "output", None) else "read"
        print(f"pdlsl: cannot {verb} {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"pdlsl: parse error: {exc}", file=sys.stderr)
        return 1
    except PdlslError as exc:
        print(f"pdlsl: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
