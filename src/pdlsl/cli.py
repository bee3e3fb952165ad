"""Batch command line: extract, check, eval, lint.

Exit codes: 0 success, 1 unrecoverable data error, 2 usage error.
Configuration precedence: flags > config file > built-in defaults.
Each diagnostic, a fatal or usage error included, is one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Iterable, NoReturn, Sequence

# The modules that the config table needs (`model` imports `parsing`).
# `extract`, `check` and `geometry` load where a command runs them or a run
# names a place map or body origin, so `check`, `eval` and `lint` never load
# `extract`, and `extract` and `lint` never load `check`.
from .core import Handedness
from .errors import AliasCollision, ConfigError, Diagnostic, PdlslError, Record, load_json, load_text
from .model import (
    SEGMENTATION,
    SegmentationParams,
    _Labeler,
    _value,
    model_from_json,
    model_to_json,
)
from .parsing import lint_lexicon, parse_formula, parse_lexicon, print_atom
from .schema import boolean, check, choice, number, optional, string, table

if TYPE_CHECKING:
    from .check import ProposalReport


class RunConfig(Record):
    """A run's settings, as the config table below builds them."""

    __slots__ = ("handedness", "mirrored", "placemap", "segmentation", "output_format",
                 "body_origin", "body_scale")


def _geometry(name: str):
    """A node that `geometry`'s `name` checks a value with, loading it then."""
    return lambda value: getattr(import_module(".geometry", __package__), name)(value)


# In RunConfig's field order, which the table passes its values in.
_CONFIG = table("config", {
    "dominant": optional(choice({h.value: h for h in Handedness}), Handedness.RIGHT_DOMINANT),
    "mirrored": optional(boolean()),  # None: use the tracking file's flag
    "placemap": optional(string(_geometry("load_place_map"))),
    "segmentation": optional(SEGMENTATION, SegmentationParams()),
    "format": optional(choice({"json": "json", "table": "table"}), "json"),
    "body_origin": optional(_geometry("VEC")),
    "body_scale": optional(number(positive=True, build=float)),
}, RunConfig)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Flags over the config file over the defaults: the flags given join
    the file's keys, and the config table checks the result."""
    flags = {"dominant": args.dominant, "mirrored": args.mirrored or None,
             "placemap": args.placemap, "format": args.format}

    def resolve(doc: Any) -> RunConfig:
        if isinstance(doc, dict):
            doc.update((key, value) for key, value in flags.items() if value is not None)
        return check(_CONFIG, doc, ConfigError)

    return load_json(args.config, resolve, ConfigError) if args.config else resolve({})


def _emit(diagnostics: Iterable[Diagnostic]) -> None:
    """Write each record as a line of stderr. Records that cannot be written
    are dropped, so the result still goes to stdout or `-o`."""
    if sys.stderr is not None:  # None with file descriptor 2 closed: `print` would use stdout
        try:
            for d in diagnostics:
                print(json.dumps(d.to_json()), file=sys.stderr)
        except OSError:  # a pipe whose reader is gone
            pass


def _dump_json(obj: Any) -> str:
    """`json.dumps(obj, indent=2)` and a newline, for string-keyed dicts.

    `indent` turns the C encoder off, and the pure-Python one keeps every
    chunk of the document in one list. Here each leaf comes from the C
    encoder and each container is joined once its items are written."""
    return _indented(obj, "\n") + "\n"


# By exact type: `bool` is an `int` subclass that JSON spells true/false.
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}


def _indented(value: Any, newline: str) -> str:
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = [f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)) and value:
        items = [_indented(v, inner) for v in value]
        opening, closing = "[", "]"
    else:
        return json.dumps(value)  # floats, booleans, None, empty containers
    # One f-string: a chain of `+` would copy the text once per operand.
    return f"{opening}{inner}{(',' + inner).join(items)}{newline}{closing}"


def _write_output(text: str, path: str | None) -> None:
    """Write `text` to the file at `path`, or to stdout and flush it, so
    that a closed pipe fails here and not at exit."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:  # told apart here: an input may have the same path
        if path is None:
            # The interpreter flushes stdout again at exit, and the text
            # left in its buffer goes to the null device, not to the
            # failed stream (see "Note on SIGPIPE" in Python's `signal` docs).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise CannotWrite(f"cannot write {path or '<stdout>'}: {exc.strerror}") from None


# --- Commands -----------------------------------------------------------------


def cmd_extract(args: argparse.Namespace) -> int:
    from .extract import extract_model, tracking_from_json

    config = _resolve_config(args)
    raw = load_json(args.tracking, tracking_from_json)
    if config.mirrored is not None:
        raw = raw._replace(mirrored=config.mirrored)
    model, diagnostics = extract_model(
        raw,
        params=config.segmentation,
        place_map=config.placemap,
        body_origin=config.body_origin,
        body_scale=config.body_scale,
    )
    _emit(diagnostics)
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
    from .check import apply_overrides, parse_overrides, verify

    config = _resolve_config(args)
    model = load_json(args.model, model_from_json)
    lexicon = load_text(args.lexicon, parse_lexicon)
    if args.overrides:  # applied while read, so that an override's error names the file
        model = load_text(args.overrides, lambda text: apply_overrides(
            model, parse_overrides(text), config.handedness))
    report = verify(model, lexicon, config.handedness)
    if config.output_format == "table":
        _write_output(_render_table(report), args.output)
    else:
        _write_output(_dump_json(report.to_json()), args.output)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    model = load_json(args.model, model_from_json)
    formula = parse_formula(args.formula)
    labels = _Labeler(model, None, config.handedness)
    try:  # the formula is labeled before its state is checked, as a collision comes first
        labels.formula(formula)
    except AliasCollision as exc:
        raise AliasCollision(f"formula uses {print_atom(exc.atom)}: {exc}", exc.atom) from None
    _write_output(str(_value(labels, args.state, formula)) + "\n", None)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    lexicon, issues = load_text(args.lexicon, lint_lexicon)
    _emit(issue._replace(file=args.lexicon) for issue in issues)
    return 0 if lexicon is not None else 1


# --- Entry point ---------------------------------------------------------------


class Usage(PdlslError):
    """A command line that argparse refuses, with argparse's message."""


class CannotWrite(PdlslError):
    """The output file or stdout cannot be written."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise Usage(message)


def _add_common(parser: argparse.ArgumentParser, output_default: bool = True) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--dominant", choices=("right", "left"), help="signer's dominant hand")
    parser.add_argument("--mirrored", action="store_true", help="treat footage as camera-facing")
    parser.add_argument("--placemap", metavar="PATH", help="places-of-articulation file")
    parser.add_argument("--format", choices=("json", "table"), help="output format")
    if output_default:
        parser.add_argument("-o", "--output", metavar="PATH", help="write output here instead of stdout")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    try:
        args = build_arg_parser().parse_args(argv)
        return args.func(args)
    except (PdlslError, OSError) as exc:
        _emit([Diagnostic.of_error(exc)])
        return 2 if isinstance(exc, (ConfigError, Usage)) else 1


if __name__ == "__main__":
    sys.exit(main())
