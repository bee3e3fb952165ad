"""Exception types, source positions and the strict JSON reader shared
across the toolkit."""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """1-based position of a token or error in an input text."""

    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class PdlslError(Exception):
    """Base class for all toolkit errors. `file` names the input file an
    error is about, and its message then starts with it; the loader that
    read the file sets it."""

    file: str | None = None

    def __str__(self) -> str:
        text = self.describe()
        return text if self.file is None else f"{self.file}: {text}"

    def describe(self) -> str:
        return super().__str__()


class ZeroVector(PdlslError):
    """An angle or direction was requested for a zero-length vector."""


class CoincidentPoints(PdlslError):
    """A relative direction was requested for two identical points."""


class NonFinite(PdlslError, ValueError):
    """A coordinate or scale is not a finite number, such as a difference of
    two finite coordinates that overflows. It is a ValueError too, so a
    schema builder reports it at its JSON pointer."""


class ParseError(PdlslError):
    """Bad concrete syntax. Carries the offending span and, when known,
    the set of token kinds that would have been accepted."""

    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str] = frozenset()):
        super().__init__(message)
        self.span = span
        self.expected = expected

    def describe(self) -> str:
        base = f"{self.span}: {self.args[0]}"
        if self.expected:
            base += f" (expected {', '.join(sorted(self.expected))})"
        return base


class UnknownArticulator(ParseError):
    """A token in articulator position is not one of D, W, R, L."""


class UnknownDirection(ParseError):
    """A token in direction position is not one of the eight compass names."""


class DuplicateSign(ParseError):
    """A lexicon defines the same sign name twice."""

    def __init__(self, name: str, first: SourceSpan, second: SourceSpan):
        super().__init__(f"duplicate sign {name!r} (first defined at {first})", second)
        self.name = name
        self.first = first
        self.second = second


class SchemaError(PdlslError):
    """A structured input file violates its schema. `path` is the RFC 6901
    JSON pointer of the offending value, "" for the whole document."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path


class ConfigError(SchemaError):
    """Bad run configuration (unknown keys, bad values). Treated as a
    usage error by the command line."""


class EmptySequence(PdlslError):
    """A tracking sequence with no frames was given to segmentation."""


class NoKeyPosture(PdlslError):
    """Segmentation produced no key posture to build states from."""


class NonMonotoneTimestamps(PdlslError):
    """Frame indices decrease within a tracking sequence; unrecoverable."""

    def __init__(self, position: int, t_prev: int, t_next: int):
        super().__init__(f"frame index {t_next} after {t_prev} at position {position}")
        self.position = position


class UnknownState(PdlslError):
    """A state id outside the model's state range was referenced."""


class UngroundedFormula(PdlslError):
    """A formula still mentions the dominant/weak aliases where a grounded
    formula is required."""


class AliasCollision(PdlslError):
    """Grounding collapsed the two articulators of a pairwise atom onto the
    same hand (e.g. touch(D,R) for a right-dominant signer). `atom` is the
    atom as written, for messages that spell it."""

    def __init__(self, message: str, atom: Any = None):
        super().__init__(message)
        self.atom = atom


def _refuse_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


@contextmanager
def _about(path: str) -> Iterator[None]:
    """Names `path` in a toolkit error raised inside, unless the error names
    a file already, as one about a place map that a config file names does."""
    try:
        yield
    except PdlslError as exc:
        if exc.file is None:
            exc.file = path
        raise


def load_text(path: str, build: Callable[[str], Any]) -> Any:
    """`build` applied to the text of the UTF-8 file at `path`. A toolkit
    error raised on the way, such as a `ParseError`, names the file."""
    with _about(path), open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise PdlslError(f"not UTF-8 text ({exc.reason})") from None
        return build(text)


def load_json(path: str, build: Callable[[Any], Any], error: type[SchemaError] = SchemaError) -> Any:
    """`build` applied to the JSON input file at `path`. Python's `json`
    accepts NaN and Infinity and reads literals such as 1e999 as infinity;
    both are refused here, so every float that reaches the toolkit is
    finite. Any defect of the file's content, nesting too deep for the
    decoder included, raises `error` at the document root. A toolkit error
    raised on the way names the file."""
    with _about(path), open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_refuse_constant, parse_float=_finite_float)
        except (ValueError, RecursionError) as exc:
            raise error("", f"invalid JSON: {exc}") from None
        return build(doc)
