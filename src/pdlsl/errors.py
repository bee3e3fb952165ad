"""Exception types, source positions, the diagnostic record, the record
base and the strict JSON reader shared across the toolkit."""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from typing import Any


class Record:
    """An immutable value with named fields, compared and hashed by value.

    A subclass names its fields in `__slots__`, in positional order; a slot
    whose name starts with `_`, such as a value derived from the fields, is
    not a field. `_defaults` maps trailing fields to their defaults.
    Each subclass gets an `__init__` and an `_astuple` (the field values in
    order) written for its fields, which run as fast as Python can. The
    `__init__` calls the subclass's `__post_init__`, if it has one, looked
    up on the class at each construction."""

    __slots__ = ()
    _defaults: Mapping[str, Any] = {}

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in names)
        lines = [f"def __init__(self, {params}):"]
        lines += [f" _set(self, {n!r}, {n})" for n in names]
        lines.append(" self.__post_init__()" if hasattr(cls, "__post_init__") else " pass")
        lines.append(f"def _astuple(self): return ({''.join(f'self.{n}, ' for n in names)})")
        namespace = {"_set": object.__setattr__, "_defaults": cls._defaults}
        exec(compile("\n".join(lines), f"<record {cls.__qualname__}>", "exec"), namespace)
        cls.__init__, cls._astuple = namespace["__init__"], namespace["_astuple"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _asdict(self) -> dict[str, Any]:
        return dict(zip(self.__match_args__, self._astuple()))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple[Any, ...]:
        return type(self), self._astuple()

    def _replace(self, **changes: Any) -> Any:
        """A copy with the given fields changed, checked as a new value."""
        return type(self)(**{**self._asdict(), **changes})

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SourceSpan(Record):
    """1-based position of a token or error in an input text."""

    __slots__ = ("line", "column", "length")
    _defaults = {"length": 1}

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

    @property
    def code(self) -> str:
        """The error's `Diagnostic` code: its class name in kebab case."""
        return re.sub(r"(?<=.)(?=[A-Z])", "-", type(self).__name__).lower()


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


class NonMonotoneTimestamps(PdlslError):
    """Frame indices decrease within a tracking sequence; unrecoverable."""

    def __init__(self, position: int, t_prev: int, t_next: int):
        super().__init__(f"frame index {t_next} after {t_prev} at position {position}")
        self.position = position


class UnknownState(PdlslError):
    """A state id outside the model's state range was referenced."""


class NotUtf8(PdlslError):
    """A text input file is not UTF-8."""


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


class Diagnostic(Record):
    """A note or error about an input: its kind, "error" or "warning", its
    text, and where known its file, `SourceSpan`, JSON pointer, frame and hand."""

    __slots__ = ("code", "severity", "message", "file", "span", "pointer", "frame", "hand")
    _defaults = dict.fromkeys(__slots__[3:])

    @classmethod
    def of_error(cls, exc: PdlslError | OSError) -> Diagnostic:
        """The record of an error that ends a command."""
        if isinstance(exc, FileNotFoundError):
            return cls("file-not-found", "error", f"file not found: {exc.filename}", exc.filename)
        if isinstance(exc, OSError):
            message = f"cannot read {exc.filename}: {exc.strerror}"
            return cls("cannot-read", "error", message, exc.filename)
        message = f"parse error: {exc}" if isinstance(exc, ParseError) else str(exc)
        return cls(exc.code, "error", message, exc.file, getattr(exc, "span", None),
                   getattr(exc, "path", None))

    def to_json(self) -> dict[str, Any]:
        """The known fields, the code as `diagnostic` and the span as `line` and `column`."""
        span = self.span
        doc = {"diagnostic": self.code, "severity": self.severity, "message": self.message,
               "file": self.file, "line": span and span.line, "column": span and span.column,
               "pointer": self.pointer, "frame": self.frame, "hand": self.hand}
        return {key: value for key, value in doc.items() if value is not None}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {json.dumps(key)}")
            seen.add(key)
    return obj


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
            raise NotUtf8(f"not UTF-8 text ({exc.reason})") from None
        return build(text)


def load_json(path: str, build: Callable[[Any], Any], error: type[SchemaError] = SchemaError) -> Any:
    """`build` applied to the JSON input file at `path`. Python's `json`
    accepts NaN and Infinity, reads literals such as 1e999 as infinity and
    keeps the last value of a key an object repeats; all three are refused
    here, so every float that reaches the toolkit is finite and no value is
    dropped unseen. Text that is not UTF-8 raises NotUtf8, as in `load_text`
    (a ConfigError in a run configuration, all of whose faults are), and any
    other defect of the content, nesting too deep for the decoder included,
    `error` at the document root. A toolkit error raised on the way names the file."""
    with _about(path), open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys,
                            parse_constant=_refuse_constant, parse_float=_finite_float)
        except UnicodeDecodeError as exc:  # a ValueError, so caught first
            message = f"not UTF-8 text ({exc.reason})"
            raise (error("", message) if error is ConfigError else NotUtf8(message)) from None
        except (ValueError, RecursionError) as exc:
            raise error("", f"invalid JSON: {exc}") from None
        return build(doc)
