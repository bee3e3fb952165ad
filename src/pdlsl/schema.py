"""One checker for the JSON input files.

Each format is a table of nodes made by the constructors below. A node is a
function that takes a decoded JSON value and returns its result or raises
`Invalid`. Values are accepted by exact JSON type, so `true` is never an
integer and `1.0` never the integer 1, and a `table` refuses every key it
does not name. A `build` function given to a node makes the program's value
out of the checked one; a `ValueError` or `OverflowError` it raises is
reported at that node. Nodes keep no position while the input is valid: each
container an `Invalid` passes on its way out adds its key or index, and
`check` turns that path into an RFC 6901 JSON pointer only then.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import partial
from operator import length_hint
from typing import Any, NamedTuple

from .errors import SchemaError

Node = Callable[[Any], Any]


class Invalid(Exception):
    """A value that breaks its node. `where` holds the keys and indexes from
    the value up to the document root, innermost first; a `build` function
    may raise it with the first few."""

    def __init__(self, message: str, *where: str | int):
        super().__init__(message)
        self.message = message
        self.where = list(where)


def pointer(where: list[str | int]) -> str:
    """The RFC 6901 JSON pointer of a path given innermost first."""
    return "".join("/" + str(k).replace("~", "~0").replace("/", "~1") for k in reversed(where))


def check(node: Node, value: Any, error: type[SchemaError] = SchemaError) -> Any:
    """The result of `node` on a decoded document; a value it refuses raises
    `error(pointer, message)`."""
    try:
        return node(value)
    except Invalid as exc:
        raise error(pointer(exc.where), exc.message) from None


def _build(build: Callable[[Any], Any], value: Any) -> Any:
    try:
        return build(value)
    except (ValueError, OverflowError) as exc:
        raise Invalid(str(exc)) from None


# --- Leaves ------------------------------------------------------------------


def _leaf(types: set[type], expected: str, test: Callable | None = None,
          build: Callable | None = None) -> Node:
    def node(value: Any) -> Any:
        if type(value) not in types or test is not None and not test(value):
            raise Invalid(f"expected {expected}")
        if build is None:
            return value
        try:
            return build(value)
        except (ValueError, OverflowError) as exc:
            raise Invalid(str(exc)) from None

    if test is None and build is None:
        node.plain = (types, expected)  # a table tests the type in place of the call
    return node


def integer(minimum: int | None = None) -> Node:
    """An integer, at least `minimum` (0 or 1) if given."""
    if minimum is None:
        return _leaf({int}, "an integer")
    words = {0: "a nonnegative integer", 1: "a positive integer"}[minimum]
    return _leaf({int}, words, lambda v: v >= minimum)


def number(positive: bool = False, build: Callable | None = None) -> Node:
    """An integer or a float; above 0 with `positive`."""
    if positive:
        return _leaf({int, float}, "a positive number", lambda v: v > 0, build)
    return _leaf({int, float}, "a number", None, build)


def boolean() -> Node:
    return _leaf({bool}, "a boolean")


def string(build: Callable | None = None) -> Node:
    return _leaf({str}, "a string", None, build)


def const(value: int) -> Node:
    """Exactly the integer `value`."""
    return _leaf({int}, str(value), lambda v: v == value)


def choice(options: Mapping[str, Any]) -> Node:
    """One of the keys of `options`; the result is the key's value."""
    return _leaf({str}, "one of " + ", ".join(options), options.__contains__, options.__getitem__)


# --- Containers ----------------------------------------------------------------


def array(item: Node, non_empty: bool = False, build: Callable | None = None) -> Node:
    """A list of elements that `item` accepts; the result is `build` of the
    list of their results, or that list."""
    expected = "a non-empty list" if non_empty else "a list"

    def node(value: Any) -> Any:
        if type(value) is not list or non_empty and not value:
            raise Invalid(f"expected {expected}")
        elements = iter(value)
        try:
            out = [item(element) for element in elements]
        except Invalid as exc:
            # The iterator has passed the failing element and holds the rest.
            exc.where.append(len(value) - length_hint(elements) - 1)
            raise
        return out if build is None else _build(build, out)

    return node


def fixed(expected: str, length: int, item: Node, build: Callable = tuple) -> Node:
    """A list of `length` elements that `item` accepts, such as `[x, y]`,
    which messages call `expected`; the result is `build` of the list of
    their results."""
    elements = array(item, build=build)

    def node(value: Any) -> Any:
        if type(value) is not list or len(value) != length:
            raise Invalid(f"expected {expected}")
        return elements(value)

    return node


def mapping(item: Node, non_empty: bool = False, build: Callable | None = None) -> Node:
    """An object whose keys are data and whose values `item` accepts; the
    result is `build` of the dict of their results, or that dict."""
    expected = "a non-empty object" if non_empty else "an object"

    def node(value: Any) -> Any:
        if type(value) is not dict or non_empty and not value:
            raise Invalid(f"expected {expected}")
        out = {}
        try:
            for key, element in value.items():
                out[key] = item(element)
        except Invalid as exc:
            exc.where.append(key)
            raise
        return out if build is None else _build(build, out)

    return node


class _Optional(NamedTuple):
    node: Node
    default: Any
    null: bool


def optional(node: Node, default: Any = None, null: bool = False) -> _Optional:
    """A table key that may be missing, and with `null` set may be null;
    either way the table passes `default` in its place."""
    return _Optional(node, default, null)


class _Given(NamedTuple):
    node: Callable[..., Any]
    keys: tuple[str, ...]


def given(node: Callable[..., Any], *keys: str) -> _Given:
    """A table key whose node also takes the results of earlier keys of the
    table, as `node(value, *results)`."""
    return _Given(node, keys)


def _unknown(label: str, names: frozenset[str], value: dict) -> None:
    raise Invalid(f"unknown {label} key", next(k for k in value if k not in names))


def table(label: str, fields: Mapping[str, Node | _Optional | _Given],
          build: Callable | None = None) -> Node:
    """An object with the keys of `fields` and no other. The result is
    `build` of the keys' results in table order, with `build=tuple` their
    tuple, and without `build` the object itself.

    The check is generated as straight-line Python, one block per key,
    because it runs once per row of the largest lists, where a loop over the
    keys made `model_from_json` about a fifth slower. It is compiled when
    the table is built, and the compiled function is the node."""
    env = {"Invalid": Invalid, "ABSENT": object(), "build": build, "names": frozenset(fields)}
    env["unknown"] = partial(_unknown, label, env["names"])
    code = ["def check(value):",
            "    if type(value) is not dict:",
            "        raise Invalid('expected an object')"]
    required = not any(isinstance(field, _Optional) for field in fields.values())
    if not required:
        code.append("    if not value.keys() <= names: unknown(value)")
    code.append("    try:")
    for i, (key, field) in enumerate(fields.items()):
        code += [f"        key = {key!r}", f"        v{i} = value.get(key, ABSENT)"]
        indent = "        "
        if isinstance(field, _Optional):
            null = f" or v{i} is None" if field.null else ""
            env[f"default{i}"], field = field.default, field.node
            code += [f"        if v{i} is ABSENT{null}:", f"            v{i} = default{i}",
                     "        else:"]
            indent = "            "
        if isinstance(field, _Given):
            env[f"node{i}"] = field.node
            results = "".join(f", v{list(fields).index(key)}" for key in field.keys)
            code.append(f"{indent}v{i} = node{i}(v{i}{results})")
        elif hasattr(field, "plain"):
            env[f"types{i}"], expected = field.plain
            code += [f"{indent}if type(v{i}) not in types{i}:",
                     f"{indent}    raise Invalid({'expected ' + expected!r})"]
        else:
            env[f"node{i}"] = field
            code.append(f"{indent}v{i} = node{i}(v{i})")
    code += ["    except Invalid as exc:", "        exc.where.append(key)", "        raise"]
    if required:
        # Every key is there, so a longer object has one more.
        code += [f"    if len(value) != {len(fields)}:", "        unknown(value)"]
    values = ", ".join(f"v{i}" for i in range(len(fields)))
    if build is None:
        code.append("    return value")
    elif build is tuple:
        code.append(f"    return ({values},)")
    else:
        code += ["    try:", f"        return build({values})",
                 "    except (ValueError, OverflowError) as exc:",
                 "        raise Invalid(str(exc)) from None"]
    exec("\n".join(code), env)
    return env["check"]
