"""Domain vocabulary: articulators, directions, places, atoms, actions, formulas.

Everything here is an immutable value. Formulas and actions are plain
syntax trees whose nodes are hash-consed (Filliâtre & Conchon 2006,
"Type-safe modular hash-consing"): building a node with the fields of an
existing one returns that node, so two nodes are equal exactly when they
are the same object, and comparing or hashing one takes constant time.
`ground_atom` resolves the dominant/weak hand aliases of a leaf, and `ground`
those of a tree, so that evaluation only ever sees the right/left hands.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from typing import Any, Iterator, Union

from .errors import AliasCollision, Record


class Articulator(Enum):
    """The four hand articulators. DOMINANT and WEAK are aliases whose
    concrete hand depends on the signer's handedness."""

    DOMINANT = "D"
    WEAK = "W"
    RIGHT = "R"
    LEFT = "L"

    # Members are singletons that compare by identity, so they can hash by
    # identity too; that keeps looking up an atom's fields in its intern
    # table out of Python-level `Enum.__hash__` calls.
    __hash__ = object.__hash__

    @property
    def is_alias(self) -> bool:
        return self in (Articulator.DOMINANT, Articulator.WEAK)

    def __str__(self) -> str:
        return self.value


_DIAG = math.sqrt(2.0) / 2.0


class Direction(Enum):
    """Eight compass directions bound to unit vectors in the signer frame
    (x grows to the signer's right, y grows upward). Definition order is
    the canonical order used for deterministic tie-breaking."""

    N = (0.0, 1.0)
    NE = (_DIAG, _DIAG)
    E = (1.0, 0.0)
    SE = (_DIAG, -_DIAG)
    S = (0.0, -1.0)
    SW = (-_DIAG, -_DIAG)
    W = (-1.0, 0.0)
    NW = (-_DIAG, _DIAG)

    __hash__ = object.__hash__  # as for Articulator

    @property
    def unit(self) -> tuple[float, float]:
        return self.value

    def __str__(self) -> str:
        return self.name


#: Each direction's mirror image, the direction of its vector with x negated;
#: -0.0 equals 0.0, so N and S are their own images.
_MIRROR = {d: Direction((-d.unit[0], d.unit[1])) for d in Direction}


class Handedness(Enum):
    RIGHT_DOMINANT = "right"
    LEFT_DOMINANT = "left"


class Rect(Record):
    """Axis-aligned rectangle in normalized body coordinates."""

    __slots__ = ("x_min", "x_max", "y_min", "y_max")

    def __post_init__(self) -> None:
        for v in (self.x_min, self.x_max, self.y_min, self.y_max):
            if not math.isfinite(v):
                raise ValueError("rectangle bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("rectangle must have positive area")

    def contains(self, x: float, y: float) -> bool:
        # Boundary inclusive: a point on a shared edge belongs to both regions.
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


class Place(Record):
    """A named place of articulation: a rectangular sub-plane of the body."""

    __slots__ = ("name", "region")


# --- Syntax nodes -------------------------------------------------------------


class _Node(Record):
    """Base of the atom, action and formula nodes: records that are
    interned. Every node type keeps its own table of the nodes built so
    far, keyed by their field values, for as long as the process runs.
    Equality and hashing are `object`'s, by identity; a copy or an
    unpickled node is the interned one, through `__reduce__`."""

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # The `__init__` written for the fields fills each new node once.
        cls._fill, cls.__init__ = cls.__init__, object.__init__
        cls._interned = {}

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        node = None if kwargs else cls._interned.get(args)
        if node is None:
            node = object.__new__(cls)
            cls._fill(node, *args, **kwargs)  # a node that fails its check is never stored
            # Of two threads that build the same node, both return the first.
            node = cls._interned.setdefault(node._astuple(), node)
        return node


# --- Atomic propositions ---------------------------------------------------


class RelDir(_Node):
    """`subject` lies in direction `direction` of `anchor`."""

    __slots__ = ("subject", "direction", "anchor")

    def __post_init__(self) -> None:
        if self.subject is self.anchor:
            raise ValueError("relative direction needs two distinct articulators")


class At(_Node):
    """`articulator` is located in the named place."""

    __slots__ = ("articulator", "place")


class Touch(_Node):
    """Articulators `a` and `b` are in physical contact."""

    __slots__ = ("a", "b")

    def __post_init__(self) -> None:
        if self.a is self.b:
            raise ValueError("touch needs two distinct articulators")


class Config(_Node):
    """`articulator` currently holds the hand configuration `label`, a name
    from an open vocabulary (CLAMP, OPENPALM_CONFIG, ...) compared by exact
    string equality."""

    __slots__ = ("articulator", "label")


class Orient(_Node):
    """`articulator` is oriented toward `direction` (palm normal for hands)."""

    __slots__ = ("articulator", "direction")


Atom = Union[RelDir, At, Touch, Config, Orient]


# --- Atomic actions and the action algebra ---------------------------------


class Move(_Node):
    """`articulator` moves in `direction`."""

    __slots__ = ("articulator", "direction")


class Thrill(_Node):
    """`articulator` moves rapidly and continuously without leaving its
    place of articulation."""

    __slots__ = ("articulator",)


AtomicAction = Union[Move, Thrill]

#: The fields of each atom and atomic action type in argument order, which
#: the parser reads and the printer spells. A `direction` field holds a
#: compass direction, `place` and `label` a free name, and every other field
#: an articulator. Mind RelDir's order: the subject lies in direction
#: `direction` of the anchor.
LEAF_FIELDS: dict[type, tuple[str, ...]] = {
    RelDir: ("subject", "anchor", "direction"),
    At: ("articulator", "place"),
    Touch: ("a", "b"),
    Config: ("articulator", "label"),
    Orient: ("articulator", "direction"),
    Move: ("articulator", "direction"),
    Thrill: ("articulator",),
}


class Atomic(_Node):
    __slots__ = ("action",)


class Concurrent(_Node):
    __slots__ = ("left", "right")


class Choice(_Node):
    __slots__ = ("left", "right")


class Seq(_Node):
    __slots__ = ("left", "right")


class Star(_Node):
    __slots__ = ("body",)


Action = Union[Atomic, Concurrent, Choice, Seq, Star]


# --- Formulas ---------------------------------------------------------------


class Top(_Node):
    __slots__ = ()


TOP = Top()


class AtomF(_Node):
    __slots__ = ("atom",)


class Not(_Node):
    __slots__ = ("body",)


class And(_Node):
    __slots__ = ("left", "right")


class Box(_Node):
    """After every execution of `action`, `body` holds."""

    __slots__ = ("action", "body")


Formula = Union[Top, AtomF, Not, And, Box]


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """Material implication, desugared at construction time."""
    return Not(And(antecedent, Not(consequent)))


def or_(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def diamond(action: Action, body: Formula) -> Formula:
    """Some execution of `action` reaches a state where `body` holds."""
    return Not(Box(action, Not(body)))


# --- Traversals -------------------------------------------------------------


def iter_atoms(formula: Formula) -> Iterator[Atom]:
    """All atoms of a formula, including those under modalities."""
    match formula:
        case Top():
            return
        case AtomF(atom):
            yield atom
        case Not(body):
            yield from iter_atoms(body)
        case And(left, right):
            yield from iter_atoms(left)
            yield from iter_atoms(right)
        case Box(_, body):
            yield from iter_atoms(body)
        case _:
            raise TypeError(f"not a formula node: {formula!r}")


def iter_atomic_actions(action: Action) -> Iterator[AtomicAction]:
    match action:
        case Atomic(a):
            yield a
        case Concurrent(l, r) | Choice(l, r) | Seq(l, r):
            yield from iter_atomic_actions(l)
            yield from iter_atomic_actions(r)
        case Star(body):
            yield from iter_atomic_actions(body)
        case _:
            raise TypeError(f"not an action node: {action!r}")


def articulators(leaf: Atom | AtomicAction) -> tuple[Articulator, ...]:
    """The articulators an atom or atomic action names, in argument order."""
    fields = LEAF_FIELDS.get(type(leaf))
    if fields is None:
        raise TypeError(f"not an atom or atomic action: {leaf!r}")
    return tuple(getattr(leaf, f) for f in fields if f not in ("direction", "place", "label"))


def contains_alias(formula: Formula) -> bool:
    """True when the formula mentions the dominant or weak hand anywhere,
    in atoms or in modality actions: grounding for a right-dominant signer,
    which renames D and W and nothing else, changes it or refuses it."""
    try:
        return ground(formula, Handedness.RIGHT_DOMINANT) != formula
    except AliasCollision:
        return True


# --- Handedness grounding ---------------------------------------------------


def mirror_direction(direction: Direction) -> Direction:
    """The same direction with the x axis inverted. Involutive."""
    return _MIRROR[direction]


def resolve_direction(direction: Direction, handedness: Handedness) -> Direction:
    """Directions are written for a right-dominant signer; mirror them for a
    left-dominant one."""
    if handedness is Handedness.RIGHT_DOMINANT:
        return direction
    return mirror_direction(direction)


_ALIAS_TABLE = {
    (Articulator.DOMINANT, Handedness.RIGHT_DOMINANT): Articulator.RIGHT,
    (Articulator.WEAK, Handedness.RIGHT_DOMINANT): Articulator.LEFT,
    (Articulator.DOMINANT, Handedness.LEFT_DOMINANT): Articulator.LEFT,
    (Articulator.WEAK, Handedness.LEFT_DOMINANT): Articulator.RIGHT,
}


def resolve_articulator(articulator: Articulator, handedness: Handedness) -> Articulator:
    return _ALIAS_TABLE.get((articulator, handedness), articulator)


def ground_atom(leaf: Atom | AtomicAction, handedness: Handedness) -> Atom | AtomicAction:
    """Resolve aliases in one atom or atomic action. A direction is resolved
    only when it was syntactically tied to a dominant/weak articulator."""
    hands = articulators(leaf)
    if not any(hand.is_alias for hand in hands):
        return leaf
    resolved = [resolve_articulator(hand, handedness) for hand in hands]
    if len(resolved) == 2 and resolved[0] is resolved[1]:
        raise AliasCollision(
            f"{hands[0].value} and {hands[1].value} are the same hand for a "
            f"{handedness.value}-dominant signer",
            leaf,
        )
    # Articulators are the only `Articulator` values and directions the only
    # `Direction` values of a leaf's fields.
    return type(leaf)(*[
        resolve_articulator(value, handedness) if type(value) is Articulator
        else resolve_direction(value, handedness) if type(value) is Direction
        else value
        for value in leaf._astuple()
    ])


def ground(node: Formula | Action, handedness: Handedness):
    """Resolve every dominant/weak alias in a formula or action. Preserves
    the tree shape and is idempotent. Each distinct subformula and action
    is grounded once per call."""

    @cache
    def walk(node):
        match node:
            case And() | Not() | Box() | Concurrent() | Choice() | Seq() | Star() | Top():
                # These hold only formulas and actions: rebuild from grounded children.
                return type(node)(*map(walk, node._astuple()))
            case AtomF(leaf) | Atomic(leaf):
                return type(node)(ground_atom(leaf, handedness))
        raise TypeError(f"not a formula or action node: {node!r}")

    return walk(node)
