"""Utterance models and their semantics.

A model is a finite serial transition system over integer states, with an
interpretation of atomic actions as edge sets and a three-valued atomic
valuation. Formulas follow standard relational box semantics with strong
Kleene connectives, so missing tracking data degrades answers to Unknown
instead of guessing.

One labeler evaluates formulas, labeling every state at once in the manner
of CTL labeling (Clarke, Emerson & Sistla 1986). Three-valued truth is the
pair of two-valued passes of Bruns & Godefroid (1999): a bitset of the
states where a formula is True and one of those where it is True or
Unknown. Atoms read per-model bitsets. Its one modal operator, `<α>`,
follows the PDL reductions with `<α*>` as backward reachability (Lange
2006, "Model checking propositional dynamic logic with all extras";
Cleaveland & Steffen 1993, "A linear-time model-checking algorithm for the
alternation-free modal mu-calculus"); boxes are its duals. It keeps only
predecessor rows, and reads any other relation per target state.
`eval_formula`, `eval_two_valued`, `interpret_action` and the verification
loop in `check` all read its labels.

A model file is read by `model_from_json`, which checks it against the
model table of `schema` and builds the model in the same walk; what is not
about shape (a cell or action listed twice with different contents, the
hand aliases, atom syntax, seriality and state ranges) is checked here.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping
from enum import Enum
from functools import cached_property, partial, reduce
from types import MappingProxyType
from typing import Any

from .core import (
    And,
    Articulator,
    At,
    Atom,
    AtomF,
    Atomic,
    AtomicAction,
    Box,
    Choice,
    Concurrent,
    Config,
    Formula,
    Not,
    Orient,
    RelDir,
    Seq,
    Star,
    Top,
    Touch,
    Action,
    articulators,
    contains_alias,
)
from .errors import ParseError, Record, UngroundedFormula, UnknownState
from .parsing import parse_atom, parse_atomic_action, print_atom, print_atomic_action
from .schema import (
    Invalid,
    array,
    boolean,
    check,
    choice,
    const,
    fixed,
    integer,
    number,
    optional,
    string,
    table,
)

Pair = tuple[int, int]


class ThreeVal(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @staticmethod
    def from_bool(b: bool) -> "ThreeVal":
        return ThreeVal.TRUE if b else ThreeVal.FALSE

    def __str__(self) -> str:
        return self.value.capitalize()


class SegmentationParams(Record):
    """The thresholds of extraction (see `extract`). They are defined here
    because a model records them in its `meta`, which this module reads."""

    _defaults = {
        "tau_still": 0.02,  # body units per frame below which a hand rests
        "min_still": 3,  # frames a rest must span to count as a posture
        "tau_touch": 0.05,  # hand distance below which Touch holds
        "touch_unknown_band": 0.05,  # extra distance where Touch is unknown
        "thrill_window": 5,  # frames a reversal burst may spread over
        "thrill_net_disp": 0.03,  # net displacement below which Move is off
        "thrill_min_reversals": 2,  # reversals within the window for a thrill
        "max_jump": 0.5,  # per-frame displacement treated as a tracker error
    }
    __slots__ = tuple(_defaults)

    def __post_init__(self) -> None:
        positives = (
            self.tau_still,
            self.tau_touch,
            self.thrill_net_disp,
            self.max_jump,
        )
        if any(not (math.isfinite(v) and v > 0) for v in positives):
            raise ValueError("thresholds must be positive")
        if self.touch_unknown_band < 0:
            raise ValueError("touch_unknown_band must be nonnegative")
        if self.min_still < 1 or self.thrill_window < 1 or self.thrill_min_reversals < 1:
            raise ValueError("frame counts must be at least 1")


_EMPTY_OBSERVED: frozenset[Articulator] = frozenset()
_NO_CONFIGS: Mapping[Articulator, str | None] = {}


class UtteranceModel(Record):
    """States 0..state_count-1, a serial transition relation, the edges of
    each atomic action, and a per-state atomic valuation.

    `observed` records which hands had a tracked position at each state and
    `config_observed` the hand-shape label seen there, if any; both drive
    the default value of atoms the valuation does not list: geometric atoms
    (direction, place, touch) default to False where the relevant positions
    were observed and Unknown otherwise, configuration atoms default to
    False only against an observed different label, and orientation atoms
    default to Unknown.

    Construction checks that the fields agree with each other: every edge,
    action edge and valued state lies inside the state range, the relation
    is serial, and `observed` and `config_observed` list no more states than
    the model has.
    """

    __slots__ = ("state_count", "relation", "action_interp", "valuation", "observed",
                 "config_observed", "meta", "__dict__")  # `__dict__` holds `atom_index`
    _defaults = {"observed": (), "config_observed": (), "meta": MappingProxyType({})}

    def __post_init__(self) -> None:
        if self.state_count < 1:
            raise ValueError("a model needs at least one state")
        for pair in self.relation:
            self._check_pair(pair)
        sources = {s for s, _ in self.relation}
        for s in range(self.state_count):
            if s not in sources:
                raise ValueError(f"state {s} has no outgoing transition (seriality)")
        for action, pairs in self.action_interp.items():
            for pair in pairs:
                if pair not in self.relation:
                    raise ValueError(
                        f"{print_atomic_action(action)} maps edge {pair} outside the relation"
                    )
        for s, atom in self.valuation:
            if not 0 <= s < self.state_count:
                raise ValueError(
                    f"{print_atom(atom)} is valued at state {s}, "
                    f"outside 0..{self.state_count - 1}"
                )
        for name, per_state in (("observed", self.observed), ("configs", self.config_observed)):
            if len(per_state) > self.state_count:
                raise ValueError(
                    f"{name} lists {len(per_state)} states, the model has {self.state_count}"
                )

    def _check_pair(self, pair: Pair) -> None:
        s, t = pair
        if not (0 <= s < self.state_count and 0 <= t < self.state_count):
            raise ValueError(f"edge {pair} references a state outside 0..{self.state_count - 1}")

    def states(self) -> range:
        return range(self.state_count)

    def observed_at(self, state: int) -> frozenset[Articulator]:
        return self.observed[state] if state < len(self.observed) else _EMPTY_OBSERVED

    def config_at(self, state: int) -> Mapping[Articulator, str | None]:
        return self.config_observed[state] if state < len(self.config_observed) else _NO_CONFIGS

    @cached_property
    def atom_index(self) -> _AtomIndex:
        """The valuation and observation records as bitsets, built the first
        time they are read."""
        return _AtomIndex(self)


def _value(model: UtteranceModel, state: int, bits: Callable[[], tuple[int, int]]) -> ThreeVal:
    """The value at `state`, a state of the model, in the bitsets `bits()`."""
    if not (0 <= state < model.state_count):
        raise UnknownState(f"state {state} outside 0..{model.state_count - 1}")
    lo, hi = bits()
    if lo >> state & 1:
        return ThreeVal.TRUE
    return ThreeVal.UNKNOWN if hi >> state & 1 else ThreeVal.FALSE


def atom_value(model: UtteranceModel, state: int, atom: Atom) -> ThreeVal:
    """Valuation lookup with the documented default for unlisted atoms."""
    return _value(model, state, lambda: model.atom_index.bits(atom))


class _AtomIndex:
    """Bitsets over a model's states, built in one pass over its valuation,
    `observed` and `config_observed`: per atom the states listed True,
    Unknown and False; per hand the states that observed it, that saw a
    hand-shape label, and that saw each label. An atom's `(lo, hi)` pair
    (True states, True-or-Unknown states) applies the documented defaults
    to these bitsets, once per atom."""

    def __init__(self, model: UtteranceModel):
        n = model.state_count
        self.full = (1 << n) - 1
        cells: dict[Atom, tuple[list[int], list[int], list[int]]] = {}
        for (s, atom), value in model.valuation.items():
            states = cells.get(atom)
            if states is None:
                states = cells[atom] = ([], [], [])
            if value is ThreeVal.TRUE:
                states[0].append(s)
            elif value is ThreeVal.UNKNOWN:
                states[1].append(s)
            else:
                states[2].append(s)
        observed: dict[Articulator, list[int]] = {}
        for s, hands in enumerate(model.observed):
            for hand in hands:
                observed.setdefault(hand, []).append(s)
        seen: dict[Articulator, list[int]] = {}
        labels: dict[tuple[Articulator, str], list[int]] = {}
        for s, per_hand in enumerate(model.config_observed):
            for hand, label in per_hand.items():
                if label is not None:
                    seen.setdefault(hand, []).append(s)
                    labels.setdefault((hand, label), []).append(s)
        self.listed = {
            atom: tuple(_bitset(states, n) for states in by_value)
            for atom, by_value in cells.items()
        }
        self.observed = {hand: _bitset(states, n) for hand, states in observed.items()}
        self.config_seen = {hand: _bitset(states, n) for hand, states in seen.items()}
        self.config_label = {key: _bitset(states, n) for key, states in labels.items()}
        self._pairs: dict[Atom, tuple[int, int]] = {}

    def bits(self, atom: Atom) -> tuple[int, int]:
        pair = self._pairs.get(atom)
        if pair is None:
            pair = self._pairs[atom] = self._pair(atom)
        return pair

    def _pair(self, atom: Atom) -> tuple[int, int]:
        observed = self.observed
        match atom:
            case RelDir(subject=b1, anchor=b2) | Touch(a=b1, b=b2):
                default_false = observed.get(b1, 0) & observed.get(b2, 0)
            case At(articulator=b):
                default_false = observed.get(b, 0)
            case Config(articulator=b, label=c):
                default_false = self.config_seen.get(b, 0) & ~self.config_label.get((b, c), 0)
            case Orient():
                default_false = 0
            case _:
                raise TypeError(f"not an atom: {atom!r}")
        true, unknown, false = self.listed.get(atom, (0, 0, 0))
        return true, self.full & ~(false | default_false & ~(true | unknown))


# --- Labeling ----------------------------------------------------------------


class _Labeler:
    """Labels every state of one model at once. A grounded formula's label
    is a pair of bitsets over states: `lo` holds the True states and `hi`
    the True-or-Unknown ones. With `closed_world` set, atoms collapse to
    `lo` (`hi` if False).

    The one modal operator is `<α>`, labeled by `pre`; a box is its dual,
    `[α]X = !<α>!X`. `<α;β>Y = <α><β>Y`, `<α|β>Y = <α>Y \\/ <β>Y` and
    `<α*>Y` is backward reachability from Y (Lange 2006; Cleaveland &
    Steffen 1993). The only stored relations are the predecessor rows of
    atomic and `&` actions; the rows of any other action, such as a star
    under `&`, are read per target state `t` as `<α>{t}`."""

    def __init__(self, model: UtteranceModel, closed_world: bool | None = None):
        self.model = model
        self.full = (1 << model.state_count) - 1
        self.closed_world = closed_world
        self._atoms = model.atom_index
        self._pred: dict[Action, tuple[dict[int, int], int, int]] = {}
        self._labels: dict[Formula, tuple[int, int]] = {}

    def atom(self, atom: Atom) -> tuple[int, int]:
        lo, hi = self._atoms.bits(atom)
        if self.closed_world is None:
            return lo, hi
        return (lo, lo) if self.closed_world else (hi, hi)

    def formula(self, formula: Formula) -> tuple[int, int]:
        """A grounded formula's label; each distinct subformula is labeled once."""
        label = self._labels.get(formula)
        if label is not None:
            return label
        match formula:  # the commonest nodes first
            case And(l, r):
                l_lo, l_hi = self.formula(l)
                r_lo, r_hi = self.formula(r)
                label = l_lo & r_lo, l_hi & r_hi
            case Not(body):
                lo, hi = self.formula(body)
                label = self.full ^ hi, self.full ^ lo
            case Box(action, body):
                lo, hi = self.formula(body)
                full = self.full
                label = full ^ self.pre(action, full ^ lo), full ^ self.pre(action, full ^ hi)
            case AtomF(atom):
                label = self.atom(atom)
            case Top():
                label = self.full, self.full
            case _:
                raise TypeError(f"not a formula node: {formula!r}")
        self._labels[formula] = label
        return label

    def reach(self, action: Action, targets: int) -> int:
        """<α*>Y: the states with an α-path into `targets`. Each state joins
        the frontier at most once."""
        reached = frontier = targets
        while frontier:
            frontier = self.pre(action, frontier) & ~reached
            reached |= frontier
        return reached

    def pre(self, action: Action, targets: int) -> int:
        """<α>Y: the states with an α-successor in `targets`."""
        match action:
            case Seq(l, r):
                return self.pre(l, self.pre(r, targets))
            case Choice(l, r):
                return self.pre(l, targets) | self.pre(r, targets)
            case Star(body):
                return self.reach(body, targets)
        pred = self._pred.get(action)
        if pred is None:
            rows = self.rows(action)
            has_pred = _bitset(list(rows), self.model.state_count)
            pred = self._pred[action] = rows, has_pred, reduce(int.__or__, rows.values(), 0)
        rows, has_pred, has_succ = pred
        if targets & has_pred == has_pred:  # Y holds every state with a predecessor
            return has_succ
        found = 0
        for t in _members(targets & has_pred):
            found |= rows[t]
        return found

    def rows(self, action: Action) -> dict[int, int]:
        """α's predecessor rows: each state with an α-predecessor, mapped to
        the bitset of its predecessors. Built from an atomic action's edges,
        intersected for `&`, and read per target state `t` as `<α>{t}` for
        any other action; `pre` keeps the rows it reads."""
        match action:
            case Atomic(a):
                rows = {}
                for s, t in self.model.action_interp.get(a, ()):
                    rows[t] = rows.get(t, 0) | 1 << s
                return rows
            case Concurrent(l, r):
                right = self.rows(r)
                return {
                    t: both for t, bits in self.rows(l).items() if (both := bits & right.get(t, 0))
                }
            case Seq() | Choice() | Star():
                pre = self.pre
                return {t: bits for t in self.model.states() if (bits := pre(action, 1 << t))}
        raise TypeError(f"not an action node: {action!r}")


_WORD = (1 << 64) - 1


def _bitset(states: list[int], state_count: int) -> int:
    """The bitset of the listed states, in one pass: OR-ing them in one by
    one would copy a growing integer per state."""
    digits = bytearray(b"0" * state_count)
    for s in states:
        digits[state_count - 1 - s] = 49  # ord("1")
    return int(digits, 2)


def _members(bits: int) -> Iterator[int]:
    """The states of a bitset, in increasing order. It skips to the lowest
    non-empty 64-bit word and walks that word, so a dense bitset costs
    operations on the whole integer once per word, not once per state."""
    base = 0
    while bits:
        skip = ((bits & -bits).bit_length() - 1) & ~63
        bits >>= skip
        base += skip
        word = bits & _WORD
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low
        bits >>= 64
        base += 64


def interpret_action(model: UtteranceModel, action: Action) -> frozenset[Pair]:
    """The set of state pairs the action relates. Star is the reflexive
    transitive closure, with identity pairs over every state."""
    rows = _Labeler(model).rows(action)
    return frozenset((s, t) for t, bits in rows.items() for s in _members(bits))


def _value_at(labeler: _Labeler, state: int, formula: Formula) -> ThreeVal:
    if contains_alias(formula):
        raise UngroundedFormula("formula mentions D or W; ground it first")
    return _value(labeler.model, state, lambda: labeler.formula(formula))


def eval_formula(model: UtteranceModel, state: int, formula: Formula) -> ThreeVal:
    """Three-valued truth of a grounded formula at a state."""
    return _value_at(_Labeler(model), state, formula)


def eval_two_valued(
    model: UtteranceModel, state: int, formula: Formula, closed_world: bool = True
) -> bool:
    """Classical evaluation: Unknown atoms collapse to False under the
    closed-world flag (to True with it unset), then the formula is labeled."""
    return _value_at(_Labeler(model, closed_world), state, formula) is ThreeVal.TRUE


# --- Serialization -----------------------------------------------------------

_HANDS = (Articulator.RIGHT, Articulator.LEFT)


def model_to_json(model: UtteranceModel) -> dict[str, Any]:
    """Stable, versioned structure for dump files and golden tests."""
    actions = [
        {"action": print_atomic_action(a), "edges": [list(p) for p in sorted(pairs)]}
        for a, pairs in model.action_interp.items()
    ]
    actions.sort(key=lambda entry: entry["action"])
    texts: dict[Atom, str] = {}  # each distinct atom is printed once
    cells = sorted(
        (s, texts.get(atom) or texts.setdefault(atom, print_atom(atom)), v.value)
        for (s, atom), v in model.valuation.items()
    )
    valuation = [{"state": s, "atom": text, "value": value} for s, text, value in cells]
    observed = [
        sorted(a.value for a in model.observed_at(s)) for s in model.states()
    ]
    configs = [
        {h.value: model.config_at(s).get(h) for h in _HANDS} for s in model.states()
    ]
    return {
        "format": 1,
        "states": model.state_count,
        "relation": [list(p) for p in sorted(model.relation)],
        "actions": actions,
        "valuation": valuation,
        "observed": observed,
        "configs": configs,
        "meta": dict(model.meta),
    }


def _hands_only(parse: Callable[[str], Any], text: str) -> Atom | AtomicAction:
    """`parse(text)`, refused if it names the hand alias D or W."""
    try:
        leaf = parse(text)
    except ParseError as exc:
        raise Invalid(str(exc)) from None
    if any(b.is_alias for b in articulators(leaf)):
        raise Invalid(f"{text} names the hand D or W; a model names the hands R and L")
    return leaf


def _actions(entries: list[tuple[AtomicAction, frozenset[Pair]]]) -> dict:
    interp: dict[AtomicAction, frozenset[Pair]] = {}
    for i, (action, edges) in enumerate(entries):
        if interp.setdefault(action, edges) != edges:
            raise Invalid(f"{print_atomic_action(action)} is listed again with other edges", i)
    return interp


def _valuation(cells: list[tuple[int, str, ThreeVal]]) -> dict:
    valuation: dict[tuple[int, Atom], ThreeVal] = {}
    atoms: dict[str, Atom] = {}  # each distinct atom text is parsed once
    for i, (state, text, value) in enumerate(cells):
        atom = atoms.get(text)
        if atom is None:
            try:
                atom = atoms[text] = _hands_only(parse_atom, text)
            except Invalid as exc:
                exc.where += ["atom", i]
                raise
        if valuation.setdefault((state, atom), value) is not value:
            raise Invalid(f"{text} at state {state} is listed again with another value", i)
    return valuation


def _model(_format, states, relation, actions, valuation, observed, configs, meta) -> UtteranceModel:
    return UtteranceModel(states, relation, actions, valuation, observed, configs, dict(meta))


_PAIRS = array(fixed("[src, dst]", 2, integer()), build=frozenset)
_HAND = choice({h.value: h for h in _HANDS})
#: The segmentation thresholds a model's `meta` records, and a run
#: configuration sets; every key is optional and defaults as in
#: `SegmentationParams`.
SEGMENTATION_FIELDS = {
    name: optional(integer() if type(default) is int else number(), default)
    for name, default in SegmentationParams._defaults.items()
}
_MODEL = table("model", {
    "format": const(1),
    "states": integer(1),
    "relation": _PAIRS,
    "actions": optional(array(table("action", {
        "action": string(partial(_hands_only, parse_atomic_action)), "edges": _PAIRS,
    }, tuple), build=_actions), {}),
    "valuation": optional(array(table("valuation", {
        "state": integer(), "atom": string(), "value": choice({v.value: v for v in ThreeVal}),
    }, tuple), build=_valuation), {}),
    "observed": optional(array(array(_HAND, build=frozenset), build=tuple), ()),
    "configs": optional(array(table("configs", {
        "R": optional(string(), null=True), "L": optional(string(), null=True),
    }, lambda r, l: {Articulator.RIGHT: r, Articulator.LEFT: l}), build=tuple), ()),
    "meta": optional(table("meta", {
        "fps": optional(number(positive=True)),
        "mirrored": optional(boolean()),
        "segmentation": optional(table("segmentation", SEGMENTATION_FIELDS)),
    }), {}),
}, _model)


def model_from_json(obj: Any) -> UtteranceModel:
    """A model from its JSON structure, checked against the model table.
    Beyond shape, a file that lists one `(state, atom)` cell twice with
    different values, or one action twice with different edges, is refused,
    and so are the hand aliases `D` and `W`, which a model never uses."""
    return check(_MODEL, obj)
