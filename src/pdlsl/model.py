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
Unknown. `eval_formula`, `eval_two_valued`, `interpret_action` and the
verification loop in `check` all read its labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Mapping

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
    contains_alias,
)
from .errors import SchemaError, UngroundedFormula, UnknownState
from .parsing import parse_atom, parse_atomic_action, print_atom, print_atomic_action

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


_EMPTY_OBSERVED: frozenset[Articulator] = frozenset()
_NO_CONFIGS: Mapping[Articulator, str | None] = {}


@dataclass(frozen=True)
class UtteranceModel:
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

    state_count: int
    relation: frozenset[Pair]
    action_interp: Mapping[AtomicAction, frozenset[Pair]]
    valuation: Mapping[tuple[int, Atom], ThreeVal]
    observed: tuple[frozenset[Articulator], ...] = ()
    config_observed: tuple[Mapping[Articulator, str | None], ...] = ()
    meta: Mapping[str, Any] = field(default_factory=dict)

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


def atom_value(model: UtteranceModel, state: int, atom: Atom) -> ThreeVal:
    """Valuation lookup with the documented default for unlisted atoms."""
    if not (0 <= state < model.state_count):
        raise UnknownState(f"state {state} outside 0..{model.state_count - 1}")
    listed = model.valuation.get((state, atom))
    if listed is not None:
        return listed
    observed = model.observed_at(state)
    match atom:
        case RelDir(subject=b1, anchor=b2) | Touch(a=b1, b=b2):
            if b1 in observed and b2 in observed:
                return ThreeVal.FALSE
            return ThreeVal.UNKNOWN
        case At(articulator=b):
            return ThreeVal.FALSE if b in observed else ThreeVal.UNKNOWN
        case Config(articulator=b, label=c):
            seen = model.config_at(state).get(b)
            if seen is not None and seen != c:
                return ThreeVal.FALSE
            return ThreeVal.UNKNOWN
        case Orient():
            return ThreeVal.UNKNOWN
    raise TypeError(f"not an atom: {atom!r}")


# --- Labeling ----------------------------------------------------------------


class _Labeler:
    """Labels every state of one model at once. A grounded formula's label
    is a pair of bitsets over states: `lo` holds the True states and `hi`
    the True-or-Unknown ones; an action's label lists each state's successor
    bitset. With `closed_world` set, atoms collapse to `lo` (`hi` if False)."""

    def __init__(self, model: UtteranceModel, closed_world: bool | None = None):
        self.model = model
        self.full = (1 << model.state_count) - 1
        self.closed_world = closed_world
        self._atoms: dict[Atom, tuple[int, int]] = {}
        self._actions: dict[Action, list[int]] = {}

    def atom(self, atom: Atom) -> tuple[int, int]:
        if atom not in self._atoms:
            values = [atom_value(self.model, s, atom) for s in self.model.states()]
            lo = sum(1 << s for s, v in enumerate(values) if v is ThreeVal.TRUE)
            hi = sum(1 << s for s, v in enumerate(values) if v is not ThreeVal.FALSE)
            if self.closed_world is not None:
                lo = hi = lo if self.closed_world else hi
            self._atoms[atom] = (lo, hi)
        return self._atoms[atom]

    def formula(self, formula: Formula) -> tuple[int, int]:
        match formula:
            case Top():
                return self.full, self.full
            case AtomF(atom):
                return self.atom(atom)
            case Not(body):
                lo, hi = self.formula(body)
                return self.full ^ hi, self.full ^ lo
            case And(l, r):
                l_lo, l_hi = self.formula(l)
                r_lo, r_hi = self.formula(r)
                return l_lo & r_lo, l_hi & r_hi
            case Box(action, body):
                succ = self.successors(action)
                lo, hi = self.formula(body)
                return _inside(succ, lo), _inside(succ, hi)
        raise TypeError(f"not a formula node: {formula!r}")

    def successors(self, action: Action) -> list[int]:
        if action in self._actions:
            return self._actions[action]
        match action:
            case Atomic(a):
                succ = [0] * self.model.state_count
                for s, t in self.model.action_interp.get(a, ()):
                    succ[s] |= 1 << t
            case Concurrent(l, r):
                succ = [x & y for x, y in zip(self.successors(l), self.successors(r))]
            case Choice(l, r):
                succ = [x | y for x, y in zip(self.successors(l), self.successors(r))]
            case Seq(l, r):
                succ = _compose(self.successors(l), self.successors(r))
            case Star(body):
                # Square the reflexive closure until it stops growing.
                succ = [bits | 1 << s for s, bits in enumerate(self.successors(body))]
                while (grown := _compose(succ, succ)) != succ:
                    succ = grown
            case _:
                raise TypeError(f"not an action node: {action!r}")
        self._actions[action] = succ
        return succ


def _inside(succ: list[int], target: int) -> int:
    """The states whose successors all lie in `target`."""
    outside = ~target
    return sum(1 << s for s, bits in enumerate(succ) if not bits & outside)


def _members(bits: int) -> Iterator[int]:
    """The states of a bitset, in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _compose(first: list[int], then: list[int]) -> list[int]:
    out = []
    for bits in first:
        reached = 0
        for t in _members(bits):
            reached |= then[t]
        out.append(reached)
    return out


def interpret_action(model: UtteranceModel, action: Action) -> frozenset[Pair]:
    """The set of state pairs the action relates. Star is the reflexive
    transitive closure, with identity pairs over every state."""
    succ = _Labeler(model).successors(action)
    return frozenset((s, t) for s, bits in enumerate(succ) for t in _members(bits))


def _value_at(labeler: _Labeler, state: int, formula: Formula) -> ThreeVal:
    if contains_alias(formula):
        raise UngroundedFormula("formula mentions D or W; ground it first")
    if not (0 <= state < labeler.model.state_count):
        raise UnknownState(f"state {state} outside 0..{labeler.model.state_count - 1}")
    lo, hi = labeler.formula(formula)
    if lo >> state & 1:
        return ThreeVal.TRUE
    return ThreeVal.UNKNOWN if hi >> state & 1 else ThreeVal.FALSE


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
    valuation = [
        {"state": s, "atom": print_atom(atom), "value": v.value}
        for (s, atom), v in model.valuation.items()
    ]
    valuation.sort(key=lambda entry: (entry["state"], entry["atom"]))
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


def _pairs_from_json(obj: Any, path: str) -> frozenset[Pair]:
    if not isinstance(obj, list):
        raise SchemaError(path, "expected a list of [src, dst] pairs")
    pairs = set()
    for i, item in enumerate(obj):
        if not (
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise SchemaError(f"{path}/{i}", "expected [src, dst] of integers")
        pairs.add((item[0], item[1]))
    return frozenset(pairs)


def model_from_json(obj: Any) -> UtteranceModel:
    if not isinstance(obj, Mapping):
        raise SchemaError("", "model file must be a JSON object")
    if obj.get("format") != 1:
        raise SchemaError("/format", "unsupported or missing model format (expected 1)")
    states = obj.get("states")
    if not isinstance(states, int) or isinstance(states, bool) or states < 1:
        raise SchemaError("/states", "expected a positive integer")
    relation = _pairs_from_json(obj.get("relation"), "/relation")
    interp: dict[AtomicAction, frozenset[Pair]] = {}
    actions_obj = obj.get("actions", [])
    if not isinstance(actions_obj, list):
        raise SchemaError("/actions", "expected a list")
    for i, entry in enumerate(actions_obj):
        path = f"/actions/{i}"
        if not (isinstance(entry, Mapping) and isinstance(entry.get("action"), str)):
            raise SchemaError(path, "expected {action, edges}")
        try:
            action = parse_atomic_action(entry["action"])
        except Exception as exc:
            raise SchemaError(f"{path}/action", str(exc)) from None
        interp[action] = _pairs_from_json(entry.get("edges"), f"{path}/edges")
    valuation: dict[tuple[int, Atom], ThreeVal] = {}
    atoms: dict[str, Atom] = {}  # each distinct atom text is parsed once
    valuation_obj = obj.get("valuation", [])
    if not isinstance(valuation_obj, list):
        raise SchemaError("/valuation", "expected a list")
    for i, entry in enumerate(valuation_obj):
        path = f"/valuation/{i}"
        if not (
            isinstance(entry, Mapping)
            and isinstance(entry.get("state"), int)
            and isinstance(entry.get("atom"), str)
            and entry.get("value") in ("true", "false", "unknown")
        ):
            raise SchemaError(path, "expected {state, atom, value}")
        text = entry["atom"]
        atom = atoms.get(text)
        if atom is None:
            try:
                atom = atoms[text] = parse_atom(text)
            except Exception as exc:
                raise SchemaError(f"{path}/atom", str(exc)) from None
        valuation[(entry["state"], atom)] = ThreeVal(entry["value"])
    observed_obj = obj.get("observed", [])
    if not isinstance(observed_obj, list):
        raise SchemaError("/observed", "expected a list")
    observed = []
    for i, entry in enumerate(observed_obj):
        if not (isinstance(entry, list) and all(isinstance(v, str) for v in entry)):
            raise SchemaError(f"/observed/{i}", "expected a list of articulator names")
        try:
            observed.append(frozenset(Articulator(v) for v in entry))
        except ValueError:
            raise SchemaError(f"/observed/{i}", "unknown articulator") from None
    configs_obj = obj.get("configs", [])
    if not isinstance(configs_obj, list):
        raise SchemaError("/configs", "expected a list")
    configs = []
    for i, entry in enumerate(configs_obj):
        if not isinstance(entry, Mapping):
            raise SchemaError(f"/configs/{i}", "expected an object")
        per_hand: dict[Articulator, str | None] = {}
        for key, value in entry.items():
            if value is not None and not isinstance(value, str):
                raise SchemaError(f"/configs/{i}/{key}", "expected a string or null")
            try:
                per_hand[Articulator(key)] = value
            except ValueError:
                raise SchemaError(f"/configs/{i}/{key}", "unknown articulator") from None
        configs.append(per_hand)
    meta = obj.get("meta", {})
    if not isinstance(meta, Mapping):
        raise SchemaError("/meta", "expected an object")
    if not isinstance(meta.get("segmentation", {}), Mapping):
        raise SchemaError("/meta/segmentation", "expected an object")
    try:
        return UtteranceModel(
            state_count=states,
            relation=relation,
            action_interp=interp,
            valuation=valuation,
            observed=tuple(observed),
            config_observed=tuple(configs),
            meta=dict(meta),
        )
    except ValueError as exc:
        raise SchemaError("", str(exc)) from None
