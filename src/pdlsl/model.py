"""Utterance models and their semantics.

A model is a finite serial transition system over integer states, with an
interpretation of atomic actions as edge sets and a three-valued atomic
valuation. Formulas follow standard relational box semantics with strong
Kleene connectives, so missing tracking data degrades answers to Unknown
instead of guessing. The valuation is held in one form from the model file
or extraction to the labeler: per atom, the bitsets of the states listed
True, Unknown and False (`Valuation`), which also reads as a mapping from
`(state, atom)` to the value.

One labeler evaluates formulas, labeling every state at once in the manner
of CTL labeling (Clarke, Emerson & Sistla 1986). Three-valued truth is the
pair of two-valued passes of Bruns & Godefroid (1999): a bitset of the
states where a formula is True and one of those where it is True or
Unknown. An atom's pair applies the documented defaults to its valuation
bitsets and to the observation bitsets a model builds when it is made.
Its one modal operator, `<α>`, follows the PDL reductions with `<α*>` as
backward reachability (Lange 2006, "Model checking propositional dynamic
logic with all extras"; Cleaveland & Steffen 1993, "A linear-time
model-checking algorithm for the alternation-free modal mu-calculus");
boxes are its duals. It keeps only predecessor rows, and reads any other
relation per target state. `eval_formula`, `eval_two_valued`,
`atom_value`, `interpret_action`, `pdlsl eval` and the verification loop
in `check` all read its labels, and it alone refuses D and W.

A model file is read by `model_from_json`, which checks it against the
model table of `schema` and builds the model in the same walk; what is not
about shape (a cell or action listed twice with different contents, the
hand aliases, atom syntax, seriality and state ranges) is checked here.
Its valuation rows are read straight into the bitsets, with no record per
row or cell.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from enum import Enum
from functools import partial, reduce
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
    Handedness,
    Not,
    Orient,
    RelDir,
    Seq,
    Star,
    Top,
    Touch,
    Action,
    articulators,
    ground_atom,
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
    given,
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

    # The members are singletons, so they hash by identity, which a dict
    # looks up at C speed; `Enum` hashes the name in Python.
    __hash__ = object.__hash__

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

_VALUES = (ThreeVal.TRUE, ThreeVal.UNKNOWN, ThreeVal.FALSE)
#: A cell's code in the per-state bytes a valuation is read into: 0 for an
#: unlisted cell, then 1, 2 and 3 for the values of `_VALUES`.
_CODE = {value: code for code, value in enumerate(_VALUES, 1)}
_TEXT_CODE = {value.value: code for value, code in _CODE.items()}
_SPLIT = tuple(bytes.maketrans(b"\0\1\2\3", digits) for digits in (b"0100", b"0010", b"0001"))


class Valuation(Mapping):
    """A three-valued valuation of the states 0..state_count-1 as bitsets:
    `listed` maps each atom to the states listed True, Unknown and False. It
    reads as a mapping from `(state, atom)` to the listed `ThreeVal`.

    `outside` holds the `(state, atom)` cells that were listed at a state
    outside the range, first listed first; a model refuses a valuation
    with any."""

    __slots__ = ("state_count", "listed", "outside")

    def __init__(self, state_count: int, listed: dict[Atom, tuple[int, int, int]],
                 outside: tuple[tuple[int, Atom], ...] = ()):
        self.state_count = state_count
        self.listed = listed
        self.outside = outside

    @classmethod
    def of(cls, state_count: int,
           cells: Iterable[tuple[tuple[int, Atom], ThreeVal]]) -> Valuation:
        """The valuation that lists each `((state, atom), value)` cell; a
        later cell for the same state and atom wins."""
        codes: dict[Atom, bytearray] = {}
        outside: list[tuple[int, Atom]] = []
        for (state, atom), value in cells:
            if not 0 <= state < state_count:
                outside.append((state, atom))
                continue
            per_state = codes.get(atom)
            if per_state is None:
                per_state = codes[atom] = bytearray(state_count)
            per_state[state] = _CODE[value]
        return cls._read(state_count, codes, outside)

    @classmethod
    def _read(cls, state_count: int, codes: dict[Atom, bytearray],
              outside: Iterable[tuple[int, Atom]]) -> Valuation:
        """The valuation whose cells are coded one byte per state and atom
        (see `_CODE`; the states past the bytes list nothing), with the
        `outside` cells in their order."""
        listed = {}
        for atom, per_state in codes.items():
            digits = per_state[::-1]  # state 0 is the lowest bit
            listed[atom] = tuple(int(digits.translate(split), 2) for split in _SPLIT)
        return cls(state_count, listed, tuple(outside))

    def patched(self, cells: Iterable[tuple[int, Atom, ThreeVal]]) -> Valuation:
        """A copy with `(state, atom, value)` cells, at states of the
        valuation, listed in place of what this one lists there; a later
        cell for the same state and atom wins. Only the bitsets of their
        atoms are rebuilt."""
        listed = dict(self.listed)
        for state, atom, value in cells:
            bit = 1 << state
            bits = [states & ~bit for states in listed.get(atom, (0, 0, 0))]
            bits[_CODE[value] - 1] |= bit
            listed[atom] = tuple(bits)
        return Valuation(self.state_count, listed)

    def __getitem__(self, key: tuple[int, Atom]) -> ThreeVal:
        state, atom = key
        bits = self.listed.get(atom)
        if bits is not None and state >= 0:
            for value, states in zip(_VALUES, bits):
                if states >> state & 1:
                    return value
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, Atom]]:
        for atom, (true, unknown, false) in self.listed.items():
            for state in _members(true | unknown | false):
                yield state, atom

    def __len__(self) -> int:
        return sum((true | unknown | false).bit_count()
                   for true, unknown, false in self.listed.values())

    def __repr__(self) -> str:
        return f"Valuation({dict(self)!r})"


class UtteranceModel(Record):
    """States 0..state_count-1, a serial transition relation, the edges of
    each atomic action, and a three-valued atomic valuation, held as a
    `Valuation`: per atom, the bitsets of the states listed True, Unknown
    and False. A model may be given its valuation as any mapping from
    `(state, atom)` to `ThreeVal`; construction reads its items into a
    `Valuation` through `Valuation.of`.

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
    the model has. It then keeps the two as bitsets too, in slots that are
    not fields, for `_Labeler.atom`.
    """

    __slots__ = ("state_count", "relation", "action_interp", "valuation", "observed",
                 "config_observed", "meta", "_observed", "_config_seen", "_config_label")
    _defaults = {"observed": (), "config_observed": (), "meta": MappingProxyType({})}

    def __post_init__(self) -> None:
        if self.state_count < 1:
            raise ValueError("a model needs at least one state")
        valuation = self.valuation
        if type(valuation) is not Valuation or valuation.state_count != self.state_count:
            valuation = Valuation.of(self.state_count, valuation.items())
            object.__setattr__(self, "valuation", valuation)
        for s, t in self.relation:
            if not (0 <= s < self.state_count and 0 <= t < self.state_count):
                raise ValueError(
                    f"edge {(s, t)} references a state outside 0..{self.state_count - 1}"
                )
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
        if valuation.outside:
            s, atom = valuation.outside[0]
            raise ValueError(
                f"{print_atom(atom)} is valued at state {s}, outside 0..{self.state_count - 1}"
            )
        for name, per_state in (("observed", self.observed), ("configs", self.config_observed)):
            if len(per_state) > self.state_count:
                raise ValueError(
                    f"{name} lists {len(per_state)} states, the model has {self.state_count}"
                )
        # The states that observed each hand, that saw a label on it, and that saw each label.
        observed, seen, labels = {}, {}, {}
        for s, hands in enumerate(self.observed):
            for hand in hands:
                observed.setdefault(hand, []).append(s)
        for s, per_hand in enumerate(self.config_observed):
            for hand, label in per_hand.items():
                if label is not None:
                    seen.setdefault(hand, []).append(s)
                    labels.setdefault((hand, label), []).append(s)
        for name, per_key in (("_observed", observed), ("_config_seen", seen), ("_config_label", labels)):
            object.__setattr__(self, name, {k: _bitset(v, self.state_count) for k, v in per_key.items()})

    def _with_valuation(self, valuation: Valuation) -> UtteranceModel:
        """A copy with `valuation`, a `Valuation` of the same states that
        lists none outside them, in place of this one's. The other fields
        and the observation bitsets were checked when this model was made,
        and the copy shares them without checking them again."""
        copy = object.__new__(UtteranceModel)
        for name in self.__slots__:
            object.__setattr__(copy, name, getattr(self, name))
        object.__setattr__(copy, "valuation", valuation)
        return copy

    def states(self) -> range:
        return range(self.state_count)

    def observed_at(self, state: int) -> frozenset[Articulator]:
        return self.observed[state] if state < len(self.observed) else _EMPTY_OBSERVED

    def config_at(self, state: int) -> Mapping[Articulator, str | None]:
        return self.config_observed[state] if state < len(self.config_observed) else _NO_CONFIGS


# --- Labeling ----------------------------------------------------------------


class _Labeler:
    """Labels every state of one model at once; it is the only code that
    turns a model and a formula into labels. A formula's label is a pair of
    bitsets over states: `lo` holds the True states and `hi` the
    True-or-Unknown ones. With `closed_world` set, atoms collapse to `lo`
    (`hi` if False). Formulas are labeled as parsed, and only their atoms
    and atomic actions are grounded, under `handedness`; without one, a
    leaf naming D or W is refused, wherever it is in the formula.

    The one modal operator is `<α>`, labeled by `pre`; a box is its dual,
    `[α]X = !<α>!X`. `<α;β>Y = <α><β>Y`, `<α|β>Y = <α>Y \\/ <β>Y` and
    `<α*>Y` is backward reachability from Y (Lange 2006; Cleaveland &
    Steffen 1993). The only stored relations are the predecessor rows of
    atomic and `&` actions, kept by `_stored`; the rows of any other action,
    such as a star under `&`, are read per target state `t` as `<α>{t}`."""

    def __init__(self, model: UtteranceModel, closed_world: bool | None = None,
                 handedness: Handedness | None = None):
        self.model = model
        self.full = (1 << model.state_count) - 1
        self.closed_world = closed_world
        self.handedness = handedness
        self._pred: dict[Action, tuple[dict[int, int], int, int]] = {}
        self._labels: dict[Formula, tuple[int, int]] = {}
        self._anchors: dict[Formula, tuple[int, int]] = {}

    def leaf(self, leaf: Atom | AtomicAction) -> Atom | AtomicAction:
        if self.handedness is None and any(hand.is_alias for hand in articulators(leaf)):
            raise UngroundedFormula("the input mentions D or W; ground it first")
        return leaf if self.handedness is None else ground_atom(leaf, self.handedness)

    def atom(self, atom: Atom) -> tuple[int, int]:
        """A grounded atom's `(lo, hi)` pair: the model's valuation bitsets
        with the documented defaults, read off its observation bitsets, at
        the states that list nothing."""
        model = self.model
        match atom:
            case RelDir() | Touch() | At():
                default_false = self.full  # False where each of its hands was observed
                for hand in articulators(atom):
                    default_false &= model._observed.get(hand, 0)
            case Config(articulator=b, label=c):
                default_false = model._config_seen.get(b, 0) & ~model._config_label.get((b, c), 0)
            case Orient():
                default_false = 0
            case _:
                raise TypeError(f"not an atom: {atom!r}")
        true, unknown, false = model.valuation.listed.get(atom, (0, 0, 0))
        return true, self.full & ~(false | default_false & ~(true | unknown))

    def formula(self, formula: Formula) -> tuple[int, int]:
        """A formula's label; each distinct subformula is labeled once, left to right."""
        label = self._labels.get(formula)
        if label is not None:
            return label
        kind = type(formula)  # the commonest nodes first
        if kind is And:
            (l_lo, l_hi), (r_lo, r_hi) = self.formula(formula.left), self.formula(formula.right)
            label = l_lo & r_lo, l_hi & r_hi
        elif kind is Not:
            lo, hi = self.formula(formula.body)
            label = self.full ^ hi, self.full ^ lo
        elif kind is Box:
            lo, hi = self.formula(formula.body)
            full, action = self.full, formula.action
            label = full ^ self.pre(action, full ^ lo), full ^ self.pre(action, full ^ hi)
        elif kind is AtomF:
            lo, hi = self.atom(self.leaf(formula.atom))
            closed = self.closed_world
            label = (lo, hi) if closed is None else (lo, lo) if closed else (hi, hi)
        elif kind is Top:
            label = self.full, self.full
        else:
            raise TypeError(f"not a formula node: {formula!r}")
        self._labels[formula] = label
        return label

    def anchor(self, formula: Formula) -> tuple[int, int]:
        """The AND of the labels of the formula's anchor atoms (see
        `check.anchor_atoms`), read off its own and its children's labels."""
        label = self._anchors.get(formula)
        if label is None:
            kind = type(formula)
            if kind is AtomF:
                label = self.formula(formula)
            elif kind is And:
                (l_lo, l_hi), (r_lo, r_hi) = self.anchor(formula.left), self.anchor(formula.right)
                label = l_lo & r_lo, l_hi & r_hi
            elif kind is Not and type(formula.body) is And and type(formula.body.right) is Not:
                label = self.anchor(formula.body.left)  # the antecedent of an implication
            else:
                label = self.full, self.full
            self._anchors[formula] = label
        return label

    def reach(self, action: Action, targets: int) -> int:
        """<α*>Y: the states with an α-path into `targets`. Each state joins
        the frontier at most once, and α is read at least once, so a D or W
        in it is refused even when `targets` is empty."""
        reached = targets
        frontier = self.pre(action, targets) & ~reached
        while frontier:
            reached |= frontier
            frontier = self.pre(action, frontier) & ~reached
        return reached

    def pre(self, action: Action, targets: int) -> int:
        """<α>Y: the states with an α-successor in `targets`."""
        kind = type(action)
        if kind is Seq:
            return self.pre(action.left, self.pre(action.right, targets))
        if kind is Choice:
            return self.pre(action.left, targets) | self.pre(action.right, targets)
        if kind is Star:
            body = action.body
            if type(body) is Star:  # (α*)* = α*
                return self.pre(body, targets)
            return self.reach(body, targets)
        rows, has_pred, has_succ = self._stored(action)
        if targets & has_pred == has_pred:  # Y holds every state with a predecessor
            return has_succ
        found = 0
        for t in _members(targets & has_pred):
            found |= rows[t]
        return found

    def rows(self, action: Action) -> dict[int, int]:
        """α's predecessor rows: each state with an α-predecessor, mapped to
        the bitset of its predecessors. Those of an atomic or `&` action are
        stored; any other action's are read per target state `t` as `<α>{t}`."""
        if isinstance(action, (Seq, Choice, Star)):
            pre = self.pre
            return {t: bits for t in self.model.states() if (bits := pre(action, 1 << t))}
        return self._stored(action)[0]

    def _stored(self, action: Action) -> tuple[dict[int, int], int, int]:
        """An atomic or `&` action's rows, built once from the action's edges
        or as the intersection of its operands' rows, with the bitsets of the
        states that have a predecessor and of those that have a successor."""
        stored = self._pred.get(action)
        if stored is None:
            match action:
                case Atomic(a):
                    rows = {}
                    for s, t in self.model.action_interp.get(self.leaf(a), ()):
                        rows[t] = rows.get(t, 0) | 1 << s
                case Concurrent(l, r):
                    right = self.rows(r)
                    rows = {t: both for t, bits in self.rows(l).items()
                            if (both := bits & right.get(t, 0))}
                case _:
                    raise TypeError(f"not an action node: {action!r}")
            has_pred = _bitset(list(rows), self.model.state_count)
            stored = self._pred[action] = rows, has_pred, reduce(int.__or__, rows.values(), 0)
        return stored


_WORD = (1 << 64) - 1


def _bitset(states: list[int], state_count: int) -> int:
    """The bitset of the listed states, states of 0..state_count-1, in one
    pass: OR-ing them in one by one would copy a growing integer per
    state."""
    digits = bytearray(b"0" * state_count)
    for s in states:
        if not 0 <= s < state_count:
            raise ValueError(f"state {s} outside 0..{state_count - 1}")
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
    transitive closure, with identity pairs over every state; D and W are refused."""
    rows = _Labeler(model).rows(action)
    return frozenset((s, t) for t, bits in rows.items() for s in _members(bits))


def _value(labeler: _Labeler, state: int, formula: Formula) -> ThreeVal:
    """The formula's value at `state`, which is checked first to be a state
    of the labeler's model."""
    model = labeler.model
    if not (0 <= state < model.state_count):
        raise UnknownState(f"state {state} outside 0..{model.state_count - 1}")
    lo, hi = labeler.formula(formula)
    if lo >> state & 1:
        return ThreeVal.TRUE
    return ThreeVal.UNKNOWN if hi >> state & 1 else ThreeVal.FALSE


def atom_value(model: UtteranceModel, state: int, atom: Atom) -> ThreeVal:
    """Valuation lookup with the documented default for unlisted atoms; D and W are refused."""
    return _value(_Labeler(model), state, AtomF(atom))


def eval_formula(model: UtteranceModel, state: int, formula: Formula) -> ThreeVal:
    """Three-valued truth of a grounded formula at a state. The state is
    checked first; then a formula that names D or W anywhere is refused."""
    return _value(_Labeler(model), state, formula)


def eval_two_valued(
    model: UtteranceModel, state: int, formula: Formula, closed_world: bool = True
) -> bool:
    """Classical evaluation: Unknown atoms collapse to False under the
    closed-world flag (to True with it unset), then the formula is labeled."""
    return _value(_Labeler(model, closed_world), state, formula) is ThreeVal.TRUE


# --- Serialization -----------------------------------------------------------

_HANDS = (Articulator.RIGHT, Articulator.LEFT)


def model_to_json(model: UtteranceModel) -> dict[str, Any]:
    """Stable, versioned structure for dump files and golden tests."""
    actions = [
        {"action": print_atomic_action(a), "edges": [list(p) for p in sorted(pairs)]}
        for a, pairs in model.action_interp.items()
    ]
    actions.sort(key=lambda entry: entry["action"])
    cells = sorted(  # (state, atom text, value text) of each listed cell
        (s, text, value)
        for atom, bits in model.valuation.listed.items()
        for text in (print_atom(atom),)
        for value, states in zip(_TEXT_CODE, bits)  # the value texts, in the bitsets' order
        for s in _members(states)
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


_ROWS = array(table("valuation", {
    "state": integer(), "atom": string(), "value": choice({v.value: v for v in ThreeVal}),
}))


def _valuation(rows: Any, state_count: int, relation: frozenset[Pair]) -> Valuation:
    """The valuation rows read straight into per-state bytes per atom. Every
    row's shape is checked first; then, in file order, each atom text (once
    per distinct text) and each cell listed again. A cell outside the states
    is kept aside for the model's cross-field check.

    A serial relation has a pair from each state, so a model with more
    states than pairs is refused by its seriality check. Bytes for the
    states below the pair count (at least one, as `int` reads no empty
    digits) are therefore enough, and they follow the size of the file, not
    the state count it declares; a cell at a state without a byte is kept
    aside too."""
    rows = _ROWS(rows)
    size = max(1, min(state_count, len(relation)))
    codes: dict[Atom, bytearray] = {}
    atoms: dict[str, tuple[Atom, bytearray]] = {}  # each distinct atom text is parsed once
    outside: dict[tuple[int, Atom], int] = {}
    for i, row in enumerate(rows):
        text, state, code = row["atom"], row["state"], _TEXT_CODE[row["value"]]
        entry = atoms.get(text)
        if entry is None:
            try:
                atom = _hands_only(parse_atom, text)
            except Invalid as exc:
                exc.where += ["atom", i]
                raise
            entry = atoms[text] = atom, codes.setdefault(atom, bytearray(size))
        atom, per_state = entry
        if 0 <= state < size:
            listed = per_state[state]
            if not listed or listed == code:
                per_state[state] = code
                continue
        elif outside.setdefault((state, atom), code) == code:
            continue
        raise Invalid(f"{text} at state {state} is listed again with another value", i)
    return Valuation._read(state_count, codes, outside)


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
    "valuation": optional(given(_valuation, "states", "relation"), {}),
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
