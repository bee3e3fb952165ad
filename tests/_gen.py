"""Seeded random generators and independent reference implementations used
as oracles. The reference evaluators read each listed cell through the
valuation's `(state, atom)` mapping view, never the labeler's defaults,
and compute action relations with explicit loops and boolean matrix
powering, so they share no code path with the implementations they
check. A second reference, the `bfs_` functions, scales to thousands of
states: it reads plain dicts and sets, where `BfsCells` gives an unlisted
cell its documented default, searches each star breadth-first and uses no
`pdlsl.model` code. Both verdict references take a sign's anchor from
`ref_anchor_atoms`, the anchor rule written out again, so they share no
anchor code with `verify`. The mirror helpers turn a tracking document
into the signer's mirror image and rename a model to match it."""

from __future__ import annotations

import copy
import math
import random
from collections import deque

from pdlsl import (
    TOP,
    Action,
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
    Direction,
    Formula,
    Move,
    Not,
    Orient,
    Place,
    PlaceMap,
    Rect,
    RelDir,
    SegmentationParams,
    Seq,
    Star,
    ThreeVal,
    Thrill,
    Touch,
    UtteranceModel,
    Vec2,
    ground,
    mirror_direction,
)

R, L = Articulator.RIGHT, Articulator.LEFT

# Small pools: at most 3 atoms and 2 atomic actions, per the model-checking
# equivalence setup.
ATOM_POOL: tuple[Atom, ...] = (
    Touch(R, L),
    At(R, "FACE"),
    Config(L, "CLAMP"),
)
ACTION_POOL: tuple[AtomicAction, ...] = (
    Move(R, Direction.E),
    Thrill(L),
)

# Pool with dominant/weak aliases for grounding-sensitive generation.
ALIASED_ATOMS: tuple[Atom, ...] = (
    Touch(Articulator.DOMINANT, Articulator.WEAK),
    At(Articulator.DOMINANT, "HEAD"),
    RelDir(Articulator.WEAK, Direction.NE, Articulator.DOMINANT),
)


def gen_model(
    rng: random.Random,
    max_states: int = 4,
    atoms: tuple[Atom, ...] = ATOM_POOL,
    actions: tuple[AtomicAction, ...] = ACTION_POOL,
    allow_unknown: bool = False,
) -> UtteranceModel:
    """A random serial model with every pool atom explicitly valued."""
    n = rng.randint(1, max_states)
    pairs = {(s, rng.randrange(n)) for s in range(n)}
    for s in range(n):
        for t in range(n):
            if rng.random() < 0.3:
                pairs.add((s, t))
    relation = frozenset(pairs)
    interp = {
        a: frozenset(p for p in sorted(relation) if rng.random() < 0.5) for a in actions
    }
    values = (
        (ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNKNOWN)
        if allow_unknown
        else (ThreeVal.TRUE, ThreeVal.FALSE)
    )
    valuation = {(s, atom): rng.choice(values) for s in range(n) for atom in atoms}
    observed = tuple(
        frozenset(h for h in (R, L) if rng.random() < 0.8) for _ in range(n)
    )
    return UtteranceModel(
        state_count=n,
        relation=relation,
        action_interp=interp,
        valuation=valuation,
        observed=observed,
    )


def gen_action(
    rng: random.Random,
    depth: int,
    actions: tuple[AtomicAction, ...] = ACTION_POOL,
) -> Action:
    if depth <= 0 or rng.random() < 0.4:
        return Atomic(rng.choice(actions))
    kind = rng.choice(("concurrent", "choice", "seq", "star"))
    if kind == "star":
        return Star(gen_action(rng, depth - 1, actions))
    left = gen_action(rng, depth - 1, actions)
    right = gen_action(rng, depth - 1, actions)
    if kind == "concurrent":
        return Concurrent(left, right)
    if kind == "choice":
        return Choice(left, right)
    return Seq(left, right)


def gen_formula(
    rng: random.Random,
    depth: int,
    atoms: tuple[Atom, ...] = ATOM_POOL,
    actions: tuple[AtomicAction, ...] = ACTION_POOL,
) -> Formula:
    if depth <= 0:
        if rng.random() < 0.15:
            return TOP
        return AtomF(rng.choice(atoms))
    kind = rng.choice(("atom", "not", "and", "and", "box"))
    if kind == "atom":
        return AtomF(rng.choice(atoms))
    if kind == "not":
        return Not(gen_formula(rng, depth - 1, atoms, actions))
    if kind == "and":
        return And(
            gen_formula(rng, depth - 1, atoms, actions),
            gen_formula(rng, depth - 1, atoms, actions),
        )
    return Box(gen_action(rng, min(depth - 1, 2), actions), gen_formula(rng, depth - 1, atoms, actions))


# --- Reference semantics ------------------------------------------------------


def _bool_matmul(a: list[list[bool]], b: list[list[bool]]) -> list[list[bool]]:
    n = len(a)
    out = [[False] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                row_b = b[k]
                row_o = out[i]
                for j in range(n):
                    if row_b[j]:
                        row_o[j] = True
    return out


def matrix_closure(n: int, pairs: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Reflexive transitive closure by powering the (I or A) matrix."""
    m = [[i == j for j in range(n)] for i in range(n)]
    for s, t in pairs:
        m[s][t] = True
    steps = 1
    while steps < n:
        m = _bool_matmul(m, m)
        steps *= 2
    return frozenset((i, j) for i in range(n) for j in range(n) if m[i][j])


def ref_action_pairs(model: UtteranceModel, action: Action) -> frozenset[tuple[int, int]]:
    if isinstance(action, Atomic):
        return frozenset(model.action_interp.get(action.action, frozenset()))
    if isinstance(action, Concurrent):
        return ref_action_pairs(model, action.left) & ref_action_pairs(model, action.right)
    if isinstance(action, Choice):
        return ref_action_pairs(model, action.left) | ref_action_pairs(model, action.right)
    if isinstance(action, Seq):
        a = ref_action_pairs(model, action.left)
        b = ref_action_pairs(model, action.right)
        return frozenset((x, w) for (x, y) in a for (z, w) in b if y == z)
    if isinstance(action, Star):
        return matrix_closure(model.state_count, ref_action_pairs(model, action.body))
    raise TypeError(action)


def ref_eval_bool(model: UtteranceModel, state: int, formula: Formula) -> bool:
    """Classical evaluation over a fully valued model, reading each cell
    through the valuation's mapping view (every queried atom must be
    listed)."""
    if isinstance(formula, type(TOP)):
        return True
    if isinstance(formula, AtomF):
        return model.valuation[(state, formula.atom)] is ThreeVal.TRUE
    if isinstance(formula, Not):
        return not ref_eval_bool(model, state, formula.body)
    if isinstance(formula, And):
        return ref_eval_bool(model, state, formula.left) and ref_eval_bool(
            model, state, formula.right
        )
    if isinstance(formula, Box):
        return all(
            ref_eval_bool(model, t, formula.body)
            for (s, t) in ref_action_pairs(model, formula.action)
            if s == state
        )
    raise TypeError(formula)


# Three-valued reference by truth-table lookup.
_NOT_TABLE = {"t": "f", "f": "t", "u": "u"}
_AND_TABLE = {
    ("t", "t"): "t", ("t", "f"): "f", ("t", "u"): "u",
    ("f", "t"): "f", ("f", "f"): "f", ("f", "u"): "f",
    ("u", "t"): "u", ("u", "f"): "f", ("u", "u"): "u",
}
_CODE = {ThreeVal.TRUE: "t", ThreeVal.FALSE: "f", ThreeVal.UNKNOWN: "u"}
_VAL = {"t": ThreeVal.TRUE, "f": ThreeVal.FALSE, "u": ThreeVal.UNKNOWN}


def ref_eval_three(model: UtteranceModel, state: int, formula: Formula) -> ThreeVal:
    return _VAL[_ref3(model, state, formula)]


def _ref3(model: UtteranceModel, state: int, formula: Formula) -> str:
    if isinstance(formula, type(TOP)):
        return "t"
    if isinstance(formula, AtomF):
        return _CODE[model.valuation[(state, formula.atom)]]
    if isinstance(formula, Not):
        return _NOT_TABLE[_ref3(model, state, formula.body)]
    if isinstance(formula, And):
        return _AND_TABLE[(_ref3(model, state, formula.left), _ref3(model, state, formula.right))]
    if isinstance(formula, Box):
        out = "t"
        for (s, t) in ref_action_pairs(model, formula.action):
            if s == state:
                out = _AND_TABLE[(out, _ref3(model, t, formula.body))]
        return out
    raise TypeError(formula)


# --- A reference that scales ---------------------------------------------------
#
# It takes a model as plain data: the cells as a dict from `(state, atom)`
# to the value (a `BfsCells` gives the unlisted ones their defaults), and
# the edges of each atomic action. It keeps Python sets, one dict per
# atomic action from each state to the states it is reached from, and the
# strong Kleene tables above, and it searches each star once per label
# breadth-first. It uses no int as a bitset and no `pdlsl.model` code, so
# it can check the labeler at sizes where the matrix oracle cannot run.

Predecessors = dict[AtomicAction, dict[int, set[int]]]


def bfs_predecessors(edges: dict[AtomicAction, frozenset[tuple[int, int]]]) -> Predecessors:
    """For each atomic action, each state mapped to the states it is reached from."""
    preds: Predecessors = {}
    for action, pairs in edges.items():
        per_state = preds.setdefault(action, {})
        for s, t in pairs:
            per_state.setdefault(t, set()).add(s)
    return preds


def bfs_pre(preds: Predecessors, action: Action, targets: set[int]) -> set[int]:
    """The states with an `action`-successor in `targets`. A star is one
    breadth-first search backwards from `targets`; `&` is read per target."""
    if isinstance(action, Atomic):
        per_state = preds.get(action.action, {})
        return set().union(*(per_state.get(t, ()) for t in targets))
    if isinstance(action, Seq):
        return bfs_pre(preds, action.left, bfs_pre(preds, action.right, targets))
    if isinstance(action, Choice):
        return bfs_pre(preds, action.left, targets) | bfs_pre(preds, action.right, targets)
    if isinstance(action, Concurrent):
        return {s for t in targets
                for s in bfs_pre(preds, action.left, {t}) & bfs_pre(preds, action.right, {t})}
    if isinstance(action, Star):
        seen, queue = set(targets), deque(targets)
        while queue:
            for s in bfs_pre(preds, action.body, {queue.popleft()}) - seen:
                seen.add(s)
                queue.append(s)
        return seen
    raise TypeError(action)


def bfs_pairs(preds: Predecessors, n: int, action: Action) -> frozenset[tuple[int, int]]:
    """The pairs `action` relates over the states 0..n-1, read per target."""
    return frozenset((s, t) for t in range(n) for s in bfs_pre(preds, action, {t}))


class BfsCells(dict):
    """The listed `(state, atom)` cells, read as a dict in which an
    unlisted cell has its documented default, taken from plain per-state
    records: `observed[s]`, the hands tracked at state s, and `configs[s]`,
    each hand's shape label seen there (None for none). A state past a
    record observed nothing. A `dir`, `at` or `touch` atom defaults to
    False where each of its hands was observed, a `cfg` atom to False only
    where its hand showed another label, and an `orient` atom to Unknown;
    every other default is Unknown."""

    def __init__(self, listed: dict, observed: tuple = (), configs: tuple = ()):
        super().__init__(listed)
        self.observed, self.configs = observed, configs

    def __missing__(self, key: tuple[int, Atom]) -> ThreeVal:
        s, atom = key
        if isinstance(atom, Config):
            seen = self.configs[s].get(atom.articulator) if s < len(self.configs) else None
            return ThreeVal.FALSE if seen not in (None, atom.label) else ThreeVal.UNKNOWN
        if isinstance(atom, RelDir):
            hands = {atom.subject, atom.anchor}
        elif isinstance(atom, Touch):
            hands = {atom.a, atom.b}
        elif isinstance(atom, At):
            hands = {atom.articulator}
        else:
            return ThreeVal.UNKNOWN
        observed = self.observed[s] if s < len(self.observed) else ()
        return ThreeVal.FALSE if hands <= set(observed) else ThreeVal.UNKNOWN


def bfs_values(preds: Predecessors, cells: dict, n: int, formula: Formula) -> list[str]:
    """The value of a grounded formula at each state, as "t", "f" or "u",
    reading every atom from `cells`. `[α]φ` is False where some
    α-successor is False, else Unknown where some α-successor is Unknown,
    else True: the Kleene AND over the successors."""
    if isinstance(formula, type(TOP)):
        return ["t"] * n
    if isinstance(formula, AtomF):
        return [_CODE[cells[s, formula.atom]] for s in range(n)]
    if isinstance(formula, Not):
        return [_NOT_TABLE[v] for v in bfs_values(preds, cells, n, formula.body)]
    if isinstance(formula, And):
        left = bfs_values(preds, cells, n, formula.left)
        return [_AND_TABLE[pair] for pair in zip(left, bfs_values(preds, cells, n, formula.right))]
    if isinstance(formula, Box):
        body = bfs_values(preds, cells, n, formula.body)
        false, unknown = (bfs_pre(preds, formula.action, {s for s, v in enumerate(body) if v == code})
                          for code in "fu")
        return ["f" if s in false else "u" if s in unknown else "t" for s in range(n)]
    raise TypeError(formula)


def ref_anchor_atoms(formula: Formula) -> set[Atom]:
    """A formula's anchor atoms, by the rule of the `check` module
    docstring: the positive atoms of its top-level conjunction, outside any
    modality, where an implication `!(a /\\ !b)` stands for its antecedent
    `a`."""
    atoms, todo = set(), [formula]
    while todo:
        f = todo.pop()
        if isinstance(f, And):
            todo += [f.left, f.right]
        elif isinstance(f, AtomF):
            atoms.add(f.atom)
        elif isinstance(f, Not) and isinstance(f.body, And) and isinstance(f.body.right, Not):
            todo.append(f.body.left)
    return atoms


def bfs_verdicts(preds: Predecessors, cells: dict, n: int, lexicon, handedness) -> list:
    """Per state, the `(sign, verdict)` pairs of `verify`: a sign grounded
    for `handedness` is dropped where it or one of its anchor atoms is
    False, matches where all of them are True, and is possible otherwise;
    matches come first, each group in lexicon order."""
    signs = []
    for entry in lexicon.entries:
        formula = ground(entry.formula, handedness)
        tables = [bfs_values(preds, cells, n, f)
                  for f in (formula, *map(AtomF, ref_anchor_atoms(formula)))]
        signs.append((entry.name, tables))
    per_state = []
    for s in range(n):
        codes = [(name, {table[s] for table in tables}) for name, tables in signs]
        per_state.append([(name, "match") for name, c in codes if c == {"t"}]
                         + [(name, "possible") for name, c in codes if "f" not in c and "u" in c])
    return per_state


# --- Tracking documents --------------------------------------------------------

_LABELS = ("CLAMP", "FLAT", "FIST", "V")
_PLACE_NAMES = ("TOP", "MID", "LOW", "SIDE", "WIDE")


def _body_path(rng: random.Random) -> list[tuple[float, float] | None]:
    """One hand's path in body units: holds joined by moves, reversal
    bursts that return to the held point, drifts and jitter."""
    pos = (rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 1.4))
    path: list[tuple[float, float] | None] = []
    for k in range(rng.randint(1, 6)):
        if k:
            kind = rng.choice(("move", "move", "burst", "burst", "drift", "jitter"))
            n = rng.randint(1, 8)
            if kind == "move":
                step = (rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08))
                for _ in range(n):
                    pos = (pos[0] + step[0], pos[1] + step[1])
                    path.append(pos)
            elif kind == "burst":
                size = rng.choice((0.01, 0.02, 0.03, rng.uniform(0.005, 0.05)))
                for i in range(2 * n):
                    path.append((pos[0] + (size if i % 2 == 0 else -size), pos[1]))
            elif kind == "drift":
                for _ in range(n):
                    pos = (pos[0] + rng.uniform(-0.025, 0.025), pos[1] + rng.uniform(-0.025, 0.025))
                    path.append(pos)
            else:
                path.extend((pos[0] + rng.uniform(-0.01, 0.01), pos[1]) for _ in range(n))
        path.extend(pos for _ in range(rng.randint(1, 9)))
    return path


def gen_tracking(rng: random.Random) -> tuple[dict, dict]:
    """A tracking document and the keyword arguments of `extract_model` for
    it. Raw coordinates are body units moved to a random origin and scale,
    mirrored or not, so normalization matters. Faults are drawn at random:
    head and hand dropouts, repeated and decreasing frame indices,
    teleports (some of which overflow a double), non-finite or too large
    coordinates, and a body scale whose reciprocal overflows. The options
    draw a configured body origin and scale, a custom place map and changed
    segmentation thresholds."""
    configured = [key for key in ("body_origin", "body_scale") if rng.random() < 0.25]
    # Without a configured origin or scale a body unit is a raw unit.
    scales = (1.0, rng.uniform(0.8, 1.25))
    if configured:
        scales += (rng.uniform(0.2, 5.0), rng.uniform(50.0, 400.0))
    scale = rng.choice(scales)
    origin = (rng.uniform(-3.0, 3.0) * scale, rng.uniform(-3.0, 3.0) * scale)
    options: dict = {}
    if "body_origin" in configured:
        options["body_origin"] = Vec2(origin[0], origin[1])
    if "body_scale" in configured:
        options["body_scale"] = scale if rng.random() < 0.95 else 1e-310
    mirrored = rng.random() < 0.3
    sign = -1.0 if mirrored else 1.0

    def raw(p: tuple[float, float]) -> list[float]:
        return [origin[0] + sign * p[0] * scale, origin[1] + p[1] * scale]

    right = _body_path(rng)
    # A resting left hand lets a right-hand burst join two equal postures.
    left = _body_path(rng) if rng.random() < 0.6 else right[:1]
    n = max(len(right), len(left))
    right += [right[-1]] * (n - len(right))
    left += [left[-1]] * (n - len(left))
    labels = [rng.choice(_LABELS) for _ in range(4)]
    heads = rng.random()
    period = rng.choice((6, 40))
    config_rate, orient_rate = rng.choice((0.0, 0.7, 1.0)), rng.choice((0.0, 0.2))
    frames = []
    for t in range(n):
        frame: dict = {"t": t}
        if heads > 0.08 and rng.random() > 0.1:
            frame["head"] = raw((rng.uniform(-0.01, 0.01), 1.2 + rng.uniform(-0.01, 0.01)))
        for key, path in (("right", right), ("left", left)):
            hand: dict = {"pos": raw(path[t])}
            if rng.random() < config_rate:
                hand["config"] = labels[(t // period + len(key)) % 4]
            if rng.random() < orient_rate:
                hand["orient"] = rng.choice(("N", "E", "S", "W", "NE", "SW"))
            frame[key] = hand
        frames.append(frame)

    def some_frame() -> dict:
        return frames[rng.randrange(n)]

    for _ in range(rng.choice((0, 0, 1, 3))):
        frame = some_frame()
        key = rng.choice(("right", "left"))
        if frame[key] is None or rng.random() < 0.3:
            frame[key] = None
        else:
            frame[key].pop("pos", None)
    if rng.random() < 0.2:
        some_frame()["head"] = None
    if rng.random() < 0.25:
        frame = some_frame()
        key = rng.choice(("right", "left"))
        if frame.get(key) and "pos" in frame[key]:
            x, y = frame[key]["pos"]
            frame[key]["pos"] = [x + rng.choice((-1.0, 1.0)) * rng.uniform(0.6, 3.0) * scale, y]
    if rng.random() < 0.05:
        key = rng.choice(("right", "left"))
        for t, frame in enumerate(frames):
            frame[key] = {"pos": [(-1) ** t * 1e308, 0.0]}
    if rng.random() < 0.15:
        i = rng.randrange(n)
        frames.insert(i + 1, copy.deepcopy(frames[i]))
        if rng.random() < 0.5 and frames[i + 1].get("right"):
            frames[i + 1]["right"] = {"pos": raw((0.0, 0.0))}
    if n > 1 and rng.random() < 0.04:
        i = rng.randrange(1, n)
        frames[i]["t"] = frames[i - 1]["t"] - 1
    if rng.random() < 0.03:
        frame = some_frame()
        frame["head"] = [rng.choice((math.inf, -math.inf, math.nan)), 1.0]
    if rng.random() < 0.03:
        frame = some_frame()
        frame["left"] = {"pos": [0.0, 10**400]}

    if rng.random() < 0.3:
        options["place_map"] = PlaceMap(
            Place(name, Rect(x, x + rng.uniform(0.1, 1.0), y, y + rng.uniform(0.1, 1.0)))
            for name in rng.sample(_PLACE_NAMES, rng.randint(1, 4))
            for x, y in [(rng.uniform(-1.0, 0.5), rng.uniform(-0.5, 1.2))]
        )
    # A draw of config labels that no option reads: it keeps each seed's
    # document and other options what they are in `extract.tsv`.
    if rng.random() < 0.5:
        rng.sample(_LABELS, rng.randint(1, 3))
    if rng.random() < 0.3:
        options["params"] = SegmentationParams(
            tau_still=rng.choice((0.01, 0.02, 0.03)),
            min_still=rng.randint(1, 4),
            thrill_window=rng.randint(1, 8),
            thrill_min_reversals=rng.randint(1, 4),
            max_jump=rng.choice((0.1, 0.5)),
        )
    doc = {"fps": rng.choice((25, 30.0)), "frames": frames}
    if mirrored or rng.random() < 0.3:
        doc["mirrored"] = mirrored
    return doc, options


# --- Mirror images -------------------------------------------------------------


def _negated(point):
    return point if point is None else [-point[0], point[1]]


def negate_x(doc: dict) -> dict:
    """A copy of a tracking document with the x of every head and hand
    position negated, faults included."""
    frames = []
    for frame in doc["frames"]:
        frame = dict(frame)
        if "head" in frame:
            frame["head"] = _negated(frame["head"])
        for key in ("right", "left"):
            if frame.get(key) and "pos" in frame[key]:
                frame[key] = dict(frame[key], pos=_negated(frame[key]["pos"]))
        frames.append(frame)
    return dict(doc, frames=frames)


def mirror_tracking(doc: dict) -> dict:
    """The tracking document of the signer's mirror image: every x negated
    (the head's too), the `right` and `left` tracks swapped, and each
    labelled orientation mirrored."""
    frames = []
    for frame in negate_x(doc)["frames"]:
        mirrored = {key: value for key, value in frame.items() if key not in ("right", "left")}
        for key, other in (("right", "left"), ("left", "right")):
            if other in frame:
                hand = frame[other]
                if hand and hand.get("orient") is not None:
                    hand = dict(hand, orient=mirror_direction(Direction[hand["orient"]]).name)
                mirrored[key] = hand
        frames.append(mirrored)
    return dict(doc, frames=frames)


_OTHER_HAND = {R: L, L: R}


def mirror_leaf(leaf: Atom | AtomicAction) -> Atom | AtomicAction:
    """A grounded atom or atomic action renamed for the mirror image: R and
    L swapped, each direction by `mirror_direction`, and an `R_` place
    named `L_` and the reverse."""
    fields = []
    for value in leaf._astuple():
        if type(value) is Articulator:
            value = _OTHER_HAND[value]
        elif type(value) is Direction:
            value = mirror_direction(value)
        elif type(leaf) is At and value[:2] in ("R_", "L_"):
            value = {"R": "L", "L": "R"}[value[0]] + value[1:]
        fields.append(value)
    return type(leaf)(*fields)


def mirror_model(model: UtteranceModel) -> UtteranceModel:
    """The model renamed by `mirror_leaf`, with the hands of `observed` and
    `configs` swapped; states, edges and `meta` are kept."""
    return UtteranceModel(
        state_count=model.state_count,
        relation=model.relation,
        action_interp={mirror_leaf(a): pairs for a, pairs in model.action_interp.items()},
        valuation={(s, mirror_leaf(atom)): value for (s, atom), value in model.valuation.items()},
        observed=tuple(frozenset(map(_OTHER_HAND.get, hands)) for hands in model.observed),
        config_observed=tuple({_OTHER_HAND[h]: label for h, label in per_hand.items()}
                              for per_hand in model.config_observed),
        meta=model.meta,
    )


def vocabulary(model: UtteranceModel, place_map: PlaceMap) -> tuple[Atom, ...]:
    """Every atom an extracted model may value, under the run's place map:
    both ordered `dir` pairs in each direction, `at` for each hand and
    place, `touch` in both orders, `cfg` for each hand and each of
    `_LABELS` and the labels the model saw, and `orient` for each hand and
    direction."""
    seen = {label for per_hand in model.config_observed for label in per_hand.values()}
    labels = sorted((seen - {None}) | set(_LABELS))
    atoms = [RelDir(s, d, a) for s, a in ((R, L), (L, R)) for d in Direction]
    atoms += [At(hand, place.name) for hand in (R, L) for place in place_map]
    atoms += [Touch(R, L), Touch(L, R)]
    atoms += [Config(hand, label) for hand in (R, L) for label in labels]
    atoms += [Orient(hand, d) for hand in (R, L) for d in Direction]
    return tuple(atoms)


# --- Model documents -----------------------------------------------------------

# Each grounded atom with the texts a model file may spell it with; the
# spaced ones read as the same atom.
MODEL_ATOM_TEXTS: tuple[tuple[str, ...], ...] = (
    ("touch(R,L)", "touch(R, L)"),
    ("touch(L,R)",),
    ("at(R,FACE)", " at(R,FACE) "),
    ("at(L,CHEST)",),
    ("dir(R,L,E)", "dir( R,L,E )"),
    ("dir(L,R,NW)",),
    ("cfg(R,CLAMP)",),
    ("cfg(L,FLAT)",),
    ("orient(R,N)",),
)
_MODEL_ACTIONS = ("move(R,E)", "move(L,W)", "thrill(R)")
_VALUES = ("true", "false", "unknown")


def gen_model_doc(rng: random.Random, min_states: int = 1, max_states: int = 12) -> dict:
    """A valid format-1 model document. Its valuation rows are shuffled,
    spell some atoms in more than one way, and repeat some cells with the
    same value; `observed` and `configs` cover a random prefix of the
    states."""
    n = rng.randint(min_states, max_states)
    relation = {(s, rng.randrange(n)) for s in range(n)}
    relation |= {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))}
    pairs = sorted(relation)
    actions = [
        {"action": text, "edges": [list(p) for p in rng.sample(pairs, rng.randint(0, len(pairs)))]}
        for text in rng.sample(_MODEL_ACTIONS, rng.randint(0, 3))
    ]
    density = rng.random()
    rows = [
        {"state": s, "atom": rng.choice(texts), "value": rng.choice(_VALUES)}
        for texts in rng.sample(MODEL_ATOM_TEXTS, rng.randint(0, len(MODEL_ATOM_TEXTS)))
        for s in range(n)
        if rng.random() < density
    ]
    for row in rng.sample(rows, min(len(rows), rng.choice((0, 1, 3)))):
        texts = next(t for t in MODEL_ATOM_TEXTS if row["atom"] in t)
        rows.append(dict(row, atom=rng.choice(texts)))
    rng.shuffle(rows)
    observed = [sorted(h for h in ("R", "L") if rng.random() < 0.7)
                for _ in range(rng.randint(0, n))]
    configs = [{h: rng.choice((None, "CLAMP", "FLAT")) for h in ("R", "L") if rng.random() < 0.8}
               for _ in range(rng.randint(0, n))]
    doc = {"format": 1, "states": n, "relation": [list(p) for p in pairs], "actions": actions,
           "valuation": rows, "observed": observed, "configs": configs}
    if rng.random() < 0.7:
        doc["meta"] = {"fps": rng.choice((25, 30.0)), "mirrored": rng.random() < 0.3,
                       "segmentation": {"tau_still": 0.02, "min_still": rng.randint(1, 4)}}
    return doc
