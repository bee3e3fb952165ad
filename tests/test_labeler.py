"""The labeler's box reductions and per-atom bitsets against references.

Star-heavy formulas and actions are compared with the independent oracles
of `_gen` on seeded 30-60 state models, and `&` over `*`, `;` and `|`, and
`*` over `&`, on seeded 100-150 state models. The per-atom bitsets and
`atom_value` are compared with the documented defaults, written out state
by state in `_reference_atom_value` from a plain dict of the listed cells,
on models built in code and on seeded 30-400 state model files, with and
without overrides. A counting test checks that `verify` stores only
atomic and `&` actions and builds no source list on a chain, another
that an action written with D/W and with R/L is stored once, and a
memory test that its `tracemalloc` peak grows linearly with the chain, and
with a reversal and a chain of two offsets, whose targets are read one by
one. A labeler given the signer's handedness labels formulas as parsed,
and their anchors, as the handless labeler labels the trees `ground`
makes. Last, `verify` and
`eval_formula` on chains and cycles of 63-65 and 127-129 states, on
either side of the labeler's 64-bit words, with a second action on a
subset of the first's edges under `&`, are compared with a breadth-first
search over Python sets.
"""

import copy
import pickle
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import pdlsl.model
from pdlsl import (
    And,
    Articulator,
    At,
    Atom,
    AtomF,
    Atomic,
    Box,
    Choice,
    Concurrent,
    Config,
    Direction,
    Handedness,
    LexiconEntry,
    LexiconFile,
    Move,
    Not,
    Orient,
    Override,
    RelDir,
    Seq,
    SourceSpan,
    Star,
    ThreeVal,
    Thrill,
    Touch,
    UtteranceModel,
    anchor_atoms,
    apply_overrides,
    atom_value,
    contains_alias,
    diamond,
    eval_formula,
    eval_two_valued,
    ground,
    ground_atom,
    implies,
    interpret_action,
    model_from_json,
    parse_atom,
    parse_lexicon,
    print_action,
    print_formula,
    verify,
)
from pdlsl.check import _anchors
from pdlsl.errors import UngroundedFormula, UnknownState
from pdlsl.model import _Labeler as Labeler

import _gen
from test_oracle import SEEDS, gen_large_model, memoized_oracles, reference_verdicts

R, L = Articulator.RIGHT, Articulator.LEFT
D, W = Articulator.DOMINANT, Articulator.WEAK
T, F, U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNKNOWN
A, B = (Atomic(a) for a in _gen.ACTION_POOL)


# --- stars against the oracles ----------------------------------------------------------


def star_action(rng: random.Random, depth: int):
    """A random action that leans towards stars, with `;`, `|` and `&`
    around and under them."""
    if depth <= 0:
        return rng.choice((A, B))
    kind = rng.choice(("star", "star", "seq", "choice", "concurrent", "atomic"))
    if kind == "atomic":
        return rng.choice((A, B))
    if kind == "star":
        return Star(star_action(rng, depth - 1))
    left, right = star_action(rng, depth - 1), star_action(rng, depth - 1)
    return {"seq": Seq, "choice": Choice, "concurrent": Concurrent}[kind](left, right)


def star_formulas(rng: random.Random):
    """One formula per required shape, over random subactions and bodies:
    nested stars, `;` under `*`, `*` under `&`, `*` under `!`, and `[α*]`
    inside `[β*]`; then a few random star-leaning ones."""
    x, y = star_action(rng, 1), star_action(rng, 1)

    def body():
        return _gen.gen_formula(rng, 1)

    shapes = [
        Box(Star(Star(x)), body()),
        Box(Star(Choice(Star(x), y)), body()),
        Box(Star(Seq(Star(x), y)), body()),
        Box(Star(Seq(x, y)), body()),
        Box(Seq(Star(Seq(A, B)), x), body()),
        Box(Concurrent(Star(x), y), body()),
        Box(Concurrent(Star(Seq(A, B)), Star(y)), body()),
        Not(Box(Star(x), body())),
        diamond(Star(Seq(x, y)), body()),
        Box(Star(x), Box(Star(y), body())),
        Box(Star(x), And(body(), Not(Box(Star(Choice(x, y)), body())))),
    ]
    return shapes + [Box(star_action(rng, 3), body()) for _ in range(3)]


STARS = settings(SEEDS, max_examples=8)


@STARS
@given(st.integers(0, 2**32 - 1))
def test_star_formulas_match_the_oracles(seed):
    rng = random.Random(seed)
    model = gen_large_model(rng)
    formulas = star_formulas(rng)
    lexicon = LexiconFile(tuple(
        LexiconEntry(f"SIGN{i}", f, SourceSpan(1, 1)) for i, f in enumerate(formulas)
    ))
    report = verify(model, lexicon, Handedness.RIGHT_DOMINANT)
    got = [[(p.sign, p.verdict) for p in proposals] for proposals in report.per_state]
    with memoized_oracles():
        assert got == reference_verdicts(model, lexicon)
        for formula in formulas:
            for state in model.states():
                assert eval_formula(model, state, formula) is _gen.ref_eval_three(
                    model, state, formula
                )
                assert eval_two_valued(model, state, formula) == _gen.ref_eval_bool(
                    model, state, formula
                )


@STARS
@given(st.integers(0, 2**32 - 1))
def test_star_actions_match_the_relation_oracle(seed):
    rng = random.Random(seed)
    model = gen_large_model(rng)
    x, y = star_action(rng, 1), star_action(rng, 1)
    actions = [Star(Star(x)), Star(Seq(x, y)), Concurrent(Star(x), y),
               Seq(Star(x), Star(y)), star_action(rng, 3)]
    with memoized_oracles():
        for action in actions:
            assert interpret_action(model, action) == _gen.ref_action_pairs(model, action)


def chain(n: int) -> UtteranceModel:
    """A move(R,E) chain of n states with a final self-loop, touch(R,L) True
    at every third state and at(R,FACE) True at every other one."""
    edges = frozenset((s, s + 1) for s in range(n - 1))
    valuation = {}
    for s in range(n):
        valuation[(s, Touch(R, L))] = T if s % 3 == 2 else F
        valuation[(s, At(R, "FACE"))] = T if s % 2 == 0 else U
    return UtteranceModel(
        state_count=n,
        relation=edges | {(n - 1, n - 1)},
        action_interp={Move(R, Direction.E): edges},
        valuation=valuation,
        observed=(frozenset((R, L)),) * n,
    )


STAR_SIGNS = """format: 1
sign STAY_APART := [move(R,E)*] !touch(R,L) .
sign MEET_LATER := <move(R,E)*> touch(R,L) .
sign FACE_EVERY_OTHER := [(move(R,E) ; move(R,E))*] at(R,FACE) .
"""
STAR_UNDER_CONCURRENT = "sign STEP := [move(R,E)* & (move(R,E) ; move(R,E))] at(R,FACE) .\n"


def test_verify_stores_rows_only_for_atomic_and_concurrent_actions(monkeypatch):
    """`verify` of the star signs stores only atomic and `&` actions, never
    a star, `;` or `|`, and an atomic action as the model's own `Edges`; on
    a chain, whose one edge offset is 1, it builds no source list and walks
    no bitset state by state, with or without a star under `&`, which is
    read per target state and still matches the oracle."""
    labelers, read = [], [0]
    init, members = pdlsl.model._Labeler.__init__, pdlsl.model._members

    def recording(labeler, *args):
        init(labeler, *args)
        labelers.append(labeler)

    def counting(bits):
        for state in members(bits):
            read[0] += 1
            yield state

    def stored():
        return {type(action) for labeler in labelers for action in labeler._pred}

    monkeypatch.setattr(pdlsl.model._Labeler, "__init__", recording)
    monkeypatch.setattr(pdlsl.model, "_members", counting)

    def states_walked(n: int) -> int:
        read[0] = 0
        verify(chain(n), parse_lexicon(STAR_SIGNS), Handedness.RIGHT_DOMINANT)
        return read[0]

    model = chain(40)
    for text, kinds in ((STAR_SIGNS, {Atomic}), (STAR_SIGNS + STAR_UNDER_CONCURRENT,
                                                 {Atomic, Concurrent})):
        labelers.clear()
        report = verify(model, parse_lexicon(text), Handedness.RIGHT_DOMINANT)
        assert stored() == kinds
        for labeler in labelers:
            for action, edges in labeler._pred.items():
                assert edges._into is None
                if type(action) is Atomic:
                    assert edges is model.action_interp[action.action]
        with memoized_oracles():
            assert [[(p.sign, p.verdict) for p in ps] for ps in report.per_state] == (
                reference_verdicts(model, parse_lexicon(text))
            )
    labelers.clear()
    assert states_walked(6400) == states_walked(800) == 0
    assert stored() == {Atomic}


def test_an_action_written_with_aliases_and_with_hands_is_stored_once(monkeypatch):
    """For a right-dominant signer `move(D,E)` and `move(R,E)` are one
    action: the labeler files both keys under the model's own `Edges`, so
    labeling builds no bitset of them, and the verdicts are those of the
    lexicon written with hands only."""
    built = [0]
    bitset = pdlsl.model._bitset

    def counting(states, state_count):
        built[0] += 1
        return bitset(states, state_count)

    model = chain(40)
    monkeypatch.setattr(pdlsl.model, "_bitset", counting)
    labeler = Labeler(model, None, Handedness.RIGHT_DOMINANT)
    aliased = parse_lexicon("sign NEXT := <move(D,E)> touch(R,L) .\n"
                            "sign STAY_APART := [move(R,E)*] !touch(R,L) .\n")
    for entry in aliased.entries:
        labeler.formula(entry.formula)
    assert labeler._pred.keys() == {Atomic(Move(D, Direction.E)), Atomic(Move(R, Direction.E))}
    # The diagonals and `has_pred` were built with the model.
    assert all(edges is model.action_interp[Move(R, Direction.E)] for edges in labeler._pred.values())
    assert built[0] == 0
    handed = parse_lexicon("sign NEXT := <move(R,E)> touch(R,L) .\n"
                           "sign STAY_APART := [move(R,E)*] !touch(R,L) .\n")
    assert [labeler.formula(e.formula) for e in aliased.entries] == [
        Labeler(model).formula(e.formula) for e in handed.entries]


def test_interpret_action_reads_a_stored_action_off_its_diagonals(monkeypatch):
    """The pairs of an atomic or `&` action come off its diagonals, in
    O(edges): on a 25,600-state chain, with no `<α>` per target state."""
    calls = [0]
    pre = Labeler.pre

    def counting(labeler, action, targets):
        calls[0] += 1
        return pre(labeler, action, targets)

    model, move = chain(25600), Atomic(Move(R, Direction.E))
    monkeypatch.setattr(Labeler, "pre", counting)
    edges = frozenset((s, s + 1) for s in range(25599))
    assert interpret_action(model, move) == edges
    assert interpret_action(model, Concurrent(move, move)) == edges
    assert calls[0] == 0


def test_an_and_of_diagonals_and_of_kept_pairs_is_their_intersection():
    """A chain action holds diagonals, and an action with an offset for
    most of its edges keeps its pairs; their `&`, either way round, relates
    the pairs both relate, and `<α & β>` of any targets reads it."""
    rng, n = random.Random(7), 300
    steps = {(s, s + 1) for s in range(n - 1)}
    jumps = {(s, rng.randrange(n)) for s in range(n)} | set(rng.sample(sorted(steps), 100))
    a, b = Move(R, Direction.E), Move(L, Direction.E)
    model = UtteranceModel(state_count=n, relation=steps | jumps | {(n - 1, n - 1)},
                           action_interp={a: steps, b: jumps}, valuation={})
    assert model.action_interp[a].diagonals is not None and model.action_interp[b].diagonals is None
    labeler = Labeler(model)
    for action in (Concurrent(Atomic(a), Atomic(b)), Concurrent(Atomic(b), Atomic(a))):
        assert interpret_action(model, action) == steps & jumps
        for _ in range(20):
            targets = rng.getrandbits(n)
            assert labeler.pre(action, targets) == sum(
                {1 << s for s, t in steps & jumps if targets >> t & 1})


def test_a_one_offset_star_is_closed_in_a_handful_of_steps(monkeypatch):
    """`[move(R,E)*] !touch(R,L)` on a 102,400-state chain whose one
    `touch` is at the last state: the star's one edge offset is closed by
    doubling, with a handful of `<α>` calls, not one per state, and every
    state reaches the touch, so none is proposed."""
    n = 102_400
    edges = [(s, s + 1) for s in range(n - 1)]
    model = UtteranceModel(state_count=n, relation=edges + [(n - 1, n - 1)],
                           action_interp={Move(R, Direction.E): edges},
                           valuation={(n - 1, Touch(R, L)): T}, observed=(frozenset((R, L)),) * n)
    calls = [0]
    pre = Labeler.pre

    def counting(labeler, action, targets):
        calls[0] += 1
        return pre(labeler, action, targets)

    monkeypatch.setattr(Labeler, "pre", counting)
    lexicon = parse_lexicon("sign STAY_APART := [move(R,E)*] !touch(R,L) .\n")
    report = verify(model, lexicon, Handedness.RIGHT_DOMINANT)
    assert calls[0] <= 4
    assert report.per_state == ((),) * n


ONE_STEP = "sign MEET_NEXT := <move(R,E)> touch(R,L) .\n"


@pytest.mark.parametrize("text", [STAR_SIGNS, ONE_STEP], ids=["star_signs", "one_step"])
def test_verify_memory_grows_linearly_with_a_chain(text):
    """The `tracemalloc` peak of `verify` grows at most 4.5 times from a
    6,400-state chain to a 25,600-state one: the labeler keeps its stored
    actions in space linear in their edges."""
    lexicon = parse_lexicon(text)

    def peak(n: int) -> int:
        model = chain(n)
        tracemalloc.start()
        try:
            verify(model, lexicon, Handedness.RIGHT_DOMINANT)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(6400), peak(25600)
    assert large <= 4.5 * small, (small, large)


def wide_step_model(shape: str, n: int) -> UtteranceModel:
    """An n-state model whose one `touch(R,L)` is at its last state and
    whose move(R,E) edges are the relation's: the reversal s -> n-1-s, each
    pair of its own offset, or a chain with offsets +1 and +2."""
    if shape == "reversal":
        edges = relation = [(s, n - 1 - s) for s in range(n)]
    else:
        edges = [(s, s + d) for d in (1, 2) for s in range(n - d)]
        relation = edges + [(n - 1, n - 1)]
    return UtteranceModel(state_count=n, relation=relation,
                          action_interp={Move(R, Direction.E): edges},
                          valuation={(n - 1, Touch(R, L)): T}, observed=(frozenset((R, L)),) * n)


@pytest.mark.parametrize("shape", ["reversal", "offsets 1 and 2"])
def test_verify_memory_grows_linearly_where_targets_are_read_one_by_one(shape):
    """Where few targets are hit, or the edges keep their pairs, `<α>` ORs
    the sources of each target hit. Its `tracemalloc` peak in `verify`
    grows under 6 times from 5,000 states to 20,000; bitset rows per
    target grew it 12 to 13 times, by the square of the states."""
    lexicon = parse_lexicon("sign NEXT := <move(R,E)> touch(R,L) .\n"
                            "sign STAY_APART := [move(R,E)*] !touch(R,L) .\n")

    def peak(n: int) -> int:
        model = wide_step_model(shape, n)
        tracemalloc.start()
        try:
            verify(model, lexicon, Handedness.RIGHT_DOMINANT)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(5000), peak(20000)
    assert large < 6 * small, (small, large)


def nested_stars(depth: int) -> str:
    """A lexicon of three signs over `move(R,E)` under `depth` nested stars."""
    action = "(" * depth + "move(R,E)" + ")*" * depth
    return (f"sign MEET := <{action}> (touch(R,L) /\\ at(R,FACE)) .\n"
            f"sign STAY_APART := [{action}] !touch(R,L) .\n"
            f"sign FACE := [{action}] at(R,FACE) .\n")


def test_nested_stars_cost_pre_calls_linear_in_depth(monkeypatch):
    """A star of a star is labeled as the star: each further star adds the
    same few `pre` calls to a `verify`, and the verdicts are the oracle's."""
    model = chain(30)
    with memoized_oracles():
        for depth in (10, 30, 50, 70, 90):
            lexicon = parse_lexicon(nested_stars(depth))
            report = verify(model, lexicon, Handedness.RIGHT_DOMINANT)
            assert [[(p.sign, p.verdict) for p in ps] for ps in report.per_state] == (
                reference_verdicts(model, lexicon)
            )

    calls = [0]
    pre = pdlsl.model._Labeler.pre

    def counting(labeler, action, targets):
        calls[0] += 1
        return pre(labeler, action, targets)

    monkeypatch.setattr(pdlsl.model._Labeler, "pre", counting)
    counts = []
    for depth in (10, 30, 50, 70, 90):
        calls[0] = 0
        verify(chain(200), parse_lexicon(nested_stars(depth)), Handedness.RIGHT_DOMINANT)
        counts.append(calls[0])
    steps = {later - earlier for earlier, later in zip(counts, counts[1:])}
    assert len(steps) == 1 and 0 < steps.pop() <= 20 * 6, counts


def gen_segmented_model(rng: random.Random) -> UtteranceModel:
    """100-150 states cut into runs of 1-30 consecutive states. Both pool
    actions label forward steps, skips and back edges inside a run only,
    so paths are up to 30 states long while every relation the oracle
    closes stays small; the relation adds edges between runs."""
    n = rng.randint(100, 150)
    run_of, start = [], 0
    while start < n:
        length = min(rng.randint(1, 30), n - start)
        run_of += [(start, start + length)] * length
        start += length
    inside = set()
    for s, (first, end) in enumerate(run_of):
        if s + 1 < end:
            inside.add((s, s + 1))
        if rng.random() < 0.3:
            inside.add((s, rng.randrange(first, end)))
    relation = frozenset(inside | {(s, rng.randrange(n)) for s in range(n)})
    interp = {
        a: frozenset(p for p in sorted(inside) if rng.random() < 0.7) for a in _gen.ACTION_POOL
    }
    valuation = {
        (s, atom): rng.choice((T, F, U)) for s in range(n) for atom in _gen.ATOM_POOL
    }
    return UtteranceModel(
        state_count=n, relation=relation, action_interp=interp, valuation=valuation
    )


@STARS
@given(st.integers(0, 2**32 - 1))
def test_composite_actions_match_the_oracles_on_larger_models(seed):
    rng = random.Random(seed)
    model = gen_segmented_model(rng)
    x, y, z = (star_action(rng, 1) for _ in range(3))
    actions = [
        Concurrent(Star(x), y),
        Concurrent(y, Star(Seq(x, z))),
        Concurrent(Seq(x, y), z),
        Concurrent(Choice(x, y), z),
        Star(Concurrent(x, y)),
        Star(Concurrent(Star(x), Choice(y, z))),
    ]
    formulas = [Box(action, _gen.gen_formula(rng, 1)) for action in actions]
    formulas += [diamond(action, _gen.gen_formula(rng, 1)) for action in actions]
    lexicon = LexiconFile(tuple(
        LexiconEntry(f"SIGN{i}", f, SourceSpan(1, 1)) for i, f in enumerate(formulas)
    ))
    report = verify(model, lexicon, Handedness.RIGHT_DOMINANT)
    with memoized_oracles():
        for action in actions:
            assert interpret_action(model, action) == _gen.ref_action_pairs(model, action)
        assert [[(p.sign, p.verdict) for p in ps] for ps in report.per_state] == (
            reference_verdicts(model, lexicon)
        )


# --- atom bitsets and the documented defaults ---------------------------------------------


def _reference_atom_value(model: UtteranceModel, cells: dict, state: int,
                          atom: Atom) -> ThreeVal:
    """`atom_value` read state by state from `cells`, a dict of the listed
    `(state, atom)` cells, and the model's observation records, as it was
    before the per-atom bitsets."""
    if not (0 <= state < model.state_count):
        raise UnknownState(f"state {state} outside 0..{model.state_count - 1}")
    listed = cells.get((state, atom))
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


ATOMS: tuple[Atom, ...] = (
    RelDir(R, Direction.E, L),
    RelDir(L, Direction.NW, R),
    Touch(R, L),
    Touch(L, R),
    At(R, "FACE"),
    At(L, "HEAD"),
    Config(R, "CLAMP"),
    Config(L, "FLAT"),
    Config(R, "FIST"),  # a label no state sees
    Orient(R, Direction.N),
    Touch(D, W),
    At(W, "FACE"),
    Config(D, "CLAMP"),
)
LABELS = (None, "CLAMP", "FLAT")


def gen_partial_model(rng: random.Random) -> tuple[UtteranceModel, dict]:
    """A model with about a third of the cells listed, and the dict of
    those cells; `observed` and `configs` cover a random prefix of the
    states, with hands missing, null labels and labels that differ from
    the atoms'."""
    n = rng.randint(1, 40)
    relation = frozenset((s, rng.randrange(n)) for s in range(n))
    valuation = {
        (s, atom): rng.choice((T, F, U))
        for s in range(n)
        for atom in ATOMS
        if rng.random() < 0.3
    }
    observed = tuple(
        frozenset(h for h in (R, L) if rng.random() < 0.6) for _ in range(rng.randint(0, n))
    )
    configs = tuple(
        {h: rng.choice(LABELS) for h in (R, L) if rng.random() < 0.8}
        for _ in range(rng.randint(0, n))
    )
    model = UtteranceModel(
        state_count=n,
        relation=relation,
        action_interp={},
        valuation=valuation,
        observed=observed,
        config_observed=configs,
    )
    return model, valuation


def _random_overrides(rng: random.Random, model: UtteranceModel, count: int) -> list[Override]:
    return [
        Override(rng.randrange(model.state_count), rng.choice(ATOMS), rng.choice((T, F, U)))
        for _ in range(count)
    ]


def _overridden(cells: dict, overrides: list[Override], handedness: Handedness) -> dict:
    """`cells` with each override set in turn, so a later one wins."""
    cells = dict(cells)
    for ov in overrides:
        cells[ov.state, ground_atom(ov.atom, handedness)] = ov.value
    return cells


def _assert_documented_bits(model: UtteranceModel, cells: dict) -> None:
    for atom in ATOMS:
        expected = [_reference_atom_value(model, cells, s, atom) for s in model.states()]
        lo = sum(1 << s for s, v in enumerate(expected) if v is T)
        hi = sum(1 << s for s, v in enumerate(expected) if v is not F)
        assert Labeler(model).atom(atom) == (lo, hi), atom
        if contains_alias(AtomF(atom)):
            with pytest.raises(UngroundedFormula):  # atom_value takes grounded atoms only
                atom_value(model, 0, atom)
        else:
            assert [atom_value(model, s, atom) for s in model.states()] == expected, atom


@settings(SEEDS, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_atom_bitsets_follow_the_documented_defaults(seed):
    rng = random.Random(seed)
    model, cells = gen_partial_model(rng)
    if rng.random() < 0.5:
        overrides = _random_overrides(rng, model, rng.randint(1, 8))
        handedness = rng.choice(tuple(Handedness))
        model = apply_overrides(model, overrides, handedness)
        cells = _overridden(cells, overrides, handedness)
    _assert_documented_bits(model, cells)


def _document_cells(doc: dict) -> dict:
    """The cells of a model document's rows, the first row of a cell
    holding, as a plain dict."""
    cells: dict = {}
    for row in doc["valuation"]:
        cells.setdefault((row["state"], parse_atom(row["atom"])), ThreeVal(row["value"]))
    return cells


@pytest.mark.parametrize("seed", range(12))
def test_model_files_read_into_the_documented_bitsets(seed):
    rng = random.Random(f"model file bitsets:{seed}")
    doc = _gen.gen_model_doc(rng, 30, 400)
    model = model_from_json(doc)
    cells = _document_cells(doc)
    assert dict(model.valuation) == cells and len(model.valuation) == len(cells)
    _assert_documented_bits(model, cells)

    listed = dict(model.valuation.listed)
    bits = {atom: Labeler(model).atom(atom) for atom in ATOMS}
    handedness = rng.choice(tuple(Handedness))
    for _ in range(2):  # a second patch of the same model sees none of the first
        overrides = _random_overrides(rng, model, rng.randint(1, 40))
        patched = apply_overrides(model, overrides, handedness)
        expected = _overridden(cells, overrides, handedness)
        assert patched == model._replace(valuation=expected)
        _assert_documented_bits(patched, expected)
        assert dict(model.valuation) == cells and model.valuation.listed == listed
        assert {atom: Labeler(model).atom(atom) for atom in ATOMS} == bits


@pytest.mark.parametrize("seed", range(6))
def test_copied_models_label_atoms_as_the_original(seed):
    model = model_from_json(_gen.gen_model_doc(random.Random(f"copied model:{seed}"), 1, 60))

    def labels(m):
        return [Labeler(m, None, h).formula(AtomF(atom)) for h in Handedness for atom in ATOMS]

    expected = labels(model)
    for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model), model._replace()):
        assert copied == model
        assert labels(copied) == expected


def test_atom_value_keeps_its_errors():
    model = chain(3)
    with pytest.raises(UnknownState):
        atom_value(model, 3, Touch(R, L))
    with pytest.raises(TypeError):
        atom_value(model, 0, AtomF(Touch(R, L)))


@pytest.mark.parametrize("formula, action", [
    (Touch(R, L), Thrill(R)), (Atomic(Thrill(R)), AtomF(Touch(R, L))), (None, None),
])
def test_a_non_node_is_a_type_error(formula, action):
    labeler = Labeler(chain(3))
    for call in (lambda: labeler.formula(formula), lambda: print_formula(formula),
                 lambda: labeler.pre(action, 0b111), lambda: print_action(action),
                 lambda: labeler.atom(action)):
        with pytest.raises(TypeError):
            call()


# --- labeling as parsed -------------------------------------------------------------

ALIASED_ACTIONS = (Move(D, Direction.E), Thrill(W))


def anded(labeler: Labeler, formulas) -> tuple[int, int]:
    """The AND of the labels of the formulas."""
    lo = hi = labeler.full
    for formula in formulas:
        f_lo, f_hi = labeler.formula(formula)
        lo, hi = lo & f_lo, hi & f_hi
    return lo, hi


@settings(SEEDS, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_labeling_as_parsed_equals_labeling_the_grounded_tree(seed):
    """A labeler given the signer grounds only leaves, and labels a formula
    as the handless labeler labels the formula `ground` makes, and the AND
    of the labels of its anchor atoms (`check._anchors`) is the AND of the
    labels of the grounded formula's anchor atoms."""
    rng = random.Random(seed)
    atoms, actions = _gen.ATOM_POOL + _gen.ALIASED_ATOMS, _gen.ACTION_POOL + ALIASED_ACTIONS
    valued = tuple({ground_atom(a, h): None for a in atoms for h in Handedness})
    moved = tuple({ground_atom(a, h): None for a in actions for h in Handedness})
    model = _gen.gen_model(rng, 8, valued, moved, allow_unknown=True)
    formulas = [_gen.gen_formula(rng, 4, atoms, actions) for _ in range(6)]
    formulas += [implies(And(AtomF(rng.choice(atoms)), first), second)
                 for first, second in zip(formulas, formulas[1:])]
    for handedness in Handedness:
        parsed, grounded = Labeler(model, None, handedness), Labeler(model)
        for formula in formulas:
            tree = ground(formula, handedness)
            assert parsed.formula(formula) == grounded.formula(tree)
            assert (anded(parsed, _anchors(formula, []))
                    == anded(grounded, map(AtomF, anchor_atoms(tree))))


# --- 64-bit word boundaries ---------------------------------------------------------

MOVE_E, MOVE_LE = Move(R, Direction.E), Move(L, Direction.E)
# Under `&` the superset, move(R,E), is the left operand, so an `&` that read
# only its left operand would give move(R,E)'s labels.
MODALITIES = ("<move(R,E)*>", "[move(R,E)*]", "<(move(R,E) ; move(R,E))*>",
              "[move(R,E) & move(R,E)]", "[move(R,E) & move(L,E)]", "<move(R,E) & move(L,E)>")
BOUNDARY_SIGNS = "".join(f"sign S{i} := {sign} .\n" for i, sign in enumerate(
    f"{modality} {body}" for body in ("touch(R,L)", "!touch(R,L)") for modality in MODALITIES))
KLEENE_ORDER = {F: 0, U: 1, T: 2}


def boundary_model(shape: str, n: int) -> tuple[UtteranceModel, dict[int, ThreeVal]]:
    """A move(R,E) chain of n states, with an unlabeled final self-loop, or
    a move(R,E) cycle of n states, and the value of touch(R,L) at each
    state. Seeded: it is listed True at up to three states, one in the
    upper half, and Unknown at n // 16 others; as many more do not observe
    L, so it is Unknown there too, and it is False everywhere else. A
    seeded third to two thirds of the move(R,E) edges are move(L,E) edges
    too."""
    rng = random.Random(2 * n + (shape == "cycle"))
    edges = frozenset((s, s + 1) for s in range(n - 1))
    edges, loop = (edges | {(n - 1, 0)}, set()) if shape == "cycle" else (edges, {(n - 1, n - 1)})
    true = {rng.randrange(n // 2, n), *rng.sample(range(n), 2)}
    unknown = rng.sample(sorted(set(range(n)) - true), 2 * (n // 16))
    listed = [(s, T) for s in true] + [(s, U) for s in unknown[::2]]
    left = sorted(edges)
    left = frozenset(rng.sample(left, rng.randrange(len(left) // 3, 2 * len(left) // 3)))
    model = UtteranceModel(
        state_count=n,
        relation=edges | loop,
        action_interp={MOVE_E: edges, MOVE_LE: left},
        valuation={(s, Touch(R, L)): value for s, value in listed},
        observed=tuple(frozenset({R} if s in unknown[1::2] else {R, L}) for s in range(n)),
    )
    return model, {s: T if s in true else U if s in unknown else F for s in range(n)}


def bfs_successors(edges: dict[Move, dict[int, set[int]]], action, s: int) -> set[int]:
    """The states that `action` leads to from `s` over `edges`, the
    successors of each state under each atomic action; a star is a
    breadth-first search from `s`."""
    kind = type(action)
    if kind is Atomic:
        return edges[action.action].get(s, set())
    if kind is Seq:
        return {u for t in bfs_successors(edges, action.left, s)
                for u in bfs_successors(edges, action.right, t)}
    if kind is Concurrent:
        return bfs_successors(edges, action.left, s) & bfs_successors(edges, action.right, s)
    assert kind is Star
    seen, queue = {s}, deque([s])
    while queue:
        for t in bfs_successors(edges, action.body, queue.popleft()) - seen:
            seen.add(t)
            queue.append(t)
    return seen


def bfs_value(edges: dict[Move, dict[int, set[int]]], touch: dict[int, ThreeVal], formula, s: int):
    """The strong Kleene value at `s` of a formula over touch(R,L)."""
    kind = type(formula)
    if kind is AtomF:
        assert formula.atom == Touch(R, L)
        return touch[s]
    if kind is Not:
        return {T: F, U: U, F: T}[bfs_value(edges, touch, formula.body, s)]
    assert kind is Box
    values = [bfs_value(edges, touch, formula.body, t)
              for t in bfs_successors(edges, formula.action, s)]
    return min(values, key=KLEENE_ORDER.get, default=T)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("shape", ["chain", "cycle"])
def test_labels_match_a_breadth_first_reference_at_word_boundaries(shape, n):
    """The labeler's bitsets hold 64 states a word. On chains and cycles
    one state shorter than, as long as and one state longer than one and
    two words, `verify` for both signers, and `eval_formula` at the states
    next to each word boundary and at seeded others, give what a
    breadth-first search over Python sets gives."""
    model, touch = boundary_model(shape, n)
    lexicon = parse_lexicon(BOUNDARY_SIGNS)
    # With no anchor atoms, a sign matches where it is True and is possible where Unknown.
    assert not any(anchor_atoms(entry.formula) for entry in lexicon.entries)
    edges: dict[Move, dict[int, set[int]]] = {}
    for action, pairs in model.action_interp.items():
        for s, t in pairs:
            edges.setdefault(action, {}).setdefault(s, set()).add(t)
    values = {entry.name: [bfs_value(edges, touch, entry.formula, s) for s in range(n)]
              for entry in lexicon.entries}
    expected = [[(name, verdict) for verdict, value in (("match", T), ("possible", U))
                 for name in values if values[name][s] is value] for s in range(n)]
    for handedness in Handedness:
        report = verify(model, lexicon, handedness)
        assert [[(p.sign, p.verdict) for p in ps] for ps in report.per_state] == expected
    sampled = {0, 62, 63, 64, 65, 126, 127, 128, n - 1, *random.Random(n).sample(range(n), 5)}
    for entry in lexicon.entries:
        for s in sorted(sampled & set(range(n))):
            assert eval_formula(model, s, entry.formula) is values[entry.name][s], (entry.name, s)
