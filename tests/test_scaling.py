"""The labeler against the scaling breadth-first reference of `_gen`.

The reference is first checked against the matrix oracle on the seeded
20-60 state models of `test_oracle`. Then `verify`, for both signers, and
`eval_formula` at sampled states are compared with it on seeded models of
63-65, 127-129, 1,000 and 5,000 states, in the shapes where the labeler's
`<α>` takes different paths: chains with self-loops (the edge offsets 0 and
1 that extraction writes), backward edges (negative offsets), bands of
offsets -3..3, random sparse relations (about as many offsets as edges, so
that `pre` ORs predecessor rows) and many small cycles. The signs put few
and many states under `pre`, and `&` joins two actions whose offset sets
differ. Chains of one edge offset (+1, -1 and +2, and +1 with one
self-loop) whose only touch is at the far end make the stars closed by
doubling take long strides and negative shifts. Every model leaves cells
unlisted, at states that miss a hand or see another hand shape, so the
documented defaults are compared at every size too.
"""

import random

import pytest
from hypothesis import given, strategies as st

from pdlsl import (
    At,
    Atomic,
    Articulator,
    Concurrent,
    Config,
    Direction,
    Handedness,
    Move,
    Orient,
    Star,
    ThreeVal,
    Touch,
    UtteranceModel,
    eval_formula,
    ground,
    interpret_action,
    parse_lexicon,
    verify,
)

import _gen
from test_oracle import SEEDS, gen_large_model, gen_sign, memoized_oracles

R, L = Articulator.RIGHT, Articulator.LEFT
T, F, U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNKNOWN
MOVE_R, MOVE_L = Move(R, Direction.E), Move(L, Direction.E)
A, B = Atomic(MOVE_R), Atomic(MOVE_L)
TOUCHES, PLACES = (Touch(R, L), Touch(L, R)), (At(R, "FACE"), At(L, "FACE"))


@SEEDS
@given(st.integers(0, 2**32 - 1))
def test_the_bfs_reference_matches_the_matrix_oracle(seed):
    rng = random.Random(seed)
    model = gen_large_model(rng)
    n = model.state_count
    cells = {(s, atom): model.valuation[s, atom] for s in range(n) for atom in _gen.ATOM_POOL}
    preds = _gen.bfs_predecessors(model.action_interp)
    with memoized_oracles():
        for _ in range(4):
            formula = gen_sign(rng)
            expected = [_gen._CODE[_gen.ref_eval_three(model, s, formula)] for s in range(n)]
            assert _gen.bfs_values(preds, cells, n, formula) == expected
            action = _gen.gen_action(rng, 3)
            assert _gen.bfs_pairs(preds, n, action) == _gen.ref_action_pairs(model, action)


SIGNS = """format: 1
sign FEW := <move(R,E)> touch(R,L) .
sign MANY := [move(R,E)] touch(R,L) .
sign REACH := <move(R,E)*> touch(R,L) .
sign STAY := [move(L,E)*] at(R,FACE) .
sign STEPS := <(move(R,E) ; move(L,E))*> touch(R,L) .
sign BOTH := [move(R,E) & move(L,E)] touch(R,L) .
sign BOTH_SOME := <move(L,E) & move(R,E)> at(R,FACE) .
sign EITHER := [(move(R,E) | move(L,E))*] !touch(R,L) .
sign DOMINANT := at(D,FACE) -> [move(D,E)*] (at(W,FACE) \\/ !touch(D,W)) .
sign SHAPE := cfg(D,CLAMP) /\\ !cfg(W,FLAT) -> <move(D,E)> (orient(D,N) \\/ dir(R,L,E)) .
"""
# Stars under a star or under `&` cost the reference a search per state,
# so they run on the smaller models only.
SMALL_SIGNS = """sign NESTED := [(move(R,E)* ; move(L,E))*] at(R,FACE) .
sign STAR_BOTH := <move(R,E)* & move(L,E)> touch(R,L) .
"""


def shaped_edges(shape: str, n: int, rng: random.Random) -> tuple[set, set]:
    """The edges of move(R,E) and of move(L,E) in one of the shapes."""
    if shape == "chain":  # offsets 1 and 0, as extraction writes
        right = {(s, s + 1) for s in range(n - 1)}
        right |= {(s, s) for s in range(n) if rng.random() < 0.3}
        left = {(s, s) for s in range(n) if rng.random() < 0.5}
        left |= {(s, s + 1) for s in range(n - 1) if rng.random() < 0.3}
    elif shape == "backward":  # negative offsets
        right = {(s, s + 1) for s in range(n - 1)}
        right |= {(s, s - 2) for s in range(2, n) if rng.random() < 0.2}
        left = {(s, s - 1) for s in range(1, n) if rng.random() < 0.7}
        left |= {(s, s - 2) for s in range(2, n) if rng.random() < 0.2}
    elif shape == "band":  # every offset of -3..3
        right = {(s, s + d) for s in range(n) for d in range(-3, 4)
                 if 0 <= s + d < n and rng.random() < 0.25}
        left = {p for p in right if rng.random() < 0.5}
        left |= {(s, s + 4) for s in range(n - 4) if rng.random() < 0.2}
    elif shape == "sparse":  # about as many offsets as edges
        right = {(s, rng.randrange(n)) for s in range(n) if rng.random() < 0.8}
        left = {p for p in right if rng.random() < 0.4}
        left |= {(s, rng.randrange(n)) for s in range(n) if rng.random() < 0.5}
    else:  # cycles of 2-6 states, forward steps and one back edge each
        assert shape == "cycles"
        right, start = set(), 0
        while start < n:
            cycle = list(range(start, min(start + rng.randint(2, 6), n)))
            right |= set(zip(cycle, cycle[1:] + cycle[:1]))
            start = cycle[-1] + 1
        left = {p for p in right if rng.random() < 0.6}
        left |= {(s, s) for s in range(n) if rng.random() < 0.2}
    return right, left


def partly_observed(rng: random.Random, n: int, listed: dict, kept=()) -> _gen.BfsCells:
    """The cells with about a tenth of those not of the `kept` atoms
    unlisted, and seeded records of observation: each hand unobserved at
    about a tenth of the states and each hand's label CLAMP, FLAT or none,
    where the last n // 64 states have no record of either."""
    cells = {key: value for key, value in listed.items() if key[1] in kept or rng.random() >= 0.1}
    observed = tuple(frozenset(h for h in (R, L) if rng.random() < 0.9) for _ in range(n - n // 64))
    configs = tuple({h: rng.choice((None, "CLAMP", "FLAT")) for h in (R, L)} for _ in observed)
    return _gen.BfsCells(cells, observed, configs)


def model_of(n: int, relation, edges: dict, cells: _gen.BfsCells) -> UtteranceModel:
    return UtteranceModel(state_count=n, relation=relation, action_interp=edges,
                          valuation=dict(cells), observed=cells.observed,
                          config_observed=cells.configs)


def shaped_model(shape: str, n: int) -> tuple[UtteranceModel, dict, dict]:
    """A seeded model of the shape, with the cells and edges it was made
    from as plain data. touch is mostly False and at(…,FACE) mostly True,
    each with some Unknown cells, so that a label and its complement hold
    few states; cfg(R,CLAMP) is listed True and orient(R,N) True or False
    at about one state in fifty. The cells are `partly_observed`, and the
    relation adds a self-loop at each state that no action leaves."""
    rng = random.Random(f"{shape}:{n}")
    right, left = shaped_edges(shape, n, rng)
    edges = {MOVE_R: frozenset(right), MOVE_L: frozenset(left)}
    sources = {s for s, _ in right | left}
    relation = frozenset(right | left | {(s, s) for s in range(n) if s not in sources})
    cells = {}
    for s in range(n):
        for atom in TOUCHES:
            cells[s, atom] = rng.choices((T, U, F), (2, 3, 95))[0]
        for atom in PLACES:
            cells[s, atom] = rng.choices((F, U, T), (3, 3, 94))[0]
    cells[rng.randrange(n // 2, n), Touch(R, L)] = T
    for s in rng.sample(range(n), n // 50):
        cells[s, Config(R, "CLAMP")] = T
        cells[s, Orient(R, Direction.N)] = rng.choice((T, F))
    cells = partly_observed(rng, n, cells)
    return model_of(n, relation, edges, cells), cells, edges


SHAPES = ("chain", "backward", "band", "sparse", "cycles")


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 1000, 5000])
@pytest.mark.parametrize("shape", SHAPES)
def test_labels_match_the_bfs_reference(shape, n):
    model, cells, edges = shaped_model(shape, n)
    preds = _gen.bfs_predecessors(edges)
    lexicon = parse_lexicon(SIGNS + (SMALL_SIGNS if n < 1000 else ""))
    for handedness in Handedness:
        report = verify(model, lexicon, handedness)
        got = [[(p.sign, p.verdict) for p in ps] for ps in report.per_state]
        assert got == _gen.bfs_verdicts(preds, cells, n, lexicon, handedness), handedness
    sampled = {0, 63, 64, n // 2, n - 1, *random.Random(n).sample(range(n), 2)} & set(range(n))
    for entry in lexicon.entries[:4] + lexicon.entries[-3:]:
        formula = ground(entry.formula, Handedness.RIGHT_DOMINANT)
        values = _gen.bfs_values(preds, cells, n, formula)
        for s in sorted(sampled):
            assert _gen._CODE[eval_formula(model, s, formula)] == values[s], (entry.name, s)
    actions = [A, Concurrent(A, B), Concurrent(B, A)]
    for action in actions + ([Concurrent(Star(A), B)] if n < 1000 else []):
        assert interpret_action(model, action) == _gen.bfs_pairs(preds, n, action)


# One edge offset per action: the shape whose stars are closed by doubling.
ONE_OFFSET = {"+1": 1, "-1": -1, "+2": 2, "self-loop": 1}
TOGETHER = "sign TOGETHER := <(move(R,E) & move(L,E))*> touch(R,L) .\n"


def one_offset_model(shape: str, n: int) -> tuple[UtteranceModel, dict, dict]:
    """A chain of one edge offset d whose only touch(R,L) is at its far
    end, n - 1 or, for d = -1, 0. move(R,E) relates every s to s + d, and
    move(L,E) the same edges less about a tenth, so that its stars and
    those of `&` stop at gaps. "self-loop" adds a self-loop at one
    middle state to move(R,E), which then has two offsets. The at(…,FACE)
    cells are `partly_observed`; every touch cell is listed."""
    rng, d = random.Random(f"{shape}:{n}"), ONE_OFFSET[shape]
    right = {(s, s + d) for s in range(n) if 0 <= s + d < n}
    left = {p for p in right if rng.random() < 0.9}
    if shape == "self-loop":
        right.add((n // 2, n // 2))
    edges = {MOVE_R: frozenset(right), MOVE_L: frozenset(left)}
    sources = {s for s, _ in right}
    relation = frozenset(right | {(s, s) for s in range(n) if s not in sources})
    far = 0 if d < 0 else n - 1
    cells = {}
    for s in range(n):
        for atom in TOUCHES:
            cells[s, atom] = T if (s, atom) == (far, Touch(R, L)) else F
        for atom in PLACES:
            cells[s, atom] = rng.choices((F, U, T), (3, 3, 94))[0]
    cells = partly_observed(rng, n, cells, kept=TOUCHES)
    return model_of(n, relation, edges, cells), cells, edges


@pytest.mark.parametrize("n", [63, 64, 65, 129, 1000, 5000])
@pytest.mark.parametrize("shape", ONE_OFFSET)
def test_one_offset_stars_match_the_bfs_reference(shape, n):
    model, cells, edges = one_offset_model(shape, n)
    preds = _gen.bfs_predecessors(edges)
    lexicon = parse_lexicon(SIGNS + TOGETHER)
    for handedness in Handedness:
        report = verify(model, lexicon, handedness)
        got = [[(p.sign, p.verdict) for p in ps] for ps in report.per_state]
        assert got == _gen.bfs_verdicts(preds, cells, n, lexicon, handedness), handedness
    if n < 1000:  # a star relates about n²/2 pairs
        for action in (Star(A), Star(B), Star(Concurrent(A, B))):
            assert interpret_action(model, action) == _gen.bfs_pairs(preds, n, action)
