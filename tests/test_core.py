import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from pdlsl import (
    TOP,
    AliasCollision,
    And,
    Articulator,
    At,
    AtomF,
    Atomic,
    Box,
    Choice,
    Concurrent,
    Config,
    Direction,
    Handedness,
    Move,
    Not,
    Orient,
    RelDir,
    Seq,
    Star,
    Thrill,
    Touch,
    contains_alias,
    ground,
    implies,
    mirror_direction,
    or_,
    resolve_articulator,
    resolve_direction,
)
from pdlsl import core

D, W, R, L = Articulator.DOMINANT, Articulator.WEAK, Articulator.RIGHT, Articulator.LEFT
RIGHT_DOM, LEFT_DOM = Handedness.RIGHT_DOMINANT, Handedness.LEFT_DOMINANT


# --- direction table ----------------------------------------------------------


def test_eight_unit_directions_45_degrees_apart():
    dirs = list(Direction)
    assert len(dirs) == 8
    for d in dirs:
        x, y = d.unit
        assert math.isclose(math.hypot(x, y), 1.0)
    for a, b in zip(dirs, dirs[1:] + dirs[:1]):
        dot = a.unit[0] * b.unit[0] + a.unit[1] * b.unit[1]
        assert math.isclose(math.degrees(math.acos(dot)), 45.0, abs_tol=1e-9)


@pytest.mark.parametrize(
    "direction,expected",
    [
        (Direction.N, Direction.N),
        (Direction.NE, Direction.NW),
        (Direction.E, Direction.W),
        (Direction.SE, Direction.SW),
        (Direction.S, Direction.S),
        (Direction.SW, Direction.SE),
        (Direction.W, Direction.E),
        (Direction.NW, Direction.NE),
    ],
)
def test_mirror_examples(direction, expected):
    assert mirror_direction(direction) is expected


def test_mirror_is_involutive():
    for d in Direction:
        assert mirror_direction(mirror_direction(d)) is d


@pytest.mark.parametrize(
    "direction,handedness,expected",
    [
        (Direction.E, RIGHT_DOM, Direction.E),
        (Direction.E, LEFT_DOM, Direction.W),
        (Direction.S, LEFT_DOM, Direction.S),
    ],
)
def test_resolve_direction_examples(direction, handedness, expected):
    assert resolve_direction(direction, handedness) is expected


def test_resolve_direction_identity_when_right_dominant():
    for d in Direction:
        assert resolve_direction(d, RIGHT_DOM) is d


# --- articulator aliasing -------------------------------------------------------


@pytest.mark.parametrize(
    "articulator,handedness,expected",
    [
        (D, RIGHT_DOM, R),
        (W, LEFT_DOM, R),
        (L, RIGHT_DOM, L),
        (D, LEFT_DOM, L),
        (W, RIGHT_DOM, L),
        (R, LEFT_DOM, R),
    ],
)
def test_resolve_articulator(articulator, handedness, expected):
    assert resolve_articulator(articulator, handedness) is expected


# --- atom invariants -------------------------------------------------------------


def test_rel_dir_rejects_equal_articulators():
    with pytest.raises(ValueError):
        RelDir(R, Direction.E, R)


def test_touch_rejects_equal_articulators():
    with pytest.raises(ValueError):
        Touch(L, L)


@pytest.mark.parametrize("leaf, hands", [
    (RelDir(W, Direction.E, R), (W, R)),
    (At(D, "FACE"), (D,)),
    (Touch(L, D), (L, D)),
    (Config(W, "CLAMP"), (W,)),
    (Orient(R, Direction.N), (R,)),
    (Move(L, Direction.S), (L,)),
    (Thrill(D), (D,)),
])
def test_articulators_in_argument_order(leaf, hands):
    assert core.articulators(leaf) == hands


@pytest.mark.parametrize("node", [
    Atomic(Thrill(R)),
    Seq(Atomic(Thrill(R)), Atomic(Move(L, Direction.E))),
    Star(Atomic(Thrill(R))),
])
def test_articulators_refuses_a_composite_action(node):
    with pytest.raises(TypeError):
        core.articulators(node)


# --- desugaring -------------------------------------------------------------------


def test_sugar_expansions():
    a, b = AtomF(Touch(R, L)), AtomF(At(R, "FACE"))
    assert implies(a, b) == Not(And(a, Not(b)))
    assert or_(a, b) == Not(And(Not(a), Not(b)))
    action = Atomic(Move(R, Direction.E))
    assert Not(Box(action, Not(a))) == __import__("pdlsl").diamond(action, a)


# --- grounding ---------------------------------------------------------------------


def test_ground_examples():
    assert ground(Box(Atomic(Move(D, Direction.E)), TOP), LEFT_DOM) == Box(
        Atomic(Move(L, Direction.W)), TOP
    )
    concrete = AtomF(Touch(R, L))
    assert ground(concrete, RIGHT_DOM) == concrete
    assert ground(concrete, LEFT_DOM) == concrete
    assert ground(AtomF(RelDir(W, Direction.NE, D)), RIGHT_DOM) == AtomF(
        RelDir(L, Direction.NE, R)
    )


def test_ground_mirrors_direction_only_next_to_aliases():
    # A concrete-hand atom keeps its direction even for a left-dominant signer.
    assert ground(AtomF(RelDir(R, Direction.E, L)), LEFT_DOM) == AtomF(RelDir(R, Direction.E, L))
    assert ground(AtomF(Orient(D, Direction.E)), LEFT_DOM) == AtomF(Orient(L, Direction.W))
    assert ground(AtomF(Orient(R, Direction.E)), LEFT_DOM) == AtomF(Orient(R, Direction.E))


def test_ground_rejects_alias_collision():
    degenerate = AtomF(Touch(D, R))
    with pytest.raises(AliasCollision):
        ground(degenerate, RIGHT_DOM)
    # Under the other handedness the same atom grounds fine.
    assert ground(degenerate, LEFT_DOM) == AtomF(Touch(L, R))


# Hypothesis strategies over full formula trees. Pairwise atoms draw from
# pairs that stay distinct under both handedness values.

articulators = st.sampled_from(list(Articulator))
directions = st.sampled_from(list(Direction))
names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)

safe_pairs = st.sampled_from([(D, W), (W, D), (R, L), (L, R)])

atoms = st.one_of(
    st.builds(lambda pair, d: RelDir(pair[0], d, pair[1]), safe_pairs, directions),
    st.builds(At, articulators, names),
    st.builds(lambda pair: Touch(pair[0], pair[1]), safe_pairs),
    st.builds(Config, articulators, names),
    st.builds(Orient, articulators, directions),
)

atomic_actions = st.one_of(
    st.builds(Move, articulators, directions), st.builds(Thrill, articulators)
)

actions = st.recursive(
    st.builds(Atomic, atomic_actions),
    lambda sub: st.one_of(
        st.builds(Concurrent, sub, sub),
        st.builds(Choice, sub, sub),
        st.builds(Seq, sub, sub),
        st.builds(Star, sub),
    ),
    max_leaves=6,
)

formulas = st.recursive(
    st.one_of(st.just(TOP), st.builds(AtomF, atoms)),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Box, actions, sub),
    ),
    max_leaves=10,
)


def _shape(formula):
    match formula:
        case And(l, r):
            return ("and", _shape(l), _shape(r))
        case Not(b):
            return ("not", _shape(b))
        case Box(a, b):
            return ("box", _action_shape(a), _shape(b))
        case _:
            return ("leaf",)


def _action_shape(action):
    match action:
        case Concurrent(l, r):
            return ("cap", _action_shape(l), _action_shape(r))
        case Choice(l, r):
            return ("cup", _action_shape(l), _action_shape(r))
        case Seq(l, r):
            return ("seq", _action_shape(l), _action_shape(r))
        case Star(b):
            return ("star", _action_shape(b))
        case _:
            return ("leaf",)


@given(formulas, st.sampled_from(list(Handedness)))
def test_ground_is_idempotent_and_shape_preserving(formula, handedness):
    once = ground(formula, handedness)
    assert ground(once, handedness) == once
    assert not contains_alias(once)
    assert _shape(once) == _shape(formula)


# Pairs that a signer of one handedness sees as one hand, as touch(D,R) is
# for a right-dominant signer.
colliding_pairs = st.sampled_from([(D, R), (R, D), (W, L), (L, W), (D, L), (W, R)])

formulas_with_collisions = st.recursive(
    st.one_of(
        st.just(TOP),
        st.builds(AtomF, atoms),
        st.builds(lambda pair, d: AtomF(RelDir(pair[0], d, pair[1])), colliding_pairs, directions),
        st.builds(lambda pair: AtomF(Touch(*pair)), colliding_pairs),
    ),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Box, actions, sub),
    ),
    max_leaves=10,
)


def _leaves(node):
    """Every atom and atomic action under a formula or action node."""
    match node:
        case AtomF(leaf) | Atomic(leaf):
            yield leaf
        case Not(body) | Star(body):
            yield from _leaves(body)
        case And(l, r) | Box(l, r) | Concurrent(l, r) | Choice(l, r) | Seq(l, r):
            yield from _leaves(l)
            yield from _leaves(r)


def _hands(leaf):
    return [getattr(leaf, f.name) for f in fields(leaf)
            if isinstance(getattr(leaf, f.name), Articulator)]


HAND_OF = {RIGHT_DOM: {D: R, W: L}, LEFT_DOM: {D: L, W: R}}


@settings(max_examples=300, derandomize=True)
@given(formulas_with_collisions, st.sampled_from(list(Handedness)))
def test_contains_alias_and_collisions_follow_the_leaves(formula, handedness):
    leaves = list(_leaves(formula))
    names_alias = any(hand in (D, W) for leaf in leaves for hand in _hands(leaf))
    assert contains_alias(formula) is names_alias
    hand_of = HAND_OF[handedness]
    collides = any(
        len(hands) == 2 and hand_of.get(hands[0], hands[0]) is hand_of.get(hands[1], hands[1])
        for hands in map(_hands, leaves)
    )
    assert not collides or names_alias
    if collides:
        with pytest.raises(AliasCollision):
            ground(formula, handedness)
    else:
        ground(formula, handedness)
