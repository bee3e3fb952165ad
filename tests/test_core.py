import copy
import math
import os
import pickle
import random
import subprocess
import sys

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
    Top,
    Touch,
    contains_alias,
    diamond,
    ground,
    implies,
    mirror_direction,
    or_,
    parse_formula,
    parse_lexicon,
    print_formula,
    resolve_articulator,
    resolve_direction,
)
from pdlsl import Rect, SourceSpan, core

import _gen
from conftest import bench_gen

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


def _node_types(base=core._Node):
    for node_type in base.__subclasses__():
        yield node_type
        yield from _node_types(node_type)


def _interned():
    """How many nodes the node types' tables hold."""
    return sum(len(node_type._interned) for node_type in _node_types())


def test_rel_dir_rejects_equal_articulators():
    before = _interned()
    with pytest.raises(ValueError):
        RelDir(R, Direction.E, R)
    with pytest.raises(ValueError):
        RelDir(subject=L, anchor=L, direction=Direction.E)
    assert _interned() == before


def test_touch_rejects_equal_articulators():
    before = _interned()
    with pytest.raises(ValueError):
        Touch(L, L)
    assert _interned() == before


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
    # The leaf class's own fields, not `core.LEAF_FIELDS`, which this test checks.
    return [value for value in map(leaf.__getattribute__, leaf.__match_args__)
            if isinstance(value, Articulator)]


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


MIRROR_OF = {Direction.N: Direction.N, Direction.NE: Direction.NW, Direction.E: Direction.W,
             Direction.SE: Direction.SW, Direction.S: Direction.S, Direction.SW: Direction.SE,
             Direction.W: Direction.E, Direction.NW: Direction.NE}


def _grounded_by_type(leaf, handedness):
    """Grounding spelled out for each leaf type: the grounded leaf, or the
    text of the `AliasCollision` it raises."""
    hand_of = HAND_OF[handedness]

    def hand(b):
        return hand_of.get(b, b)

    def turn(d, *hands):
        # Written for a right-dominant signer, mirrored only next to an alias.
        mirrored = handedness is LEFT_DOM and any(h in (D, W) for h in hands)
        return MIRROR_OF[d] if mirrored else d

    def same_hand(b1, b2):
        if hand(b1) is hand(b2):
            return f"{b1} and {b2} are the same hand for a {handedness.value}-dominant signer"
        return None

    match leaf:
        case RelDir(s, d, a):
            return same_hand(s, a) or RelDir(hand(s), turn(d, s, a), hand(a))
        case Touch(a, b):
            return same_hand(a, b) or Touch(hand(a), hand(b))
        case At(b, place):
            return At(hand(b), place)
        case Config(b, label):
            return Config(hand(b), label)
        case Orient(b, d):
            return Orient(hand(b), turn(d, b))
        case Move(b, d):
            return Move(hand(b), turn(d, b))
        case Thrill(b):
            return Thrill(hand(b))
    raise AssertionError(f"no reference for {leaf!r}")


def _every_leaf(leaf_type):
    """Every leaf of the type: each hand in each articulator field and each
    direction, with one place or label."""
    choices = {"direction": list(Direction), "place": ["FACE"], "label": ["CLAMP"]}
    leaves = [()]
    for name in leaf_type.__match_args__:
        leaves = [(*done, value) for done in leaves
                  for value in choices.get(name, list(Articulator))]
    for values in leaves:
        try:
            yield leaf_type(*values)
        except ValueError:  # the same hand twice in a two-hand leaf
            pass


@pytest.mark.parametrize("handedness", list(Handedness))
@pytest.mark.parametrize("leaf_type", list(core.LEAF_FIELDS), ids=lambda t: t.__name__)
def test_ground_follows_the_per_type_reference(leaf_type, handedness):
    wrap = Atomic if leaf_type in (Move, Thrill) else AtomF
    # Each way to ground a leaf, with how it wraps the grounded leaf.
    ways = [(lambda leaf: ground(wrap(leaf), handedness), wrap),
            (lambda leaf: core.ground_atom(leaf, handedness), lambda leaf: leaf)]
    leaves = list(_every_leaf(leaf_type))
    assert leaves
    for leaf in leaves:
        expected = _grounded_by_type(leaf, handedness)
        for grounded, wrapped in ways:
            if isinstance(expected, str):
                with pytest.raises(AliasCollision) as info:
                    grounded(leaf)
                assert str(info.value) == expected and info.value.atom is leaf
            else:
                assert grounded(leaf) is wrapped(expected)


# --- interning ---------------------------------------------------------------------
# Nodes are hash-consed: building a node equal to an existing one returns it.

nodes = st.one_of(formulas, actions, atoms, atomic_actions)


@settings(max_examples=300, derandomize=True)
@given(formulas)
def test_printed_formula_parses_to_the_same_node(formula):
    assert parse_formula(print_formula(formula)) is formula


@settings(max_examples=300, derandomize=True)
@given(formulas, st.sampled_from(list(Handedness)))
def test_ground_is_idempotent_by_identity(formula, handedness):
    once = ground(formula, handedness)
    assert ground(once, handedness) is once


@settings(max_examples=300, derandomize=True)
@given(nodes)
def test_keywords_copies_and_pickles_give_the_interned_node(node):
    fields = {name: getattr(node, name) for name in node.__match_args__}
    assert type(node)(**dict(reversed(fields.items()))) is node
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)


def test_positional_and_keyword_arguments_mix():
    assert RelDir(R, anchor=L, direction=Direction.E) is RelDir(R, Direction.E, L)
    for bad in (lambda: Touch(R, a=L), lambda: Touch(R, c=L), lambda: Touch(R), lambda: Top(R)):
        with pytest.raises(TypeError):
            bad()


def test_parsing_a_lexicon_again_interns_no_new_node():
    # The benchmark's 300-sign lexicon.
    gen = bench_gen()
    text = gen.lexicon_text(gen.gen_signs(random.Random(21), 300))
    first = parse_lexicon(text)
    count = _interned()
    second = parse_lexicon(text)
    assert _interned() == count
    assert all(a.formula is b.formula for a, b in zip(first.entries, second.entries))


# --- heights -----------------------------------------------------------------------


def _reference_height(node):
    """The height of a formula or action by recursion over its node types,
    reading no `_height`."""
    match node:
        case Top() | AtomF() | Atomic():
            return 0
        case Not(child) | Star(child):
            return 1 + _reference_height(child)
        case And(a, b) | Box(a, b) | Seq(a, b) | Choice(a, b) | Concurrent(a, b):
            return 1 + max(_reference_height(a), _reference_height(b))
    raise TypeError(node)


def _subtrees(node):
    yield node
    for child in node._astuple():
        if isinstance(child, core._Tree):
            yield from _subtrees(child)


def _height_samples():
    """Seeded `_gen` formulas and actions with aliased leaves, their
    grounded copies, and the sugar built from them."""
    rng = random.Random(2306)
    atoms = _gen.ATOM_POOL + _gen.ALIASED_ATOMS
    actions = _gen.ACTION_POOL + (Move(D, Direction.E), Thrill(W))
    for _ in range(150):
        f, g = (_gen.gen_formula(rng, rng.randint(0, 6), atoms, actions) for _ in "fg")
        action = _gen.gen_action(rng, rng.randint(0, 5), actions)
        yield from (f, action, implies(f, g), or_(f, g), diamond(action, f))
        for handedness in Handedness:
            for node in (f, action):
                try:
                    yield ground(node, handedness)
                except AliasCollision:
                    pass


def test_every_node_carries_its_reference_height():
    samples = list(_height_samples())
    assert max(node._height for node in samples) >= 8
    for root in samples:
        for node in _subtrees(root):
            assert node._height == _reference_height(node), node
    assert not hasattr(Touch(R, L), "_height") and not hasattr(Move(R, Direction.E), "_height")


def test_copies_and_pickles_keep_the_height():
    rng = random.Random(2307)
    formulas = [_gen.gen_formula(rng, 6) for _ in range(20)]
    for formula in formulas:
        copied = copy.deepcopy(formula)
        assert copied is formula and copied._height == _reference_height(formula)
    # A fresh interpreter has interned none of them, so unpickling builds
    # each node and sets its height there.
    code = ("import pickle, sys\n"
            "print(*(f._height for f in pickle.loads(sys.stdin.buffer.read())))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(formulas), env=env,
                          capture_output=True, check=True)
    assert proc.stdout.split() == [str(_reference_height(f)).encode() for f in formulas]


# --- records -----------------------------------------------------------------------


def test_records_are_immutable_values():
    span = SourceSpan(3, 4)
    assert span == SourceSpan(3, 4, 1) == SourceSpan(column=4, line=3)
    assert hash(span) == hash(SourceSpan(3, 4)) and span != SourceSpan(3, 5)
    assert span._replace(length=2) == SourceSpan(3, 4, 2) and span.length == 1
    assert copy.deepcopy(span) == span and pickle.loads(pickle.dumps(span)) == span
    assert repr(span) == "SourceSpan(line=3, column=4, length=1)"
    for name in ("line", "other"):
        with pytest.raises(AttributeError):
            setattr(span, name, 0)
    with pytest.raises(TypeError):
        SourceSpan(3)
    with pytest.raises(ValueError):  # a copy is checked as a new value
        Rect(0.0, 1.0, 0.0, 1.0)._replace(x_max=-1.0)
