"""The labeler against the independent oracles of `_gen`, at 20-60 states.

Models are seeded, sparse and about a third Unknown. The oracles recompute
relations and subformulas at every visit, which costs minutes at this size,
so each check runs them memoized per model; memoizing changes no answer.
The last tests verify lexicons whose signs share most of their subterms,
which `verify` labels once each per call.
"""

import contextlib
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from pdlsl import (
    AliasCollision,
    And,
    Articulator,
    At,
    AtomF,
    Atomic,
    Box,
    Concurrent,
    Config,
    Direction,
    Handedness,
    LexiconEntry,
    LexiconFile,
    Move,
    Not,
    Override,
    RelDir,
    Seq,
    SourceSpan,
    Star,
    ThreeVal,
    Thrill,
    Top,
    Touch,
    UtteranceModel,
    anchor_atoms,
    atom_value,
    eval_formula,
    eval_two_valued,
    ground,
    ground_atom,
    implies,
    interpret_action,
    verify,
)
from pdlsl import check

import _gen

T, F, U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNKNOWN
# Shrinking a seed only tries other seeds, which are other random models,
# not smaller ones, and each try reruns the slow oracles: a failing seed is
# reported as found.
SEEDS = settings(max_examples=20, deadline=None, derandomize=True,
                 phases=[Phase.explicit, Phase.reuse, Phase.generate])
ORACLES = ("ref_action_pairs", "ref_eval_bool", "_ref3")


@contextlib.contextmanager
def memoized_oracles():
    """Swap the recursive oracles for caching copies while one model is
    checked (the cache keys on the model's identity)."""
    saved = {name: getattr(_gen, name) for name in ORACLES}

    def memoize(fn):
        cache = {}

        def wrapper(model, *args):
            key = (id(model), *args)
            if key not in cache:
                cache[key] = fn(model, *args)
            return cache[key]

        return wrapper

    try:
        for name, fn in saved.items():
            setattr(_gen, name, memoize(fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(_gen, name, fn)


def gen_large_model(rng: random.Random) -> UtteranceModel:
    """30-60 states, one to three successors each, every pool action on
    about half the edges, every pool atom valued True, False or Unknown."""
    n = rng.randint(30, 60)
    relation = frozenset(
        (s, t) for s in range(n) for t in rng.sample(range(n), rng.randint(1, 3))
    )
    interp = {
        a: frozenset(p for p in sorted(relation) if rng.random() < 0.5) for a in _gen.ACTION_POOL
    }
    valuation = {
        (s, atom): rng.choice((T, F, U)) for s in range(n) for atom in _gen.ATOM_POOL
    }
    return UtteranceModel(
        state_count=n, relation=relation, action_interp=interp, valuation=valuation
    )


def gen_sign(rng: random.Random):
    """A random formula, or one shaped like a sign description: an atom
    conjunction implying a random consequent, so anchors come into play."""
    body = _gen.gen_formula(rng, 3)
    if rng.random() < 0.5:
        return body
    first, second = (AtomF(rng.choice(_gen.ATOM_POOL)) for _ in range(2))
    return implies(And(first, second), body)


@SEEDS
@given(st.integers(0, 2**32 - 1))
def test_eval_formula_matches_three_valued_oracle(seed):
    rng = random.Random(seed)
    model = gen_large_model(rng)
    with memoized_oracles():
        for _ in range(4):
            formula = gen_sign(rng)
            for state in model.states():
                assert eval_formula(model, state, formula) is _gen.ref_eval_three(
                    model, state, formula
                )


@SEEDS
@given(st.integers(0, 2**32 - 1))
def test_eval_two_valued_closed_world_matches_boolean_oracle(seed):
    rng = random.Random(seed)
    model = gen_large_model(rng)
    with memoized_oracles():
        for _ in range(4):
            formula = gen_sign(rng)
            for state in model.states():
                got = eval_two_valued(model, state, formula, closed_world=True)
                assert got == _gen.ref_eval_bool(model, state, formula)


@SEEDS
@given(st.integers(0, 2**32 - 1))
def test_interpret_action_matches_relation_oracle(seed):
    rng = random.Random(seed)
    model = gen_large_model(rng)
    with memoized_oracles():
        for _ in range(6):
            action = _gen.gen_action(rng, 3)
            assert interpret_action(model, action) == _gen.ref_action_pairs(model, action)


def reference_verdicts(model, lexicon, handedness=Handedness.RIGHT_DOMINANT):
    """Per state, with each sign grounded for the handedness: a sign is
    dropped where an anchor atom or the formula is False, matches where
    both are all True, and is possible otherwise. Every (state, sign) pair
    is evaluated in full, with no pruning."""
    signs = [(entry.name, ground(entry.formula, handedness)) for entry in lexicon.entries]
    per_state = []
    for state in model.states():
        matches, possibles = [], []
        for name, formula in signs:
            value = _gen.ref_eval_three(model, state, formula)
            anchors = [atom_value(model, state, a) for a in anchor_atoms(formula)]
            if value is F or F in anchors:
                continue
            if value is T and all(v is T for v in anchors):
                matches.append((name, "match"))
            else:
                possibles.append((name, "possible"))
        per_state.append(matches + possibles)
    return per_state


@SEEDS
@given(st.integers(0, 2**32 - 1))
def test_verify_matches_per_state_oracle(seed):
    rng = random.Random(seed)
    model = gen_large_model(rng)
    lexicon = LexiconFile(tuple(
        LexiconEntry(f"SIGN{i}", gen_sign(rng), SourceSpan(1, 1)) for i in range(6)
    ))
    report = verify(model, lexicon, Handedness.RIGHT_DOMINANT)
    got = [[(p.sign, p.verdict) for p in proposals] for proposals in report.per_state]
    with memoized_oracles():
        assert got == reference_verdicts(model, lexicon)


# --- lexicons whose signs share subterms -------------------------------------------

D, W = Articulator.DOMINANT, Articulator.WEAK
R, L = Articulator.RIGHT, Articulator.LEFT
SHARED_ATOMS = (Touch(R, L), At(R, "FACE"), Config(L, "CLAMP"),
                Touch(D, W), At(D, "FACE"), RelDir(W, Direction.NE, D))
SHARED_ACTIONS = (Move(R, Direction.E), Thrill(L), Move(D, Direction.E), Thrill(W))
#: Every atom and atomic action the pools ground to, for either handedness.
GROUNDED_ATOMS = tuple(dict.fromkeys(ground_atom(a, h) for a in SHARED_ATOMS for h in Handedness))
GROUNDED_ACTIONS = tuple(dict.fromkeys(
    ground(Atomic(a), h).action for a in SHARED_ACTIONS for h in Handedness))


def gen_shared_model(rng: random.Random) -> UtteranceModel:
    """20-40 states, valued on every grounded pool atom, so that the oracle
    finds every cell it reads listed."""
    n = rng.randint(20, 40)
    relation = frozenset(
        (s, t) for s in range(n) for t in rng.sample(range(n), rng.randint(1, 3))
    )
    interp = {a: frozenset(p for p in sorted(relation) if rng.random() < 0.5)
              for a in GROUNDED_ACTIONS}
    valuation = {(s, atom): rng.choice((T, F, U)) for s in range(n) for atom in GROUNDED_ATOMS}
    return UtteranceModel(
        state_count=n, relation=relation, action_interp=interp, valuation=valuation
    )


def gen_shared_lexicon(rng: random.Random) -> LexiconFile:
    """60 signs built from a pool of 15 subformulas and actions, so that
    most subterms of a sign appear in other signs too."""
    actions = [Atomic(a) for a in SHARED_ACTIONS]
    actions += [Star(rng.choice(actions)), Seq(*rng.sample(actions, 2)),
                Concurrent(*rng.sample(actions, 2))]
    formulas = [AtomF(a) for a in SHARED_ATOMS]
    formulas += [_gen.gen_formula(rng, 2, SHARED_ATOMS, SHARED_ACTIONS) for _ in range(2)]
    makers = (
        lambda: And(rng.choice(formulas), rng.choice(formulas)),
        lambda: Not(rng.choice(formulas)),
        lambda: Box(rng.choice(actions), rng.choice(formulas)),
        lambda: implies(And(rng.choice(formulas[:6]), rng.choice(formulas[:6])),
                        Box(rng.choice(actions), rng.choice(formulas))),
    )
    signs = []
    for i in range(60):
        formula = rng.choice(makers)()
        if rng.random() < 0.3:
            formulas.append(formula)  # later signs may contain this one whole
        signs.append(LexiconEntry(f"SIGN{i}", formula, SourceSpan(i + 1, 6)))
    return LexiconFile(tuple(signs))


def with_overrides(model, overrides, handedness):
    """The model with each override's cell set, its atom's hands resolved."""
    valuation = dict(model.valuation)
    for ov in overrides:
        valuation[(ov.state, ground_atom(ov.atom, handedness))] = ov.value
    return model._replace(valuation=valuation)


@settings(max_examples=8, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.integers(0, 2**32 - 1))
def test_verify_matches_per_state_oracle_on_signs_sharing_subterms(seed):
    rng = random.Random(seed)
    model = gen_shared_model(rng)
    lexicon = gen_shared_lexicon(rng)
    for handedness in Handedness:
        overrides = [Override(rng.randrange(model.state_count), rng.choice(SHARED_ATOMS),
                              rng.choice((T, F, U))) for _ in range(5)]
        report = verify(model, lexicon, handedness, overrides)
        got = [[(p.sign, p.verdict) for p in proposals] for proposals in report.per_state]
        with memoized_oracles():
            assert got == reference_verdicts(
                with_overrides(model, overrides, handedness), lexicon, handedness)
    # A sign after many that share its subterms still names its own collision.
    clash = LexiconEntry("CLASH", And(lexicon.entries[0].formula, AtomF(Touch(D, R))),
                         SourceSpan(61, 6))
    with pytest.raises(AliasCollision) as exc:
        verify(model, LexiconFile(lexicon.entries + (clash,)), Handedness.RIGHT_DOMINANT)
    assert str(exc.value) == (
        "sign 'CLASH' uses touch(D,R): D and R are the same hand for a right-dominant signer"
    )


def test_verify_keeps_no_labels_between_calls(monkeypatch):
    # Each call labels every distinct subformula afresh: a labeler's table
    # lives as long as the call that made it. Signs are labeled as parsed,
    # so the table holds the same subformulas for either signer.
    labelers = []

    class Recording(check._Labeler):
        def __init__(self, *args):
            super().__init__(*args)
            labelers.append(self)

    monkeypatch.setattr(check, "_Labeler", Recording)
    rng = random.Random(1306)
    model, lexicon = gen_shared_model(rng), gen_shared_lexicon(rng)
    left, right = Handedness.LEFT_DOMINANT, Handedness.RIGHT_DOMINANT
    reports = [verify(model, lexicon, h) for h in (left, right, left)]
    assert reports[0] == reports[2] != reports[1]
    subformulas = {node for entry in lexicon.entries for node in _subformulas(entry.formula)}
    assert [set(labeler._labels) for labeler in labelers] == [subformulas] * 3


def _subformulas(formula):
    """The formula and each formula in it, atoms and actions left out."""
    yield formula
    for child in formula._astuple():
        if isinstance(child, (Top, AtomF, Not, And, Box)):
            yield from _subformulas(child)
