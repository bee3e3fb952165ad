"""The labeler against the independent oracles of `_gen`, at 30-60 states.

Models are seeded, sparse and about a third Unknown. The oracles recompute
relations and subformulas at every visit, which costs minutes at this size,
so each check runs them memoized per model; memoizing changes no answer.
"""

import contextlib
import random

from hypothesis import Phase, given, settings, strategies as st

from pdlsl import (
    And,
    AtomF,
    Handedness,
    LexiconEntry,
    LexiconFile,
    SourceSpan,
    ThreeVal,
    UtteranceModel,
    anchor_atoms,
    atom_value,
    eval_formula,
    eval_two_valued,
    ground,
    implies,
    interpret_action,
    verify,
)

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
