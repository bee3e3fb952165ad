import json
import pathlib
import random

import pytest

import pdlsl.model

from pdlsl import (
    TOP,
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
    Move,
    Not,
    Orient,
    RelDir,
    Seq,
    Star,
    ThreeVal,
    Thrill,
    Touch,
    UngroundedFormula,
    UnknownState,
    UtteranceModel,
    atom_value,
    eval_formula,
    eval_two_valued,
    interpret_action,
    model_from_json,
    model_to_json,
    parse_action,
    parse_atom,
    parse_formula,
)
from pdlsl.errors import SchemaError

import _gen

R, L = Articulator.RIGHT, Articulator.LEFT
T, F, U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNKNOWN

MOVE_A = Move(R, Direction.E)
MOVE_B = Move(L, Direction.NE)


def chain_model(n, interp, valuation=None, observed=None):
    relation = frozenset(
        {(i, i + 1) for i in range(n - 1)} | {(n - 1, n - 1)} | set().union(*interp.values())
        if interp
        else {(i, i + 1) for i in range(n - 1)} | {(n - 1, n - 1)}
    )
    return UtteranceModel(
        state_count=n,
        relation=relation,
        action_interp={k: frozenset(v) for k, v in interp.items()},
        valuation=valuation or {},
        observed=observed or (),
    )


# --- structural invariants -------------------------------------------------------


def test_model_requires_seriality():
    with pytest.raises(ValueError):
        UtteranceModel(
            state_count=2,
            relation=frozenset({(0, 1)}),  # state 1 has no successor
            action_interp={},
            valuation={},
        )


def test_action_interp_must_stay_inside_relation():
    with pytest.raises(ValueError):
        UtteranceModel(
            state_count=2,
            relation=frozenset({(0, 1), (1, 1)}),
            action_interp={MOVE_A: frozenset({(1, 0)})},
            valuation={},
        )


# --- interpret_action ---------------------------------------------------------------


def test_seq_is_relational_composition():
    m = chain_model(3, {MOVE_A: {(0, 1)}, MOVE_B: {(1, 2)}})
    assert interpret_action(m, Seq(Atomic(MOVE_A), Atomic(MOVE_B))) == frozenset({(0, 2)})


def test_star_closure_includes_identity_everywhere():
    m = chain_model(2, {MOVE_A: {(0, 1)}})
    assert interpret_action(m, Star(Atomic(MOVE_A))) == frozenset({(0, 0), (1, 1), (0, 1)})


def test_concurrent_and_choice_set_algebra():
    relation = frozenset({(0, 0), (0, 1), (1, 1)})
    m = UtteranceModel(
        state_count=2,
        relation=relation,
        action_interp={
            MOVE_A: frozenset({(0, 1)}),
            MOVE_B: frozenset({(0, 1), (0, 0)}),
        },
        valuation={},
    )
    a, b = Atomic(MOVE_A), Atomic(MOVE_B)
    assert interpret_action(m, Concurrent(a, b)) == frozenset({(0, 1)})
    assert interpret_action(m, Choice(a, b)) == frozenset({(0, 0), (0, 1)})


def test_unmapped_atomic_action_is_empty():
    m = chain_model(2, {MOVE_A: {(0, 1)}})
    assert interpret_action(m, Atomic(Thrill(R))) == frozenset()


def test_star_matches_matrix_powering_on_random_models():
    rng = random.Random(7)
    for _ in range(25):
        m = _gen.gen_model(rng, max_states=6)
        action = _gen.gen_action(rng, 2)
        base = interpret_action(m, action)
        assert interpret_action(m, Star(action)) == _gen.matrix_closure(m.state_count, base)


def test_concurrent_subset_choice_superset():
    rng = random.Random(8)
    for _ in range(25):
        m = _gen.gen_model(rng, max_states=5)
        a = _gen.gen_action(rng, 1)
        b = _gen.gen_action(rng, 1)
        inner = interpret_action(m, Concurrent(a, b))
        outer = interpret_action(m, Choice(a, b))
        assert inner <= interpret_action(m, a) <= outer


# --- atom_value defaults -------------------------------------------------------------


def make_state_model(valuation, observed, configs=()):
    return UtteranceModel(
        state_count=1,
        relation=frozenset({(0, 0)}),
        action_interp={},
        valuation={(0, a): v for a, v in valuation.items()},
        observed=(observed,),
        config_observed=tuple([configs]) if configs != () else (),
    )


def test_atom_value_listed_and_exclusive_rel_dir():
    m = make_state_model(
        {RelDir(R, Direction.E, L): T, RelDir(R, Direction.W, L): F},
        frozenset({R, L}),
    )
    assert atom_value(m, 0, RelDir(R, Direction.E, L)) is T
    assert atom_value(m, 0, RelDir(R, Direction.W, L)) is F
    # geometric default: positions observed, atom unlisted
    assert atom_value(m, 0, RelDir(R, Direction.N, L)) is F
    assert atom_value(m, 0, Touch(R, L)) is F
    assert atom_value(m, 0, At(R, "NOWHERE")) is F


def test_atom_value_unobserved_defaults_unknown():
    m = make_state_model({}, frozenset())
    assert atom_value(m, 0, RelDir(R, Direction.E, L)) is U
    assert atom_value(m, 0, At(L, "FACE")) is U
    assert atom_value(m, 0, Touch(R, L)) is U


def test_atom_value_config_closed_world_over_observed_label():
    m = make_state_model({Config(R, "CLAMP"): T}, frozenset({R, L}), {R: "CLAMP", L: None})
    assert atom_value(m, 0, Config(R, "CLAMP")) is T
    assert atom_value(m, 0, Config(R, "FIST")) is F  # a labeled hand is not another shape
    assert atom_value(m, 0, Config(L, "CLAMP")) is U  # unlabeled hand stays open
    assert atom_value(m, 0, Orient(R, Direction.N)) is U


def test_atom_value_unknown_state():
    m = make_state_model({}, frozenset())
    with pytest.raises(UnknownState):
        atom_value(m, 5, Touch(R, L))


# --- eval_formula ---------------------------------------------------------------------


def test_top_is_true_everywhere():
    m = chain_model(2, {MOVE_A: {(0, 1)}})
    assert eval_formula(m, 0, TOP) is T
    assert eval_formula(m, 1, TOP) is T


def test_box_vacuously_true_without_successors():
    m = chain_model(2, {MOVE_A: {(0, 1)}})
    assert eval_formula(m, 1, Box(Atomic(MOVE_A), AtomF(Touch(R, L)))) is T


def test_seriality_loop_invisible_to_box():
    # The final state's unlabeled self-loop is in the relation but belongs to
    # no action, so boxes quantify over nothing there.
    m = chain_model(1, {})
    assert eval_formula(m, 0, Box(Atomic(MOVE_A), Not(TOP))) is T


def hand_built_route_model():
    clamp_r, clamp_l = Config(R, "CLAMP"), Config(L, "CLAMP")
    val = {
        (0, At(R, "FACE")): T,
        (0, At(L, "FACE")): T,
        (0, RelDir(L, Direction.E, R)): T,
        (0, clamp_r): T,
        (0, clamp_l): T,
        (0, Touch(R, L)): T,
        (1, RelDir(L, Direction.E, R)): T,
        (1, clamp_r): T,
        (1, clamp_l): T,
        (1, Touch(R, L)): F,
        (1, At(R, "FACE")): F,
        (1, At(L, "FACE")): F,
    }
    return UtteranceModel(
        state_count=2,
        relation=frozenset({(0, 1), (1, 1)}),
        action_interp={
            Move(R, Direction.W): frozenset({(0, 1)}),
            Move(L, Direction.E): frozenset({(0, 1)}),
        },
        valuation=val,
        observed=(frozenset({R, L}), frozenset({R, L})),
    )


def test_route_formula_true_at_first_state(route_lexicon_text):
    from pdlsl import parse_lexicon

    m = hand_built_route_model()
    formula = parse_lexicon(route_lexicon_text).get("ROUTE")
    assert eval_formula(m, 0, formula) is T


def test_eval_rejects_ungrounded():
    m = chain_model(1, {})
    with pytest.raises(UngroundedFormula):
        eval_formula(m, 0, parse_formula("touch(D,W)"))


def test_eval_checks_the_state_first():
    m = chain_model(1, {})
    formula = parse_formula("touch(D,W)")
    for evaluate in (eval_formula, eval_two_valued):
        with pytest.raises(UnknownState):
            evaluate(m, 1, formula)
        with pytest.raises(UngroundedFormula, match="^the input mentions D or W; ground it first$"):
            evaluate(m, 0, formula)


@pytest.mark.parametrize("formula, action", [
    ("[move(D,E)*] true", "move(D,E)*"),
    ("<move(D,E)*> !true", "move(D,E)*"),
    ("[(move(R,E) ; thrill(W))*] true", "(move(R,E) ; thrill(W))*"),
])
def test_alias_in_a_star_body_without_targets_is_refused(formula, action):
    # The star's targets are empty (`true` holds everywhere, `!true`
    # nowhere), so no state is reached through its body; D or W there is
    # refused all the same.
    m = chain_model(3, {MOVE_A: frozenset({(0, 1), (1, 2)})})
    with pytest.raises(UngroundedFormula):
        eval_formula(m, 0, parse_formula(formula))
    with pytest.raises(UngroundedFormula):
        eval_two_valued(m, 0, parse_formula(formula))
    with pytest.raises(UngroundedFormula):
        interpret_action(m, parse_action(action))


@pytest.mark.parametrize("action", ["move(D,E)", "move(D,W)", "thrill(W)",
                                    "move(R,W) ; (thrill(W) | move(L,E))*"])
def test_interpret_action_rejects_ungrounded(action):
    # route_clean has a move(R,W) edge, which move(D,W) grounds to for a
    # right-dominant signer.
    m = model_from_json(_route_clean_doc())
    assert interpret_action(m, parse_action("move(R,W)")) == frozenset({(0, 1)})
    with pytest.raises(UngroundedFormula):
        interpret_action(m, parse_action(action))


@pytest.mark.parametrize("atom", ["touch(D,W)", "at(D,FACE)", "dir(W,R,NE)", "cfg(W,CLAMP)"])
def test_atom_value_rejects_ungrounded(atom):
    m = model_from_json(_route_clean_doc())
    with pytest.raises(UngroundedFormula):
        atom_value(m, 0, parse_atom(atom))
    with pytest.raises(UnknownState):  # the state is checked first, as for eval_formula
        atom_value(m, 2, parse_atom(atom))


# --- two-valued mode --------------------------------------------------------------------


def test_two_valued_collapses_unknown():
    p = Touch(R, L)
    m = make_state_model({p: U}, frozenset())
    assert eval_two_valued(m, 0, And(AtomF(p), TOP)) is False
    assert eval_two_valued(m, 0, Not(AtomF(p))) is True  # !False
    # Optimistic mode maps unknowns the other way.
    assert eval_two_valued(m, 0, AtomF(p), closed_world=False) is True


def test_two_valued_agrees_with_three_valued_on_full_information():
    rng = random.Random(21)
    for _ in range(100):
        m = _gen.gen_model(rng, allow_unknown=False)
        formula = _gen.gen_formula(rng, 3)
        s = rng.randrange(m.state_count)
        three = eval_formula(m, s, formula)
        assert three in (T, F)
        assert eval_two_valued(m, s, formula) is (three is T)


# --- oracle equivalence, monotonicity, algebraic laws -------------------------------------


def test_eval_matches_reference_evaluators():
    rng = random.Random(33)
    for _ in range(200):
        m = _gen.gen_model(rng, allow_unknown=False)
        formula = _gen.gen_formula(rng, 3)
        s = rng.randrange(m.state_count)
        assert eval_two_valued(m, s, formula) == _gen.ref_eval_bool(m, s, formula)
        assert eval_formula(m, s, formula) == _gen.ref_eval_three(m, s, formula)


def test_three_valued_reference_agrees_with_unknowns():
    rng = random.Random(34)
    for _ in range(200):
        m = _gen.gen_model(rng, allow_unknown=True)
        formula = _gen.gen_formula(rng, 3)
        s = rng.randrange(m.state_count)
        assert eval_formula(m, s, formula) == _gen.ref_eval_three(m, s, formula)


def _refine(model, rng):
    unknowns = [k for k, v in model.valuation.items() if v is ThreeVal.UNKNOWN]
    resolved = dict(model.valuation)
    for key in unknowns:
        if rng.random() < 0.6:
            resolved[key] = rng.choice((T, F))
    return UtteranceModel(
        state_count=model.state_count,
        relation=model.relation,
        action_interp=model.action_interp,
        valuation=resolved,
        observed=model.observed,
    )


def test_kleene_monotonicity_under_refinement():
    rng = random.Random(55)
    for _ in range(100):
        m = _gen.gen_model(rng, allow_unknown=True)
        formula = _gen.gen_formula(rng, 3)
        s = rng.randrange(m.state_count)
        before = eval_formula(m, s, formula)
        after = eval_formula(_refine(m, rng), s, formula)
        if before is T:
            assert after is T
        elif before is F:
            assert after is F


def _serial_relations(n):
    import itertools

    pairs = [(s, t) for s in range(n) for t in range(n)]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = frozenset(p for p, keep in zip(pairs, bits) if keep)
        if all(any(src == s for src, _ in rel) for s in range(n)):
            yield rel


def test_duality_exhaustive_on_two_state_models():
    import itertools

    p = Touch(R, L)
    action = Atomic(MOVE_A)
    for rel in _serial_relations(2):
        for sub_bits in itertools.product((False, True), repeat=len(rel)):
            interp = frozenset(pair for pair, keep in zip(sorted(rel), sub_bits) if keep)
            for v0, v1 in itertools.product((T, F), repeat=2):
                m = UtteranceModel(
                    state_count=2,
                    relation=rel,
                    action_interp={MOVE_A: interp},
                    valuation={(0, p): v0, (1, p): v1},
                )
                for s in (0, 1):
                    diamond_val = eval_two_valued(m, s, Not(Box(action, Not(AtomF(p)))))
                    successors = [t for (src, t) in interp if src == s]
                    exists = any(m.valuation[(t, p)] is T for t in successors)
                    assert diamond_val == exists


def test_box_distributes_over_conjunction():
    rng = random.Random(77)
    for _ in range(100):
        m = _gen.gen_model(rng, allow_unknown=True)
        action = _gen.gen_action(rng, 2)
        f1 = _gen.gen_formula(rng, 2)
        f2 = _gen.gen_formula(rng, 2)
        for s in range(m.state_count):
            assert eval_formula(m, s, Box(action, And(f1, f2))) == eval_formula(
                m, s, And(Box(action, f1), Box(action, f2))
            )


# --- serialization -------------------------------------------------------------------------


def test_model_json_round_trip():
    rng = random.Random(99)
    for _ in range(20):
        m = _gen.gen_model(rng, allow_unknown=True)
        reloaded = model_from_json(json.loads(json.dumps(model_to_json(m))))
        assert reloaded.state_count == m.state_count
        assert reloaded.relation == m.relation
        assert dict(reloaded.action_interp) == dict(m.action_interp)
        assert dict(reloaded.valuation) == dict(m.valuation)
        assert tuple(reloaded.observed) == tuple(m.observed)


def test_model_json_is_deterministic():
    rng = random.Random(100)
    m = _gen.gen_model(rng, allow_unknown=True)
    assert json.dumps(model_to_json(m)) == json.dumps(model_to_json(m))


def test_model_json_schema_errors():
    good = model_to_json(chain_model(2, {MOVE_A: {(0, 1)}}))
    bad = dict(good, format=2)
    with pytest.raises(SchemaError):
        model_from_json(bad)
    bad = dict(good, relation=[[0, "x"]])
    with pytest.raises(SchemaError):
        model_from_json(bad)
    bad = dict(good, relation=[[0, 1]])  # breaks seriality
    with pytest.raises(SchemaError):
        model_from_json(bad)
    bad = dict(good, actions=[{"action": "noise(R)", "edges": []}])
    with pytest.raises(SchemaError):
        model_from_json(bad)


# --- loading extracted models ----------------------------------------------------------------

GOLDEN_MODELS = sorted((pathlib.Path(__file__).resolve().parent / "golden").glob("*.model.json"))


def _golden_doc(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", GOLDEN_MODELS, ids=lambda p: p.name)
def test_model_from_json_parses_each_atom_text_once(path, monkeypatch):
    doc = _golden_doc(path)
    texts = []
    parse = pdlsl.model.parse_atom

    def counting(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(pdlsl.model, "parse_atom", counting)
    model = model_from_json(doc)
    distinct = {entry["atom"] for entry in doc["valuation"]}
    assert len(doc["valuation"]) > len(distinct)
    assert sorted(texts) == sorted(distinct)
    assert len(model.valuation) == len(doc["valuation"])


def test_model_from_json_reports_the_first_malformed_atom_row():
    doc = _golden_doc(GOLDEN_MODELS[0])
    doc["valuation"][7]["atom"] = "touch(R,"
    doc["valuation"][9]["atom"] = "touch(R,"
    with pytest.raises(SchemaError) as info:
        model_from_json(doc)
    assert info.value.path == "/valuation/7/atom"


@pytest.mark.parametrize("path", GOLDEN_MODELS, ids=lambda p: p.name)
def test_fixture_models_survive_a_json_round_trip(path):
    model = model_from_json(_golden_doc(path))
    assert model_from_json(model_to_json(model)) == model


def _route_clean_doc():
    return _golden_doc(GOLDEN_MODELS[0].parent / "route_clean.model.json")


def test_model_from_json_refuses_a_cell_listed_twice_with_another_value():
    doc = _route_clean_doc()
    first = doc["valuation"][3]
    other = next(v for v in ("true", "false", "unknown") if v != first["value"])
    doc["valuation"].append(dict(first, value=other))
    with pytest.raises(SchemaError) as info:
        model_from_json(doc)
    assert info.value.path == f"/valuation/{len(doc['valuation']) - 1}"
    assert first["atom"] in str(info.value)


def test_model_from_json_accepts_a_cell_repeated_with_the_same_value():
    doc = _route_clean_doc()
    expected = model_from_json(doc)
    doc["valuation"].insert(5, dict(doc["valuation"][3]))
    assert model_from_json(doc) == expected


def test_model_from_json_refuses_an_action_listed_again_with_other_edges():
    doc = _route_clean_doc()
    entry = next(e for e in doc["actions"] if e["edges"])
    # An empty repeat used to empty the action without a word.
    for edges in ([], entry["edges"] + [[1, 1]]):
        bad = dict(doc, actions=doc["actions"] + [{"action": entry["action"], "edges": edges}])
        with pytest.raises(SchemaError) as info:
            model_from_json(bad)
        assert info.value.path == f"/actions/{len(doc['actions'])}"
        assert entry["action"] in str(info.value)


def test_model_from_json_accepts_an_action_repeated_with_the_same_edges():
    doc = _route_clean_doc()
    expected = model_from_json(doc)
    entry = doc["actions"][0]
    doc["actions"].append({"action": entry["action"], "edges": list(reversed(entry["edges"]))})
    assert model_from_json(doc) == expected
