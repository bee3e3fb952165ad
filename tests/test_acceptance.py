"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines stream.
Randomized criteria use fixed seeds so every run checks the same cases.
"""

import functools
import json
import math
import random
import time

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
    Handedness,
    LexiconEntry,
    LexiconFile,
    Move,
    Not,
    Orient,
    ParseError,
    RelDir,
    SegmentKind,
    Seq,
    SourceSpan,
    Star,
    ThreeVal,
    Thrill,
    Touch,
    UtteranceModel,
    Vec2,
    eval_formula,
    eval_two_valued,
    extract_model,
    ground,
    interpret_action,
    iter_atoms,
    mirror_direction,
    parse_formula,
    parse_lexicon,
    print_formula,
    resolve_articulator,
    resolve_direction,
    segment,
    tracking_from_json,
    verify,
)

import _gen
from conftest import EXAMPLES
from test_labeler import _reference_atom_value
from test_oracle import reference_verdicts

R, L = Articulator.RIGHT, Articulator.LEFT
D, W = Articulator.DOMINANT, Articulator.WEAK
T, F, U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNKNOWN
RIGHT_DOM, LEFT_DOM = Handedness.RIGHT_DOMINANT, Handedness.LEFT_DOMINANT


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {number}. {name}: FAIL")
                raise
            print(f"[acceptance] {number}. {name}: PASS")

        return wrapper

    return decorate


def load_route():
    doc = json.loads((EXAMPLES / "route_clean.tracking.json").read_text())
    lexicon = parse_lexicon((EXAMPLES / "route.pdlsl").read_text())
    return doc, lexicon


def report_shape(report):
    return [[(p.sign, p.verdict) for p in state] for state in report.per_state]


# --- 1 -------------------------------------------------------------------------


@criterion(1, "ROUTE end-to-end")
def test_route_end_to_end():
    doc, lexicon = load_route()
    started = time.perf_counter()
    model, diagnostics = extract_model(tracking_from_json(doc))
    report = verify(model, lexicon, RIGHT_DOM)
    elapsed = time.perf_counter() - started
    assert diagnostics == []
    assert report_shape(report) == [[("ROUTE", "match")], []]
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


# --- 2 -------------------------------------------------------------------------


@criterion(2, "semantic oracle equivalence (1000 formulas)")
def test_oracle_equivalence():
    rng = random.Random(2025)
    model = _gen.gen_model(rng, max_states=4, allow_unknown=False)
    for i in range(1000):
        if i % 5 == 0:
            model = _gen.gen_model(rng, max_states=4, allow_unknown=False)
        formula = _gen.gen_formula(rng, 3)
        state = rng.randrange(model.state_count)
        expected = _gen.ref_eval_bool(model, state, formula)
        assert eval_two_valued(model, state, formula) == expected
        assert eval_formula(model, state, formula) == ThreeVal.from_bool(expected)


# --- 3 -------------------------------------------------------------------------


@criterion(3, "star fixpoint vs matrix powering (50 models)")
def test_star_fixpoint():
    rng = random.Random(3033)
    for _ in range(50):
        model = _gen.gen_model(rng, max_states=6)
        action = _gen.gen_action(rng, 2)
        base = interpret_action(model, action)
        assert interpret_action(model, Star(action)) == _gen.matrix_closure(
            model.state_count, base
        )


# --- 4 -------------------------------------------------------------------------

_SAFE_PAIRS = ((D, W), (W, D), (R, L), (L, R))
_NAMES = ("HEAD", "FACE", "CLAMP", "KEY_CONFIG", "NEUTRAL", "X1")


def _rand_atom(rng):
    kind = rng.randrange(5)
    pair = rng.choice(_SAFE_PAIRS)
    direction = rng.choice(list(Direction))
    if kind == 0:
        return RelDir(pair[0], direction, pair[1])
    if kind == 1:
        return At(rng.choice(list(Articulator)), rng.choice(_NAMES))
    if kind == 2:
        return Touch(pair[0], pair[1])
    if kind == 3:
        return Config(rng.choice(list(Articulator)), rng.choice(_NAMES))
    return Orient(rng.choice(list(Articulator)), direction)


def _rand_action(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.7:
            return Atomic(Move(rng.choice(list(Articulator)), rng.choice(list(Direction))))
        return Atomic(Thrill(rng.choice(list(Articulator))))
    kind = rng.randrange(4)
    if kind == 3:
        return Star(_rand_action(rng, depth - 1))
    left, right = _rand_action(rng, depth - 1), _rand_action(rng, depth - 1)
    return (Concurrent, Choice, Seq)[kind](left, right)


def _rand_formula(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return TOP if rng.random() < 0.2 else AtomF(_rand_atom(rng))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(_rand_formula(rng, depth - 1))
    if kind == 1:
        return And(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1))
    return Box(_rand_action(rng, 2), _rand_formula(rng, depth - 1))


@criterion(4, "parser round-trip (500 trees) and fuzz totality (10^4 inputs)")
def test_parser_round_trip_and_fuzz():
    rng = random.Random(4044)
    for _ in range(500):
        formula = _rand_formula(rng, 4)
        assert parse_formula(print_formula(formula)) == formula

    corpus_bits = (
        " ()[]<>!&|;*./\\->:=" "dirattouchcfgorientmovethrillsigntrue" "RLDWNESW" "\n\t#"
    )
    for _ in range(10_000):
        length = rng.randrange(0, 40)
        if rng.random() < 0.5:
            text = "".join(rng.choice(corpus_bits) for _ in range(length))
        else:
            text = "".join(chr(rng.randrange(1, 0x2FF)) for _ in range(length))
        try:
            parse_formula(text)
        except ParseError as exc:
            assert exc.span.line >= 1 and exc.span.column >= 1
        # anything else escaping is a failure


# --- 5 -------------------------------------------------------------------------


def _planted_sequence(rng):
    k = rng.randint(1, 5)
    frames = []
    bounds = []
    pos = Vec2(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.4))
    t = 0
    for i in range(k):
        start = t
        for _ in range(rng.randint(3, 8)):
            frames.append({"t": t, "head": [0, 1.2], "right": {"pos": [pos.x, pos.y]}})
            t += 1
        bounds.append((start, t - 1))
        if i < k - 1:
            angle = rng.uniform(0, 2 * math.pi)
            speed = rng.uniform(0.05, 0.15)
            step = Vec2(speed * math.cos(angle), speed * math.sin(angle))
            for _ in range(rng.randint(2, 6)):
                pos = pos + step
                frames.append({"t": t, "head": [0, 1.2], "right": {"pos": [pos.x, pos.y]}})
                t += 1
    return tracking_from_json({"fps": 25.0, "frames": frames}), k, bounds


@criterion(5, "segmentation recovery (100 planted sequences)")
def test_segmentation_recovery():
    rng = random.Random(5055)
    for _ in range(100):
        seq, k, bounds = _planted_sequence(rng)
        postures = [s for s in segment(seq) if s.kind == SegmentKind.KEY_POSTURE]
        assert len(postures) == k
        for got, (start, end) in zip(postures, bounds):
            assert abs(got.first - start) <= 1
            assert abs(got.last - end) <= 1


# --- 6 -------------------------------------------------------------------------


@criterion(6, "Kleene monotonicity under refinement (200 pairs)")
def test_kleene_monotonicity():
    rng = random.Random(6066)
    for _ in range(200):
        model = _gen.gen_model(rng, allow_unknown=True)
        formula = _gen.gen_formula(rng, 3)
        state = rng.randrange(model.state_count)
        before = eval_formula(model, state, formula)
        resolved = {
            key: (rng.choice((T, F)) if value is U and rng.random() < 0.5 else value)
            for key, value in model.valuation.items()
        }
        refined = UtteranceModel(
            state_count=model.state_count,
            relation=model.relation,
            action_interp=model.action_interp,
            valuation=resolved,
            observed=model.observed,
        )
        after = eval_formula(refined, state, formula)
        if before is not U:
            assert after is before


# --- 7 -------------------------------------------------------------------------


@criterion(7, "grounding laws, exhaustive")
def test_grounding_laws():
    for d in Direction:
        assert mirror_direction(mirror_direction(d)) is d
        assert resolve_direction(d, RIGHT_DOM) is d
        assert resolve_direction(d, LEFT_DOM) is mirror_direction(d)
    for h in (RIGHT_DOM, LEFT_DOM):
        for b in Articulator:
            assert not resolve_articulator(b, h).is_alias
        for d in Direction:
            samples = [
                AtomF(RelDir(D, d, W)),
                AtomF(RelDir(R, d, L)),
                AtomF(At(D, "HEAD")),
                AtomF(Touch(W, D)),
                AtomF(Config(W, "CLAMP")),
                AtomF(Orient(D, d)),
                Box(Atomic(Move(D, d)), AtomF(Orient(R, d))),
                Box(Star(Atomic(Thrill(W))), TOP),
            ]
            for formula in samples:
                once = ground(formula, h)
                assert ground(once, h) == once


# --- 8 -------------------------------------------------------------------------


def _fixture_models():
    doc, lexicon = load_route()
    variants = [doc]
    voided = json.loads(json.dumps(doc))
    for frame in voided["frames"]:
        frame["right"].pop("config", None)
        frame["left"].pop("config", None)
    variants.append(voided)
    dropped = json.loads(json.dumps(doc))
    for frame in dropped["frames"][:10]:
        frame["right"].pop("pos", None)
    variants.append(dropped)
    variants.append(json.loads((EXAMPLES / "route_teleport.tracking.json").read_text()))
    variants.append(json.loads((EXAMPLES / "route_dropout.tracking.json").read_text()))
    # The oracle reads listed cells only, so each model comes with a copy
    # that lists every atom of the grounded lexicon at every state, with the
    # value its default gives it there.
    atoms = {a for e in lexicon.entries for a in iter_atoms(ground(e.formula, RIGHT_DOM))}
    for v in variants:
        model, _ = extract_model(tracking_from_json(v))
        cells = dict(model.valuation)
        filled = {(s, a): _reference_atom_value(model, cells, s, a)
                  for s in model.states() for a in atoms}
        yield model, model._replace(valuation=filled), lexicon


@criterion(8, "anchor pruning soundness: verify equals the per-state reference "
              "(fixtures + 200 random pairs)")
def test_prefilter_soundness():
    for model, filled, lexicon in _fixture_models():
        got = report_shape(verify(model, lexicon, RIGHT_DOM))
        assert got == report_shape(verify(filled, lexicon, RIGHT_DOM))
        assert got == reference_verdicts(filled, lexicon, RIGHT_DOM)
    rng = random.Random(8088)
    for _ in range(200):
        model = _gen.gen_model(rng, allow_unknown=True)
        entries = tuple(
            LexiconEntry(f"SIGN{i}", _gen.gen_formula(rng, 3), SourceSpan(1, 1))
            for i in range(rng.randint(1, 4))
        )
        lexicon = LexiconFile(entries)
        assert report_shape(verify(model, lexicon, RIGHT_DOM)) == reference_verdicts(
            model, lexicon, RIGHT_DOM
        )


# --- 9 -------------------------------------------------------------------------


@criterion(9, "partiality degradation of the ROUTE fixture")
def test_partiality_degradation():
    doc, lexicon = load_route()

    voided = json.loads(json.dumps(doc))
    for frame in voided["frames"]:
        frame["right"].pop("config", None)
        frame["left"].pop("config", None)
    model, _ = extract_model(tracking_from_json(voided))
    report = report_shape(verify(model, lexicon, RIGHT_DOM))
    assert report[0] == [("ROUTE", "possible")], "config void must demote, not delete"

    dropped = json.loads(json.dumps(doc))
    for frame in dropped["frames"][:10]:
        frame["right"].pop("pos", None)
    model, _ = extract_model(tracking_from_json(dropped))
    report = report_shape(verify(model, lexicon, RIGHT_DOM))
    assert report[0] == [("ROUTE", "possible")], "position void must demote, not delete"
