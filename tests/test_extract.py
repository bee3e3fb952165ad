import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import pdlsl.extract

from pdlsl import (
    Articulator,
    At,
    Atomic,
    Concurrent,
    Config,
    Direction,
    Handedness,
    Move,
    NonMonotoneTimestamps,
    Orient,
    Override,
    RelDir,
    Segment,
    SegmentKind,
    SegmentationParams,
    ThreeVal,
    Thrill,
    Touch,
    TrackingSequence,
    Vec2,
    apply_overrides,
    atom_value,
    build_model,
    compute_velocities,
    extract_model,
    model_to_json,
    normalize_sequence,
    posture_valuation,
    segment,
    tracking_from_json,
    transition_action,
    validate_sequence,
)
from pdlsl.cli import _dump_json
from pdlsl.errors import SchemaError
from pdlsl.extract import Track
from pdlsl.geometry import DEFAULT_PLACE_MAP, classify_direction

from _gen import vocabulary

R, L = Articulator.RIGHT, Articulator.LEFT
T, F, U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNKNOWN


def hand(x=None, y=None, config=None, orient=None):
    """A hand of a tracking document; without `x` it is a dropout."""
    pos = None if x is None else [x, y]
    return {"pos": pos, "config": config, "orient": orient and orient.name}


def mk_frame(t, right=None, left=None, head=(0.0, 1.2)):
    """A frame of a tracking document; a hand or head left None is a dropout."""
    return {"t": t, "head": head and list(head), "right": right, "left": left}


def seq_of(frames, fps=25.0, mirrored=False):
    return tracking_from_json({"fps": fps, "mirrored": mirrored, "frames": list(frames)})


def hold_then_move(still_a, move_n, still_b, step=Vec2(0.05, 0.0), start=Vec2(0.0, 0.0)):
    """One-hand sequence: still, straight move, still."""
    frames = []
    pos = start
    t = 0
    for _ in range(still_a):
        frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
        t += 1
    for _ in range(move_n):
        pos = pos + step
        frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
        t += 1
    for _ in range(still_b):
        frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
        t += 1
    return seq_of(frames)


# --- input schema ---------------------------------------------------------------


def test_tracking_schema_errors():
    with pytest.raises(SchemaError) as exc:
        tracking_from_json({"frames": [{"t": 0}]})
    assert exc.value.path == "/fps"
    with pytest.raises(SchemaError) as exc:
        tracking_from_json({"fps": 25, "frames": []})
    assert exc.value.path == "/frames"
    with pytest.raises(SchemaError) as exc:
        tracking_from_json({"fps": 25, "frames": [{"t": 0, "right": {"pos": [1]}}]})
    assert exc.value.path == "/frames/0/right/pos"
    with pytest.raises(SchemaError) as exc:
        tracking_from_json({"fps": 25, "bogus": 1, "frames": [{"t": 0}]})
    assert exc.value.path == "/bogus"
    with pytest.raises(SchemaError):
        tracking_from_json({"fps": 25, "frames": [{"t": -1}]})


def test_tracking_frames_are_checked_in_one_pass(monkeypatch):
    # Only a point that fails goes to VEC, for its message; no point is
    # checked twice, so an overflow at the last point costs one VEC call.
    calls = []
    vec = pdlsl.extract.VEC
    monkeypatch.setattr(pdlsl.extract, "VEC", lambda value: calls.append(value) or vec(value))

    def doc(bad):
        frames = [{"t": i, "right": {"pos": bad.get(i, [0.1 * i, 0])}} for i in range(10)]
        return {"fps": 25, "frames": frames}

    with pytest.raises(SchemaError) as exc:
        tracking_from_json(doc({9: [0, 10**400]}))
    assert str(exc.value) == "/frames/9/right/pos: int too large to convert to float"
    assert calls == [[0, 10**400]]
    # The first bad point in document order is reported, an overflow too.
    calls.clear()
    with pytest.raises(SchemaError) as exc:
        tracking_from_json(doc({3: [10**400, 0], 7: ["0", 0]}))
    assert str(exc.value) == "/frames/3/right/pos: int too large to convert to float"
    assert calls == [[10**400, 0]]


def test_tracking_fixture_loads(route_tracking_doc):
    seq = tracking_from_json(route_tracking_doc)
    assert len(seq.frames) == 30
    assert seq.fps == 25.0


def test_tracking_table_is_the_one_way_in(route_tracking_doc):
    # A sequence is its columns; frames in any other form are refused, not
    # converted around the tracking table's checks.
    frames = tracking_from_json(route_tracking_doc).frames
    with pytest.raises(TypeError, match="tracking_from_json"):
        TrackingSequence(tuple(frames.t), 25.0)
    with pytest.raises(ValueError, match="^no track for "):
        frames.hand(Articulator.DOMINANT)


# --- velocities ----------------------------------------------------------------


def test_velocities_stationary_hand():
    seq = hold_then_move(5, 0, 0)
    v = compute_velocities(seq)[R]
    assert v.x == v.y == [0.0] * 5


def test_velocities_constant_motion():
    frames = [
        mk_frame(0, right=hand(0.0, 0.0)),
        mk_frame(1, right=hand(0.1, 0.0)),
        mk_frame(2, right=hand(0.2, 0.0)),
    ]
    v = compute_velocities(seq_of(frames))[R]
    assert (v.x[0], v.y[0]) == (0.0, 0.0)
    assert (v.x[1], v.y[1]) == (0.1, 0.0)
    assert abs(v.x[2] - 0.1) < 1e-12


def test_velocities_absence_propagates():
    frames = [
        mk_frame(0, right=hand(0.0, 0.0)),
        mk_frame(1),  # dropout
        mk_frame(2, right=hand(0.1, 0.0)),
    ]
    v = compute_velocities(seq_of(frames))[R]
    assert v.x == [0.0, None, None]  # frame 2's previous position is missing
    assert v.y == [0.0, None, None]


# --- segmentation -----------------------------------------------------------------


def test_segment_three_part_derived():
    frames = []
    pos = Vec2(0.0, 0.0)
    for t in range(0, 10):
        frames.append(mk_frame(t, left=hand(pos.x, pos.y)))
    for t in range(10, 20):
        pos = pos + Vec2(0.05 / 2**0.5, 0.05 / 2**0.5)  # NE at 0.05/frame
        frames.append(mk_frame(t, left=hand(pos.x, pos.y)))
    for t in range(20, 30):
        frames.append(mk_frame(t, left=hand(pos.x, pos.y)))
    got = segment(seq_of(frames))
    assert [(s.kind, s.first, s.last) for s in got] == [
        (SegmentKind.KEY_POSTURE, 0, 9),
        (SegmentKind.TRANSITION, 10, 19),
        (SegmentKind.KEY_POSTURE, 20, 29),
    ]


def test_segment_all_still():
    got = segment(hold_then_move(12, 0, 0))
    assert [(s.kind, s.first, s.last) for s in got] == [(SegmentKind.KEY_POSTURE, 0, 11)]


def test_segment_four_postures():
    frames = []
    t = 0
    pos = Vec2(0.0, 0.0)
    bounds = []
    for k in range(4):
        start = t
        for _ in range(6):
            frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
            t += 1
        bounds.append((start, t - 1))
        if k < 3:
            for _ in range(4):
                pos = pos + Vec2(0.06, 0.0)
                frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
                t += 1
    got = segment(seq_of(frames))
    postures = [s for s in got if s.kind == SegmentKind.KEY_POSTURE]
    transitions = [s for s in got if s.kind == SegmentKind.TRANSITION]
    assert len(postures) == 4
    assert len(transitions) == 3
    assert [(p.first, p.last) for p in postures] == bounds


def reference_segment(seq, params):
    """The segments as three separate assemblies build them: one for a
    sequence with no still run, one for a forced posture at the start and
    one for a forced or stretched posture at the end."""
    n = len(seq.frames)
    right, left = compute_velocities(seq).values()
    tau = params.tau_still
    still = [
        (rx is None or math.hypot(rx, ry) < tau) and (lx is None or math.hypot(lx, ly) < tau)
        for rx, ry, lx, ly in zip(right.x, right.y, left.x, left.y)
    ]
    runs = pdlsl.extract._still_runs(still, params.min_still)

    key, trans = SegmentKind.KEY_POSTURE, SegmentKind.TRANSITION
    if not runs:
        head_len = min(params.min_still, n)
        if n - head_len < 2:
            return [Segment(key, 0, n - 1)]
        tail_len = min(params.min_still, n - head_len - 1)
        return [
            Segment(key, 0, head_len - 1),
            Segment(trans, head_len, n - tail_len - 1),
            Segment(key, n - tail_len, n - 1),
        ]

    segments = []
    first_start = runs[0][0]
    if first_start > params.min_still:
        segments.append(Segment(key, 0, params.min_still - 1))
        segments.append(Segment(trans, params.min_still, first_start - 1))
        segments.append(Segment(key, first_start, runs[0][1]))
    else:
        segments.append(Segment(key, 0, runs[0][1]))

    for start, end in runs[1:]:
        segments.append(Segment(trans, segments[-1].last + 1, start - 1))
        segments.append(Segment(key, start, end))

    trailing = (n - 1) - segments[-1].last
    if trailing > params.min_still:
        segments.append(Segment(trans, segments[-1].last + 1, n - params.min_still - 1))
        segments.append(Segment(key, n - params.min_still, n - 1))
    elif trailing > 0:
        segments[-1] = Segment(key, segments[-1].first, n - 1)
    return segments


def test_segment_partitions_and_alternates():
    """On seeded random walks and min_still from 1 to 8, the segments
    partition the frames into alternating postures and transitions, and
    each has the bounds of the reference assembly."""
    rng = random.Random(5)
    for _ in range(300):
        frames = []
        pos = Vec2(0.0, 0.0)
        t = 0
        for _ in range(rng.randint(1, 40)):
            if rng.random() < 0.5:
                pos = pos + Vec2(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
            t += 1
        seq, params = seq_of(frames), SegmentationParams(min_still=rng.randint(1, 8))
        segs = segment(seq, params)
        assert segs == reference_segment(seq, params)
        assert segs[0].first == 0
        assert segs[-1].last == len(frames) - 1
        assert segs[0].kind == SegmentKind.KEY_POSTURE
        assert segs[-1].kind == SegmentKind.KEY_POSTURE
        for a, b in zip(segs, segs[1:]):
            assert b.first == a.last + 1
            assert a.kind != b.kind


def test_segment_forces_boundary_postures_when_sequence_starts_moving():
    # 8 moving frames then 10 still ones: a posture is forced at the start.
    frames = []
    pos = Vec2(0.0, 0.0)
    for t in range(8):
        pos = pos + Vec2(0.06, 0.0)
        frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
    for t in range(8, 18):
        frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
    segs = segment(seq_of(frames))
    assert [s.kind for s in segs] == [
        SegmentKind.KEY_POSTURE,
        SegmentKind.TRANSITION,
        SegmentKind.KEY_POSTURE,
    ]
    assert segs[0].last - segs[0].first + 1 == SegmentationParams().min_still


def test_segment_all_moving_still_yields_postures_at_both_ends():
    frames = []
    pos = Vec2(0.0, 0.0)
    for t in range(12):
        pos = pos + Vec2(0.06, 0.0)
        frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
    segs = segment(seq_of(frames))
    assert segs[0].kind == SegmentKind.KEY_POSTURE
    assert segs[-1].kind == SegmentKind.KEY_POSTURE
    assert segs[0].first == 0 and segs[-1].last == 11


# --- posture valuation ---------------------------------------------------------------


def one_posture(right=None, left=None):
    frames = [mk_frame(t, right=right, left=left) for t in range(5)]
    return seq_of(frames), segment(seq_of(frames))[0]


def posture_cells(right=None, left=None):
    """The cells `posture_valuation` lists for one still posture, and each
    atom's value at the one state of the model built from it."""
    seq, posture = one_posture(right, left)
    model = build_model(seq)
    assert model.state_count == 1
    return (posture_valuation(seq, posture, DEFAULT_PLACE_MAP),
            lambda atom: atom_value(model, 0, atom))


def places(hand_, *names):
    return {At(hand_, name): T for name in names}


def test_posture_valuation_separated_hands():
    cells, value = posture_cells(right=hand(0.3, 0.0), left=hand(-0.3, 0.0))
    assert value(RelDir(R, Direction.E, L)) is T
    assert value(RelDir(R, Direction.W, L)) is F
    assert value(RelDir(L, Direction.W, R)) is T
    assert value(Touch(R, L)) is F  # 0.6 apart
    assert cells == {
        RelDir(R, Direction.E, L): T, RelDir(L, Direction.W, R): T,
        **places(R, "TORSE", "R_SIDEOFBODY", "NEUTRAL"),
        **places(L, "TORSE", "L_SIDEOFBODY", "NEUTRAL"),
    }


def test_posture_valuation_touching_clamps():
    cells, value = posture_cells(
        right=hand(-0.015, 1.1, config="CLAMP"), left=hand(0.015, 1.1, config="CLAMP")
    )
    assert value(Config(R, "CLAMP")) is T
    assert value(Config(L, "CLAMP")) is T
    assert value(Config(R, "FIST")) is F
    assert value(Touch(R, L)) is T  # 0.03 < 0.05
    assert value(At(R, "FACE")) is T
    assert value(RelDir(L, Direction.E, R)) is T
    assert cells == {
        RelDir(R, Direction.W, L): T, RelDir(L, Direction.E, R): T,
        Touch(R, L): T, Touch(L, R): T, Config(R, "CLAMP"): T, Config(L, "CLAMP"): T,
        **places(R, "HEAD", "FACE"), **places(L, "HEAD", "FACE"),
    }


def test_posture_valuation_touch_unknown_band():
    cells, value = posture_cells(right=hand(0.0, 0.0), left=hand(0.07, 0.0))
    assert value(Touch(R, L)) is U  # 0.05 <= 0.07 < 0.10
    assert cells == {
        RelDir(R, Direction.W, L): T, RelDir(L, Direction.E, R): T,
        Touch(R, L): U, Touch(L, R): U,
        **places(R, "TORSE", "CENTEROFBODY", "NEUTRAL"),
        **places(L, "TORSE", "CENTEROFBODY", "NEUTRAL"),
    }


def test_posture_valuation_absent_hand_unknown():
    cells, value = posture_cells(right=None, left=hand(0.0, 0.3))
    assert all(value(RelDir(R, d, L)) is U for d in Direction)
    assert value(Touch(R, L)) is U
    assert value(At(R, "FACE")) is U
    assert value(At(L, "NEUTRAL")) is T
    assert cells == places(L, "CHEST", "TORSE", "CENTEROFBODY", "NEUTRAL")


def test_posture_valuation_orientation_labels():
    cells, value = posture_cells(right=hand(0.0, 0.0, orient=Direction.N), left=hand(0.3, 0.3))
    assert value(Orient(R, Direction.N)) is T
    assert value(Orient(R, Direction.S)) is F
    assert all(value(Orient(L, d)) is U for d in Direction)
    assert cells == {
        RelDir(R, Direction.SW, L): T, RelDir(L, Direction.NE, R): T,
        **{Orient(R, d): T if d is Direction.N else F for d in Direction},
        **places(R, "TORSE", "CENTEROFBODY", "NEUTRAL"),
        **places(L, "CHEST", "TORSE", "R_SIDEOFBODY", "NEUTRAL"),
    }


def test_posture_valuation_coincident_hands():
    cells, value = posture_cells(right=hand(1.5, 1.0), left=hand(1.5, 1.0))
    assert all(value(RelDir(a, d, b)) is U for a, b in ((R, L), (L, R)) for d in Direction)
    assert value(Touch(L, R)) is T
    assert cells == {**{RelDir(a, d, b): U for a, b in ((R, L), (L, R)) for d in Direction},
                     Touch(R, L): T, Touch(L, R): T}


# --- transition actions -----------------------------------------------------------------


def transition_fixture(right_steps, left_steps, lead=4, tail=4):
    """Build hold/move/hold with per-frame steps given per hand."""
    frames = []
    rpos, lpos = Vec2(0.3, 0.0), Vec2(-0.3, 0.0)
    t = 0
    for _ in range(lead):
        frames.append(mk_frame(t, right=hand(rpos.x, rpos.y), left=hand(lpos.x, lpos.y)))
        t += 1
    for rs, ls in zip(right_steps, left_steps):
        rpos = rpos + rs
        lpos = lpos + ls
        frames.append(mk_frame(t, right=hand(rpos.x, rpos.y), left=hand(lpos.x, lpos.y)))
        t += 1
    for _ in range(tail):
        frames.append(mk_frame(t, right=hand(rpos.x, rpos.y), left=hand(lpos.x, lpos.y)))
        t += 1
    seq = seq_of(frames)
    segs = segment(seq)
    transitions = [s for s in segs if s.kind == SegmentKind.TRANSITION]
    assert len(transitions) == 1
    return seq, transitions[0]


def test_transition_single_hand_move():
    zero = Vec2(0.0, 0.0)
    step = Vec2(0.05, 0.05)
    seq, tr = transition_fixture([zero] * 6, [step] * 6)
    assert transition_action(seq, tr) == Atomic(Move(L, Direction.NE))


def test_transition_concurrent_moves():
    seq, tr = transition_fixture([Vec2(-0.05, 0)] * 8, [Vec2(0.05, 0)] * 8)
    assert transition_action(seq, tr) == Concurrent(
        Atomic(Move(R, Direction.W)), Atomic(Move(L, Direction.E))
    )


def test_transition_thrill_both_hands():
    # Positions oscillate +-0.01 around the rest point: 0.02 per frame,
    # alternating sign, net close to zero.
    steps = []
    for i in range(10):
        steps.append(Vec2(0.02, 0.0) if i % 2 == 0 else Vec2(-0.02, 0.0))
    seq, tr = transition_fixture(steps, steps)
    assert transition_action(seq, tr) == Concurrent(Atomic(Thrill(R)), Atomic(Thrill(L)))


def test_transition_epsilon_when_nothing_qualifies():
    # One fast out-and-back step: net displacement under the move threshold
    # and a single reversal, so neither hand contributes.
    steps = [Vec2(0.025, 0.0), Vec2(-0.025, 0.0)]
    zero = [Vec2(0.0, 0.0)] * 2
    seq, tr = transition_fixture(steps, zero)
    assert transition_action(seq, tr) is None


# --- validation ----------------------------------------------------------------------------


def test_validate_teleport_voids_position():
    frames = [mk_frame(t, right=hand(0.0, 0.0)) for t in range(5)]
    frames[3] = mk_frame(3, right=hand(2.0, 0.0))
    cleaned, diags = validate_sequence(seq_of(frames), SegmentationParams())
    assert [d.code for d in diags] == ["teleport"]
    assert diags[0].frame == 3 and diags[0].hand == "R"
    assert cleaned.frames.right.point(3) is None


def test_validate_clean_sequence_unchanged():
    seq = hold_then_move(4, 4, 4)
    cleaned, diags = validate_sequence(seq, SegmentationParams())
    assert diags == []
    assert cleaned == seq


def test_validate_duplicate_frame_dropped():
    frames = [mk_frame(5, right=hand(0, 0)), mk_frame(5, right=hand(0.01, 0)), mk_frame(6, right=hand(0, 0))]
    cleaned, diags = validate_sequence(seq_of(frames), SegmentationParams())
    assert [d.code for d in diags] == ["duplicate-frame"]
    assert cleaned.frames.t == [5, 6]


def test_validate_non_monotone_raises():
    frames = [mk_frame(5, right=hand(0, 0)), mk_frame(3, right=hand(0, 0))]
    with pytest.raises(NonMonotoneTimestamps):
        validate_sequence(seq_of(frames), SegmentationParams())


# --- normalization --------------------------------------------------------------------------


def test_normalize_follows_head():
    # Head at (10, 13.2), scale 1: origin (10, 12); a hand at (10.5, 12.0)
    # lands half a unit right of the torso origin.
    frames = [mk_frame(0, head=(10.0, 13.2), right=hand(10.5, 12.0))]
    normalized, diags = normalize_sequence(seq_of(frames))
    assert diags == []
    assert normalized.frames.right.point(0) == Vec2(0.5, 0.0)
    head = normalized.frames.head.point(0)
    assert abs(head.x) < 1e-9 and abs(head.y - 1.2) < 1e-9


def test_normalize_reuses_origin_across_head_dropout():
    frames = [
        mk_frame(0, head=(0.0, 1.2), right=hand(0.5, 0.0)),
        mk_frame(1, head=None, right=hand(0.5, 0.0)),
    ]
    normalized, _ = normalize_sequence(seq_of(frames))
    assert normalized.frames.right.point(1) == Vec2(0.5, 0.0)


def test_normalize_without_any_head_is_identity_with_diagnostic():
    frames = [mk_frame(0, head=None, right=hand(0.25, 0.5))]
    normalized, diags = normalize_sequence(seq_of(frames))
    assert [d.code for d in diags] == ["no-head-reference"]
    assert normalized.frames.right.point(0) == Vec2(0.25, 0.5)


def test_normalize_explicit_origin_and_scale():
    frames = [mk_frame(0, head=None, right=hand(20.0, 10.0))]
    normalized, diags = normalize_sequence(
        seq_of(frames), body_origin=Vec2(10.0, 10.0), body_scale=10.0
    )
    assert diags == []
    assert normalized.frames.right.point(0) == Vec2(1.0, 0.0)


def test_normalize_mirrored_negates_x():
    frames = [mk_frame(0, head=(0.0, 1.2), right=hand(0.5, 0.0))]
    normalized, _ = normalize_sequence(seq_of(frames, mirrored=True))
    assert normalized.frames.right.point(0) == Vec2(-0.5, 0.0)


# --- build_model ------------------------------------------------------------------------------


def test_build_model_two_states(route_tracking_doc):
    seq = tracking_from_json(route_tracking_doc)
    model, diags = extract_model(seq)
    assert diags == []
    assert model.state_count == 2
    assert model.relation == frozenset({(0, 1), (1, 1)})
    assert model.action_interp[Move(R, Direction.W)] == frozenset({(0, 1)})
    assert model.action_interp[Move(L, Direction.E)] == frozenset({(0, 1)})


def test_build_model_single_state_self_loop():
    model = build_model(hold_then_move(10, 0, 0))
    assert model.state_count == 1
    assert model.relation == frozenset({(0, 0)})
    assert model.action_interp == {}


def test_build_model_merges_identical_postures_around_thrill():
    frames = []
    t = 0
    rpos, lpos = Vec2(0.3, 0.0), Vec2(-0.3, 0.0)

    def emit(n, r, l):
        nonlocal t
        for _ in range(n):
            frames.append(mk_frame(t, right=hand(r.x, r.y), left=hand(l.x, l.y)))
            t += 1

    emit(10, rpos, lpos)
    for i in range(5):  # left moves NE
        lpos = lpos + Vec2(0.05, 0.05)
        emit(1, rpos, lpos)
    emit(10, rpos, lpos)
    for i in range(10):  # both thrill in place
        osc = Vec2(0.01, 0.0) if i % 2 == 0 else Vec2(-0.01, 0.0)
        emit(1, rpos + osc, lpos + osc)
    emit(10, rpos, lpos)  # identical posture again
    for i in range(5):  # left moves SW
        lpos = lpos + Vec2(-0.05, -0.05)
        emit(1, rpos, lpos)
    emit(10, rpos, lpos)

    model = build_model(seq_of(frames))
    assert model.state_count == 3
    assert (1, 1) in model.relation
    assert model.action_interp[Thrill(R)] == frozenset({(1, 1)})
    assert model.action_interp[Thrill(L)] == frozenset({(1, 1)})
    assert model.action_interp[Move(L, Direction.NE)] == frozenset({(0, 1)})
    assert model.action_interp[Move(L, Direction.SW)] == frozenset({(1, 2)})


def held_thrill_held(first_median_seen: bool):
    """The right hand alone, held at a point outside every default place,
    thrilled in place, then held there again, so the two postures value no
    atom apart from their defaults. Unless `first_median_seen`, the first
    posture's median frame lost the hand."""
    rest = Vec2(1.5, 1.0)
    frames = [mk_frame(t, right=hand(rest.x, rest.y)) for t in range(9)]
    if not first_median_seen:
        frames[4] = mk_frame(4)
    for i in range(10):
        x = rest.x + (0.02 if i % 2 == 0 else -0.02)
        frames.append(mk_frame(len(frames), right=hand(x, rest.y)))
    frames += [mk_frame(len(frames), right=hand(rest.x, rest.y)) for _ in range(9)]
    return seq_of(frames)


def test_thrill_merges_postures_only_with_equal_observations():
    merged = build_model(held_thrill_held(first_median_seen=True))
    assert merged.state_count == 1
    assert merged.action_interp == {Thrill(R): frozenset({(0, 0)})}
    seq = held_thrill_held(first_median_seen=False)
    first, second = (s for s in segment(seq) if s.kind == SegmentKind.KEY_POSTURE)
    assert posture_valuation(seq, first, DEFAULT_PLACE_MAP) == {}
    assert posture_valuation(seq, second, DEFAULT_PLACE_MAP) == {}
    kept = build_model(seq)
    assert kept.state_count == 2
    assert kept.action_interp == {Thrill(R): frozenset({(0, 1)})}
    assert kept.observed == (frozenset(), frozenset({R}))


def test_build_model_outputs_are_serial():
    rng = random.Random(11)
    for _ in range(20):
        frames = []
        pos = Vec2(0.0, 0.0)
        for t in range(rng.randint(1, 50)):
            if rng.random() < 0.4:
                pos = pos + Vec2(rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08))
            frames.append(mk_frame(t, right=hand(pos.x, pos.y)))
        model = build_model(seq_of(frames))
        sources = {s for s, _ in model.relation}
        assert sources == set(range(model.state_count))


def test_rel_dir_valuation_exclusive_on_extracted_models():
    rng = random.Random(13)
    for _ in range(15):
        frames = []
        rpos, lpos = Vec2(0.3, 0.0), Vec2(-0.3, 0.0)
        for t in range(rng.randint(1, 40)):
            if rng.random() < 0.4:
                rpos = rpos + Vec2(rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08))
                lpos = lpos + Vec2(rng.uniform(-0.08, 0.08), rng.uniform(-0.08, 0.08))
            frames.append(mk_frame(t, right=hand(rpos.x, rpos.y), left=hand(lpos.x, lpos.y)))
        model = build_model(seq_of(frames))
        for state in range(model.state_count):
            for subject, anchor in ((R, L), (L, R)):
                values = [atom_value(model, state, RelDir(subject, d, anchor)) for d in Direction]
                trues = values.count(T)
                assert trues <= 1
                if trues == 1:
                    assert values.count(F) == 7


def test_monotone_degradation_voiding_positions(route_tracking_doc):
    seq = tracking_from_json(route_tracking_doc)
    base, _ = extract_model(seq)
    for idx in range(len(seq.frames)):
        for key in ("right", "left"):
            doc = json.loads(json.dumps(route_tracking_doc))
            doc["frames"][idx][key].pop("pos", None)
            degraded, _ = extract_model(tracking_from_json(doc))
            assert degraded.state_count == base.state_count
            for state in base.states():
                for atom in vocabulary(base, DEFAULT_PLACE_MAP):
                    value = atom_value(base, state, atom)
                    if value is U:
                        continue
                    after = atom_value(degraded, state, atom)
                    assert after in (value, U), (idx, key, state, atom, value, after)


# --- linear, windowed transition labeling -------------------------------------------------


def posture_walk(postures, rng, hold=8, move=6):
    """Two-hand sequence of `postures` key postures, each held `hold` frames
    and joined by `move`-frame straight moves of both hands."""
    frames = []
    rpos, lpos = Vec2(0.3, 0.0), Vec2(-0.3, 0.0)

    def emit():
        frames.append(mk_frame(len(frames), right=hand(rpos.x, rpos.y), left=hand(lpos.x, lpos.y)))

    for p in range(postures):
        if p:
            rstep = Vec2(rng.uniform(-0.08, 0.08), rng.choice((-0.06, 0.06)))
            lstep = Vec2(rng.choice((-0.06, 0.06)), rng.uniform(-0.08, 0.08))
            for _ in range(move):
                rpos, lpos = rpos + rstep, lpos + lstep
                emit()
        for _ in range(hold):
            emit()
    return seq_of(frames)


def test_build_model_reads_velocities_of_each_frame_a_bounded_number_of_times(monkeypatch):
    seq = posture_walk(80, random.Random(3))
    frames_read = []

    def counting(s, first=0, last=None):
        frames_read.append((len(s.frames) - 1 if last is None else last) - first + 1)
        return compute_velocities(s, first, last)

    monkeypatch.setattr(pdlsl.extract, "compute_velocities", counting)
    model = build_model(seq)
    assert model.state_count == 80
    assert sum(frames_read) <= 3 * len(seq.frames)


def test_model_file_is_written_as_json_dumps_indent_2_on_a_multi_state_model():
    # The goldens hold 2-state models only. Extraction lists no False
    # position cell and no Unknown cell here, so overrides add both.
    model = build_model(posture_walk(12, random.Random(5)))
    overrides = [Override(3, Touch(R, L), F), Override(7, Orient(L, Direction.N), U)]
    doc = model_to_json(apply_overrides(model, overrides, Handedness.RIGHT_DOMINANT))
    assert doc["states"] == 12 and len(doc["actions"]) > 2
    assert {cell["value"] for cell in doc["valuation"]} == {"true", "false", "unknown"}
    assert _dump_json(doc) == json.dumps(doc, indent=2) + "\n"


def _reference_reversal_burst(velocities, first, last, params):
    reversals = []
    for i in range(first + 1, last + 1):
        v_prev, v_cur = velocities[i - 1], velocities[i]
        if v_prev is None or v_cur is None:
            continue
        if v_prev.x * v_cur.x + v_prev.y * v_cur.y < 0:
            reversals.append(i)
    for j, frame_idx in enumerate(reversals):
        in_window = sum(1 for r in reversals[j:] if r < frame_idx + params.thrill_window)
        if in_window >= params.thrill_min_reversals:
            return True
    return False


def _velocities_with_reversals(rng, n, gap):
    """`n` velocities, some missing, whose sign flips about every `gap`
    frames."""
    velocities, sign = [], 1.0
    for _ in range(n):
        if rng.random() < 1 / gap:
            sign = -sign
        v = Vec2(sign * rng.uniform(0.001, 0.05), rng.uniform(-1e-3, 1e-3))
        velocities.append(None if rng.random() < 0.03 else v)
    return velocities


@pytest.mark.parametrize("seed", range(24))
def test_reversal_burst_matches_reference(seed):
    rng = random.Random(seed)
    n = rng.choice((rng.randint(2, 60), rng.randint(1000, 5000)))
    velocities = _velocities_with_reversals(rng, n, rng.choice((1.2, 3, 8, 40)))
    params = SegmentationParams(thrill_window=rng.randint(1, 10),
                                thrill_min_reversals=rng.randint(1, 6))
    track = Track([None if v is None else v.x for v in velocities],
                  [None if v is None else v.y for v in velocities])
    assert pdlsl.extract._reversal_burst(track, params) == _reference_reversal_burst(
        velocities, 0, n - 1, params
    )


def reference_velocities(seq, h):
    """Whole-sequence velocities of hand `h` as Vec2s, read off the
    columns one frame at a time."""
    positions = [seq.frames.hand(h).point(i) for i in range(len(seq.frames))]
    return [
        None if p is None else Vec2(0.0, 0.0) if i == 0
        else None if positions[i - 1] is None else p - positions[i - 1]
        for i, p in enumerate(positions)
    ]


def reference_transition_action(seq, transition, params):
    """The label computed from whole-sequence velocities."""
    velocities = {h: reference_velocities(seq, h) for h in (R, L)}
    window_first = max(transition.first - 1, 0)
    contributions = []
    for h in (R, L):
        positions = [seq.frames.hand(h).point(i) for i in range(window_first, transition.last + 1)]
        present = [p for p in positions if p is not None]
        if len(present) < 2:
            continue
        net = present[-1] - present[0]
        if net.norm >= params.thrill_net_disp:
            contributions.append(Atomic(Move(h, classify_direction(net))))
            continue
        speeds = [
            velocities[h][i].norm
            for i in range(transition.first, transition.last + 1)
            if velocities[h][i] is not None
        ]
        mean_speed = sum(speeds) / len(speeds) if speeds else 0.0
        if mean_speed >= params.tau_still and _reference_reversal_burst(
            velocities[h], transition.first, transition.last, params
        ):
            contributions.append(Atomic(Thrill(h)))
    if not contributions:
        return None
    if len(contributions) == 1:
        return contributions[0]
    return Concurrent(contributions[0], contributions[1])


def random_transition(seed):
    """A two-hand sequence of up to 40 frames mixing oscillation, drift and
    dropouts (often at the frame before the window), and one transition in
    it, starting at frame 0 about a third of the time."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    first = 0 if rng.random() < 0.3 else rng.randrange(1, n)
    last = rng.randrange(first, n)
    positions = {R: Vec2(0.3, 0.0), L: Vec2(-0.3, 0.0)}
    frames = []
    for t in range(n):
        observed = {}
        for h in (R, L):
            if rng.random() < 0.5:
                step = Vec2(0.02 if t % 2 else -0.02, 0.0)
            else:
                step = Vec2(rng.uniform(-0.03, 0.03), rng.uniform(-0.03, 0.03))
            positions[h] = positions[h] + step
            dropped = rng.random() < 0.15 or (t == first - 1 and rng.random() < 0.5)
            observed[h] = hand() if dropped else hand(positions[h].x, positions[h].y)
        frames.append(mk_frame(t, right=observed[R], left=observed[L]))
    params = SegmentationParams(thrill_net_disp=rng.choice((0.03, 0.1, 1.0)))
    return seq_of(frames), Segment(SegmentKind.TRANSITION, first, last), params


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_transition_action_matches_whole_sequence_reference(seed):
    seq, transition, params = random_transition(seed)
    assert transition_action(seq, transition, params) == reference_transition_action(
        seq, transition, params
    )
