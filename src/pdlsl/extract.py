"""From 2-D tracking data to an utterance model.

The pipeline normalizes raw tracker coordinates into body units, repairs
obvious tracking faults, cuts the sequence into alternating key postures
and transitions on a per-frame stillness test, synthesizes a three-valued
atomic valuation for every posture and an action label for every
transition, and assembles the serial transition system.

All thresholds live in SegmentationParams. The defaults are chosen to make
the synthetic fixtures deterministic; they are not tuned to any corpus.

A tracking file is read by `tracking_from_json`, which checks it against
the tracking table of `schema` and builds the frames in the same walk.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace
from typing import Any

from .core import (
    Action,
    Articulator,
    At,
    Atom,
    Atomic,
    AtomicAction,
    Concurrent,
    Config,
    Direction,
    Move,
    Orient,
    RelDir,
    Thrill,
    Touch,
    iter_atomic_actions,
)
from .errors import EmptySequence, NoKeyPosture, NonMonotoneTimestamps
from .geometry import (
    DEFAULT_PLACE_MAP,
    VEC,
    BodyFrame,
    PlaceMap,
    Vec2,
    classify_direction,
    normalize,
    relative_direction,
)
from .model import SegmentationParams, ThreeVal, UtteranceModel
from .schema import array, boolean, check, choice, const, integer, number, optional, string, table

_HANDS = (Articulator.RIGHT, Articulator.LEFT)

# Normalized height of the head center above the torso origin; used when the
# body frame is derived from the tracked head rather than configured.
_HEAD_HEIGHT = 1.2


@dataclass(frozen=True, slots=True)
class HandObservation:
    """One hand in one frame; every field may be missing (tracker dropout)."""

    pos: Vec2 | None = None
    config: str | None = None
    orient: Direction | None = None


_NO_HAND = HandObservation()


@dataclass(frozen=True, slots=True)
class TrackingFrame:
    t: int
    head: Vec2 | None = None
    right: HandObservation = _NO_HAND
    left: HandObservation = _NO_HAND

    def hand(self, articulator: Articulator) -> HandObservation:
        if articulator is Articulator.RIGHT:
            return self.right
        if articulator is Articulator.LEFT:
            return self.left
        raise ValueError(f"no track for {articulator}")


@dataclass(frozen=True, slots=True)
class TrackingSequence:
    frames: tuple[TrackingFrame, ...]
    fps: float
    mirrored: bool = False

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a tracking sequence needs at least one frame")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError("fps must be positive")


class SegmentKind:
    KEY_POSTURE = "key_posture"
    TRANSITION = "transition"


@dataclass(frozen=True, slots=True)
class Segment:
    """A contiguous frame range [first, last], either a key posture or the
    transition between two postures."""

    kind: str
    first: int
    last: int

    def __post_init__(self) -> None:
        if self.first > self.last:
            raise ValueError("segment bounds out of order")


@dataclass(frozen=True, slots=True)
class Diagnostic:
    """Machine-readable note about a repaired or suspicious input."""

    code: str
    message: str
    frame: int | None = None
    hand: str | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"diagnostic": self.code, "message": self.message}
        if self.frame is not None:
            out["frame"] = self.frame
        if self.hand is not None:
            out["hand"] = self.hand
        return out


class EpsilonMove:
    """Label of a transition in which no hand met the movement criteria.
    The edge keeps consecutive states connected but belongs to no atomic
    action's interpretation. Its one instance is EPSILON_MOVE."""

    def __repr__(self) -> str:
        return "EPSILON_MOVE"


EPSILON_MOVE = EpsilonMove()

TransitionLabel = Action | EpsilonMove


# --- Input parsing -----------------------------------------------------------


# Every field of a hand and of a frame but `t` may be missing or null: a
# tracker dropout.
_HAND = table("hand", {
    "pos": optional(VEC, null=True),
    "config": optional(string(), null=True),
    "orient": optional(choice(Direction.__members__), null=True),
}, HandObservation)
_TRACKING = table("tracking", {
    "format": optional(const(1)),
    "fps": number(positive=True, build=float),
    "mirrored": optional(boolean(), False),
    "frames": array(table("frame", {
        "t": integer(0),
        "head": optional(VEC, null=True),
        "right": optional(_HAND, _NO_HAND, null=True),
        "left": optional(_HAND, _NO_HAND, null=True),
    }, TrackingFrame), non_empty=True),
}, lambda _format, fps, mirrored, frames: TrackingSequence(tuple(frames), fps, mirrored))


def tracking_from_json(obj: Any) -> TrackingSequence:
    """Build a raw tracking sequence from the parsed input file structure,
    checked against the tracking table."""
    return check(_TRACKING, obj)


# --- Normalization -----------------------------------------------------------


def normalize_sequence(
    seq: TrackingSequence,
    body_origin: Vec2 | None = None,
    body_scale: float | None = None,
) -> tuple[TrackingSequence, list[Diagnostic]]:
    """Rewrite every position into body units.

    The scale is the configured constant when given, else the first frame's
    head-to-origin distance when an origin is configured, else 1. Without a
    configured origin the frame follows the tracked head (head center pinned
    at (0, 1.2)), reusing the previous origin across head dropouts; with no
    head anywhere coordinates pass through unchanged and a diagnostic says so.
    """
    diagnostics: list[Diagnostic] = []
    first_head = next((f.head for f in seq.frames if f.head is not None), None)
    if body_scale is not None:
        scale = body_scale
    elif body_origin is not None and first_head is not None and (first_head - body_origin).norm > 0:
        scale = (first_head - body_origin).norm
    else:
        scale = 1.0
    if first_head is None and body_origin is None:
        diagnostics.append(
            Diagnostic(
                "no-head-reference",
                "no head position and no configured origin; coordinates taken as body units",
            )
        )

    def origin_for(frame: TrackingFrame, previous: Vec2 | None) -> Vec2:
        if body_origin is not None:
            return body_origin
        if frame.head is not None:
            return Vec2(frame.head.x, frame.head.y - _HEAD_HEIGHT * scale)
        if previous is not None:
            return previous
        if first_head is not None:
            return Vec2(first_head.x, first_head.y - _HEAD_HEIGHT * scale)
        return Vec2(0.0, 0.0)

    frames = []
    previous: Vec2 | None = None
    for frame in seq.frames:
        origin = origin_for(frame, previous)
        previous = origin
        body = BodyFrame(origin=origin, scale=scale)

        def norm_pos(p: Vec2 | None) -> Vec2 | None:
            return None if p is None else normalize(p, body, seq.mirrored)

        frames.append(
            TrackingFrame(
                t=frame.t,
                head=norm_pos(frame.head),
                right=HandObservation(
                    pos=norm_pos(frame.right.pos),
                    config=frame.right.config,
                    orient=frame.right.orient,
                ),
                left=HandObservation(
                    pos=norm_pos(frame.left.pos),
                    config=frame.left.config,
                    orient=frame.left.orient,
                ),
            )
        )
    return TrackingSequence(tuple(frames), seq.fps, seq.mirrored), diagnostics


# --- Validation --------------------------------------------------------------


def _void_hand_pos(frame: TrackingFrame, articulator: Articulator) -> TrackingFrame:
    obs = frame.hand(articulator)
    voided = HandObservation(pos=None, config=obs.config, orient=obs.orient)
    if articulator is Articulator.RIGHT:
        return TrackingFrame(t=frame.t, head=frame.head, right=voided, left=frame.left)
    return TrackingFrame(t=frame.t, head=frame.head, right=frame.right, left=voided)


def validate_sequence(
    seq: TrackingSequence, params: SegmentationParams
) -> tuple[TrackingSequence, list[Diagnostic]]:
    """Repair tracking faults in a normalized sequence.

    Duplicate frame indices drop the later frame; decreasing indices are an
    unrecoverable NonMonotoneTimestamps error; a per-frame displacement above
    max_jump (an overflowing one included) voids the offending position so
    it degrades to Unknown downstream rather than poisoning the model.
    """
    diagnostics: list[Diagnostic] = []
    frames: list[TrackingFrame] = []
    last_t: int | None = None
    for i, frame in enumerate(seq.frames):
        if last_t is not None:
            if frame.t == last_t:
                diagnostics.append(
                    Diagnostic("duplicate-frame", f"frame index {frame.t} repeated; later dropped", frame=frame.t)
                )
                continue
            if frame.t < last_t:
                raise NonMonotoneTimestamps(i, last_t, frame.t)
        frames.append(frame)
        last_t = frame.t

    for hand in _HANDS:
        prev: Vec2 | None = None
        for i, frame in enumerate(frames):
            pos = frame.hand(hand).pos
            if pos is None:
                continue
            # On floats, not a Vec2: a displacement that overflows a double
            # is an infinite jump, voided like any other.
            jump = math.hypot(pos.x - prev.x, pos.y - prev.y) if prev is not None else 0.0
            if jump > params.max_jump:
                diagnostics.append(
                    Diagnostic(
                        "teleport",
                        f"{hand.value} hand jumped {jump:.3f} body units in one frame",
                        frame=frame.t,
                        hand=hand.value,
                    )
                )
                frames[i] = _void_hand_pos(frame, hand)
                prev = None
                continue
            prev = pos

    diagnostics.sort(key=lambda d: (d.frame if d.frame is not None else -1, d.code, d.hand or ""))
    return TrackingSequence(tuple(frames), seq.fps, seq.mirrored), diagnostics


# --- Velocities and segmentation ---------------------------------------------


def compute_velocities(seq: TrackingSequence) -> dict[Articulator, list[Vec2 | None]]:
    """Backward-difference velocity per hand and frame, in body units per
    frame. The first frame moves nothing; missing positions propagate."""
    if not seq.frames:
        raise EmptySequence("no frames")
    out: dict[Articulator, list[Vec2 | None]] = {}
    for hand in _HANDS:
        velocities: list[Vec2 | None] = []
        for i, frame in enumerate(seq.frames):
            pos = frame.hand(hand).pos
            if pos is None:
                velocities.append(None)
                continue
            if i == 0:
                velocities.append(Vec2(0.0, 0.0))
                continue
            prev = seq.frames[i - 1].hand(hand).pos
            velocities.append(None if prev is None else pos - prev)
        out[hand] = velocities
    return out


def _still_mask(seq: TrackingSequence, params: SegmentationParams) -> list[bool]:
    velocities = compute_velocities(seq)
    mask = []
    for i in range(len(seq.frames)):
        speeds = [velocities[h][i].norm for h in _HANDS if velocities[h][i] is not None]
        mask.append(all(s < params.tau_still for s in speeds))
    return mask


def _still_runs(mask: list[bool], min_still: int) -> list[tuple[int, int]]:
    runs = []
    start: int | None = None
    for i, still in enumerate(mask + [False]):
        if still and start is None:
            start = i
        elif not still and start is not None:
            if i - start >= min_still:
                runs.append((start, i - 1))
            start = None
    return runs


def segment(seq: TrackingSequence, params: SegmentationParams | None = None) -> list[Segment]:
    """Partition the frame range into alternating key postures and
    transitions; the first and last segments are always key postures.

    A frame is still when every hand with a known velocity is slower than
    tau_still. Runs of at least min_still still frames are posture cores.
    A short burst of movement at either boundary is absorbed into the
    nearest posture; a long one gets a forced posture of min_still frames
    at the boundary so the alternation invariant holds.
    """
    params = params or SegmentationParams()
    n = len(seq.frames)
    if n == 0:
        raise EmptySequence("no frames")
    runs = _still_runs(_still_mask(seq, params), params.min_still)

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

    segments: list[Segment] = []
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


# --- Posture valuation -------------------------------------------------------


def _representative(segment_: Segment) -> int:
    return (segment_.first + segment_.last) // 2


def posture_valuation(
    seq: TrackingSequence,
    posture: Segment,
    place_map: PlaceMap,
    params: SegmentationParams | None = None,
    config_labels: Iterable[str] = (),
) -> dict[Atom, ThreeVal]:
    """Three-valued atoms at a key posture, read off its median frame.

    Exactly one relative direction holds per ordered hand pair; place atoms
    follow rectangle containment; touch uses the hand distance with an
    unknown band around the threshold; configuration and orientation come
    from labels when present. Anything unobservable is Unknown, never a
    guess.
    """
    if posture.kind != SegmentKind.KEY_POSTURE:
        raise ValueError("valuation is defined on key postures")
    params = params or SegmentationParams()
    frame = seq.frames[_representative(posture)]
    right, left = frame.right.pos, frame.left.pos
    labels = sorted(set(config_labels))
    val: dict[Atom, ThreeVal] = {}

    pair_known = right is not None and left is not None and right != left
    for subject, anchor, s_pos, a_pos in (
        (Articulator.RIGHT, Articulator.LEFT, right, left),
        (Articulator.LEFT, Articulator.RIGHT, left, right),
    ):
        winner = relative_direction(s_pos, a_pos) if pair_known else None
        for d in Direction:
            atom = RelDir(subject, d, anchor)
            if winner is None:
                val[atom] = ThreeVal.UNKNOWN
            else:
                val[atom] = ThreeVal.from_bool(d is winner)

    for hand, pos in ((Articulator.RIGHT, right), (Articulator.LEFT, left)):
        for place in place_map:
            atom = At(hand, place.name)
            if pos is None:
                val[atom] = ThreeVal.UNKNOWN
            else:
                val[atom] = ThreeVal.from_bool(place.region.contains(pos.x, pos.y))

    if right is not None and left is not None:
        distance = (right - left).norm
        if distance < params.tau_touch:
            touching = ThreeVal.TRUE
        elif distance < params.tau_touch + params.touch_unknown_band:
            touching = ThreeVal.UNKNOWN
        else:
            touching = ThreeVal.FALSE
    else:
        touching = ThreeVal.UNKNOWN
    val[Touch(Articulator.RIGHT, Articulator.LEFT)] = touching
    val[Touch(Articulator.LEFT, Articulator.RIGHT)] = touching

    for hand in _HANDS:
        seen = frame.hand(hand).config
        if seen is not None:
            val[Config(hand, seen)] = ThreeVal.TRUE
            for label in labels:
                if label != seen:
                    val[Config(hand, label)] = ThreeVal.FALSE
        else:
            for label in labels:
                val[Config(hand, label)] = ThreeVal.UNKNOWN

    for hand in _HANDS:
        toward = frame.hand(hand).orient
        for d in Direction:
            atom = Orient(hand, d)
            if toward is None:
                val[atom] = ThreeVal.UNKNOWN
            else:
                val[atom] = ThreeVal.from_bool(d is toward)
    return val


# --- Transition actions -------------------------------------------------------


def _reversal_burst(
    velocities: list[Vec2 | None], first: int, last: int, params: SegmentationParams
) -> bool:
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


def transition_action(
    seq: TrackingSequence,
    transition: Segment,
    params: SegmentationParams | None = None,
) -> TransitionLabel:
    """Action label of a transition.

    Per hand: the net displacement over the segment classifies a move when
    large enough; otherwise a burst of velocity reversals at speed marks a
    thrill; otherwise the hand contributes nothing. Both hands combine
    concurrently; with no contribution at all the label is the epsilon move.

    Only the transition's own window, the frame before it through its last
    frame, is read: velocities are computed over that slice alone, so
    labeling every transition of a sequence costs time linear in frames.
    """
    if transition.kind != SegmentKind.TRANSITION:
        raise ValueError("action labels are defined on transitions")
    params = params or SegmentationParams()
    window_first = max(transition.first - 1, 0)
    window = seq.frames[window_first : transition.last + 1]
    # A velocity at frame i reads only frames i-1 and i, so the window's own
    # velocities at first..last equal the whole sequence's; at first == 0 the
    # window starts at frame 0, which keeps its zero velocity.
    velocities = compute_velocities(replace(seq, frames=window))
    first, last = transition.first - window_first, transition.last - window_first
    contributions: list[Action] = []
    for hand in _HANDS:
        positions = [f.hand(hand).pos for f in window]
        present = [p for p in positions if p is not None]
        if len(present) < 2:
            continue
        net = present[-1] - present[0]
        if net.norm >= params.thrill_net_disp:
            contributions.append(Atomic(Move(hand, classify_direction(net))))
            continue
        speeds = [v.norm for v in velocities[hand][first : last + 1] if v is not None]
        mean_speed = sum(speeds) / len(speeds) if speeds else 0.0
        if mean_speed >= params.tau_still and _reversal_burst(
            velocities[hand], first, last, params
        ):
            contributions.append(Atomic(Thrill(hand)))
    if not contributions:
        return EPSILON_MOVE
    if len(contributions) == 1:
        return contributions[0]
    return Concurrent(contributions[0], contributions[1])


# --- Model assembly ----------------------------------------------------------


def _is_pure_thrill(label: TransitionLabel) -> bool:
    if isinstance(label, EpsilonMove):
        return False
    actions = list(iter_atomic_actions(label))
    return bool(actions) and all(isinstance(a, Thrill) for a in actions)


def build_model(
    seq: TrackingSequence,
    params: SegmentationParams | None = None,
    place_map: PlaceMap | None = None,
    config_labels: Iterable[str] = (),
) -> UtteranceModel:
    """Assemble the utterance model from a normalized, validated sequence.

    One state per key posture in temporal order. A pure-thrill transition
    between two postures with identical valuations collapses into a
    self-loop on the single shared state. The final state gets an unlabeled
    self-loop so every state has a successor; that loop belongs to no
    action's interpretation.
    """
    params = params or SegmentationParams()
    place_map = place_map or DEFAULT_PLACE_MAP
    labels = tuple(sorted(set(config_labels)))
    segments = segment(seq, params)
    postures = [s for s in segments if s.kind == SegmentKind.KEY_POSTURE]
    transitions = [s for s in segments if s.kind == SegmentKind.TRANSITION]
    if not postures:
        raise NoKeyPosture("segmentation produced no key posture")

    valuations: list[dict[Atom, ThreeVal]] = []
    observed: list[frozenset[Articulator]] = []
    configs: list[dict[Articulator, str | None]] = []
    edges: list[tuple[int, int, TransitionLabel]] = []
    # The first posture has no transition before it.
    for transition, posture in zip((None, *transitions), postures):
        valuation = posture_valuation(seq, posture, place_map, params, labels)
        current = len(valuations) - 1
        if transition is not None:
            label = transition_action(seq, transition, params)
            if _is_pure_thrill(label) and valuation == valuations[current]:
                edges.append((current, current, label))
                continue
            edges.append((current, current + 1, label))
        frame = seq.frames[_representative(posture)]
        valuations.append(valuation)
        observed.append(frozenset(h for h in _HANDS if frame.hand(h).pos is not None))
        configs.append({h: frame.hand(h).config for h in _HANDS})

    state_count = len(valuations)
    relation = {(s, t) for s, t, _ in edges}
    relation.add((state_count - 1, state_count - 1))  # seriality repair
    interp: dict[AtomicAction, set[tuple[int, int]]] = {}
    for s, t, label in edges:
        if isinstance(label, EpsilonMove):
            continue
        for atomic in iter_atomic_actions(label):
            interp.setdefault(atomic, set()).add((s, t))

    flat_valuation = {
        (state, atom): value
        for state, val in enumerate(valuations)
        for atom, value in val.items()
    }
    return UtteranceModel(
        state_count=state_count,
        relation=frozenset(relation),
        action_interp={a: frozenset(pairs) for a, pairs in interp.items()},
        valuation=flat_valuation,
        observed=tuple(observed),
        config_observed=tuple(configs),
        meta={
            "fps": seq.fps,
            "mirrored": seq.mirrored,
            "segmentation": asdict(params),
        },
    )


def extract_model(
    raw: TrackingSequence,
    params: SegmentationParams | None = None,
    place_map: PlaceMap | None = None,
    config_labels: Iterable[str] = (),
    body_origin: Vec2 | None = None,
    body_scale: float | None = None,
) -> tuple[UtteranceModel, list[Diagnostic]]:
    """Full pipeline: normalize, validate, segment, and build the model."""
    params = params or SegmentationParams()
    normalized, d1 = normalize_sequence(raw, body_origin, body_scale)
    cleaned, d2 = validate_sequence(normalized, params)
    model = build_model(cleaned, params, place_map, config_labels)
    return model, d1 + d2
