"""From 2-D tracking data to an utterance model.

The pipeline normalizes raw tracker coordinates into body units, repairs
obvious tracking faults, cuts the sequence into alternating key postures
and transitions on a per-frame stillness test, synthesizes a three-valued
atomic valuation for every posture and an action label for every
transition in which a hand moved, and assembles the serial transition
system.

All thresholds live in SegmentationParams. The defaults are chosen to make
the synthetic fixtures deterministic; they are not tuned to any corpus.

A sequence keeps its frames as columns (`Frames`), its one form, and every
stage reads and writes columns of floats, so extraction makes no record
per frame. `tracking_from_json`, the one way a sequence enters, checks a
tracking file against the tracking table, each point finite, in one pass
over the frames, and fills the columns from the checked rows.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
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
from .errors import Diagnostic, NonFinite, NonMonotoneTimestamps, Record
from .geometry import DEFAULT_PLACE_MAP, VEC, PlaceMap, Vec2, classify_direction, relative_direction
from .model import _HANDS, SegmentationParams, ThreeVal, UtteranceModel, Valuation
from .schema import array, boolean, check, choice, const, integer, number, optional, string, table

# Normalized height of the head center above the torso origin; used when the
# body frame is derived from the tracked head rather than configured.
_HEAD_HEIGHT = 1.2


class Track(Record):
    """The head or a hand over a sequence, as columns of one entry per
    frame: `x` and `y` hold the position, None in both where it is missing,
    and a hand's `config` and `orient` its labels (None for the head)."""

    __slots__ = ("x", "y", "config", "orient")
    _defaults = {"config": None, "orient": None}

    def point(self, i: int) -> Vec2 | None:
        return None if self.x[i] is None else Vec2(self.x[i], self.y[i])


class Frames(Record):
    """The frames of a sequence as columns: the frame indices `t` and a
    Track for the head and each hand."""

    __slots__ = ("t", "head", "right", "left")

    def __len__(self) -> int:
        return len(self.t)

    def hand(self, articulator: Articulator) -> Track:
        if articulator is Articulator.RIGHT:
            return self.right
        if articulator is Articulator.LEFT:
            return self.left
        raise ValueError(f"no track for {articulator}")


def _finite(column: list[float | None]) -> None:
    """Raise NonFinite unless every coordinate in `column` is finite. The
    filter drops missing entries, and zeros, which are finite anyway."""
    if not all(map(math.isfinite, filter(None, column))):
        raise NonFinite("coordinates must be finite")


def _columns(rows: Iterable[tuple]) -> Frames:
    """Frames from rows `(t, head, right, left)`, where a point is an `[x, y]`
    of finite numbers or None and a hand is `(point, config, orient)`. Each
    coordinate column becomes floats."""
    t, heads, rights, lefts = zip(*rows)

    def track(points: tuple, *labels: tuple) -> Track:
        x = [None if p is None else float(p[0]) for p in points]
        y = [None if p is None else float(p[1]) for p in points]
        return Track(x, y, *map(list, labels))

    return Frames(list(t), track(heads), track(*zip(*rights)), track(*zip(*lefts)))


class TrackingSequence(Record):
    """Frames at `fps`, as `Frames` columns. A sequence enters from outside
    through `tracking_from_json`, which checks every frame."""

    __slots__ = ("frames", "fps", "mirrored")
    _defaults = {"mirrored": False}

    def __post_init__(self) -> None:
        if type(self.frames) is not Frames:
            raise TypeError("frames must be Frames columns; build a sequence with tracking_from_json")
        if not self.frames:
            raise ValueError("a tracking sequence needs at least one frame")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError("fps must be positive")


class SegmentKind:
    KEY_POSTURE = "key_posture"
    TRANSITION = "transition"


class Segment(Record):
    """A contiguous frame range [first, last], either a key posture or the
    transition between two postures."""

    __slots__ = ("kind", "first", "last")

    def __post_init__(self) -> None:
        if self.first > self.last:
            raise ValueError("segment bounds out of order")


# --- Input parsing -----------------------------------------------------------


_NUMBERS = {int, float}


def _point(value: Any) -> list:
    """An `[x, y]` of two finite JSON numbers, kept as it is. Anything else,
    an integer too large for a double included, is passed to `VEC`, which
    refuses it with its message."""
    if type(value) is list and len(value) == 2:
        x, y = value
        try:
            if type(x) in _NUMBERS and type(y) in _NUMBERS and math.isfinite(x) and math.isfinite(y):
                return value
        except OverflowError:
            pass
    return VEC(value)


# The frames of a tracking file, each as a `(t, head, right, left)` row,
# checked in one pass and kept as columns. Every field of a hand and of a
# frame but `t` may be missing or null: a tracker dropout.
_HAND = table("hand", {
    "pos": optional(_point, null=True),
    "config": optional(string(), null=True),
    "orient": optional(choice(Direction.__members__), null=True),
}, tuple)
_FRAMES = array(table("frame", {
    "t": integer(0),
    "head": optional(_point, null=True),
    "right": optional(_HAND, (None, None, None), null=True),
    "left": optional(_HAND, (None, None, None), null=True),
}, tuple), non_empty=True, build=_columns)

_TRACKING = table("tracking", {
    "format": optional(const(1)),
    "fps": number(positive=True, build=float),
    "mirrored": optional(boolean(), False),
    "frames": _FRAMES,
}, lambda _format, fps, mirrored, frames: TrackingSequence(frames, fps, mirrored))


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
    A position becomes `raw - origin`, its x negated if mirrored, times
    `1 / scale`.
    """
    diagnostics: list[Diagnostic] = []
    frames = seq.frames
    head = frames.head
    first_head = next((head.point(i) for i, x in enumerate(head.x) if x is not None), None)
    if body_scale is not None:
        scale = body_scale
    elif body_origin is not None and first_head is not None and (first_head - body_origin).norm > 0:
        scale = (first_head - body_origin).norm
    else:
        scale = 1.0
    if first_head is None and body_origin is None:
        diagnostics.append(Diagnostic(
            "no-head-reference", "warning",
            "no head position and no configured origin; coordinates taken as body units"))

    if body_origin is not None or first_head is None:
        ox, oy = (body_origin.x, body_origin.y) if body_origin is not None else (0.0, 0.0)
        origin_x, origin_y = [ox] * len(frames), [oy] * len(frames)
    else:
        lift = _HEAD_HEIGHT * scale
        ox, oy = first_head.x, first_head.y - lift  # before the first head
        origin_x, origin_y = [], []
        for x, y in zip(head.x, head.y):
            if x is not None:
                ox, oy = x, y - lift
            origin_x.append(ox)
            origin_y.append(oy)
    # The first frame's origin is checked, then the scale.
    Vec2(origin_x[0], origin_y[0])
    if not (math.isfinite(scale) and scale > 0):
        raise NonFinite("body frame scale must be finite and positive")
    _finite(origin_y)

    # Negating a difference, then scaling it, rounds as scaling it by -k.
    k = 1.0 / scale
    kx = -k if seq.mirrored else k

    def moved(track: Track) -> Track:
        x = [None if c is None else (c - o) * kx for c, o in zip(track.x, origin_x)]
        y = [None if c is None else (c - o) * k for c, o in zip(track.y, origin_y)]
        _finite(x)
        _finite(y)
        return track._replace(x=x, y=y)

    normalized = Frames(frames.t, moved(head), moved(frames.right), moved(frames.left))
    return TrackingSequence(normalized, seq.fps, seq.mirrored), diagnostics


# --- Validation --------------------------------------------------------------


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
    frames = seq.frames
    t = frames.t
    if not all(map(operator.lt, t, t[1:])):
        kept = [0]
        for i in range(1, len(t)):
            last_t = t[kept[-1]]
            if t[i] == last_t:
                message = f"frame index {t[i]} repeated; later dropped"
                diagnostics.append(Diagnostic("duplicate-frame", "warning", message, frame=t[i]))
                continue
            if t[i] < last_t:
                raise NonMonotoneTimestamps(i, last_t, t[i])
            kept.append(i)

        def take(column: list | None) -> list | None:
            return None if column is None else [column[i] for i in kept]

        frames = Frames(take(t), *(Track(*map(take, track._astuple()))
                                   for track in (frames.head, frames.right, frames.left)))

    hands = []
    for hand in _HANDS:
        track = frames.hand(hand)
        x, y = list(track.x), list(track.y)
        px = py = None  # the last position kept
        for i in range(len(x)):
            if x[i] is None:
                continue
            # On floats: a displacement that overflows a double is an
            # infinite jump, voided like any other.
            jump = math.hypot(x[i] - px, y[i] - py) if px is not None else 0.0
            if jump > params.max_jump:
                message = f"{hand.value} hand jumped {jump:.3f} body units in one frame"
                diagnostics.append(Diagnostic("teleport", "warning", message,
                                              frame=frames.t[i], hand=hand.value))
                x[i] = y[i] = px = py = None
                continue
            px, py = x[i], y[i]
        hands.append(track._replace(x=x, y=y))

    diagnostics.sort(key=lambda d: (d.frame if d.frame is not None else -1, d.code, d.hand or ""))
    frames = frames._replace(right=hands[0], left=hands[1])
    return TrackingSequence(frames, seq.fps, seq.mirrored), diagnostics


# --- Velocities and segmentation ---------------------------------------------


def compute_velocities(
    seq: TrackingSequence, first: int = 0, last: int | None = None
) -> dict[Articulator, Track]:
    """Backward-difference velocity per hand of frames `first` to `last`
    (by default all), in body units per frame, as a Track whose columns
    start at frame `first`. Frame 0 moves nothing; a velocity is missing
    where the frame's position or the previous frame's is. Only frames
    first - 1 to last are read."""
    window = slice(max(first - 1, 0), None if last is None else last + 1)
    out: dict[Articulator, Track] = {}
    for hand in _HANDS:
        track = seq.frames.hand(hand)
        velocity = []
        for column in (track.x[window], track.y[window]):
            diffs = [None if a is None or b is None else b - a for a, b in zip(column, column[1:])]
            _finite(diffs)
            velocity.append(([None if column[0] is None else 0.0] if first == 0 else []) + diffs)
        out[hand] = Track(*velocity)
    return out


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
    at the boundary so the alternation invariant holds. With no run at all,
    the first and last min_still frames are the postures (the last shorter
    if need be); a sequence with no room for a transition between them is
    one posture.
    """
    params = params or SegmentationParams()
    n = len(seq.frames)
    right, left = compute_velocities(seq).values()
    tau, min_still = params.tau_still, params.min_still
    still = [
        (rx is None or math.hypot(rx, ry) < tau) and (lx is None or math.hypot(lx, ly) < tau)
        for rx, ry, lx, ly in zip(right.x, right.y, left.x, left.y)
    ]
    runs = _still_runs(still, min_still)

    key, trans = SegmentKind.KEY_POSTURE, SegmentKind.TRANSITION
    if not runs:
        head = min(min_still, n)
        if n - head < 2:
            return [Segment(key, 0, n - 1)]
        runs = [(0, head - 1), (n - min(min_still, n - head - 1), n - 1)]
    if runs[0][0] > min_still:
        runs.insert(0, (0, min_still - 1))
    if n - 1 - runs[-1][1] > min_still:
        runs.append((n - min_still, n - 1))
    runs[0] = (0, runs[0][1])
    runs[-1] = (runs[-1][0], n - 1)

    segments = [Segment(key, *runs[0])]
    for (_, end), (start, last) in zip(runs, runs[1:]):
        segments += Segment(trans, end + 1, start - 1), Segment(key, start, last)
    return segments


# --- Posture valuation -------------------------------------------------------


def _representative(segment_: Segment) -> int:
    return (segment_.first + segment_.last) // 2


def posture_valuation(
    seq: TrackingSequence,
    posture: Segment,
    place_map: PlaceMap,
    params: SegmentationParams | None = None,
) -> dict[Atom, ThreeVal]:
    """The atoms of a key posture, read off its median frame, whose values
    differ from the defaults of a state that observed that frame's hands and
    hand shapes (see `UtteranceModel`): per ordered hand pair its one True
    direction, or all sixteen Unknown when both hands sit on one point; each
    place holding an observed hand, True; touch, True below tau_touch and
    Unknown in the band above; each seen hand shape, True; and for a
    labelled orientation that direction True and the other seven False.
    Anything unobservable keeps its default: it is Unknown, never a guess.
    """
    if posture.kind != SegmentKind.KEY_POSTURE:
        raise ValueError("valuation is defined on key postures")
    params = params or SegmentationParams()
    i = _representative(posture)
    frames = seq.frames
    right, left = frames.right.point(i), frames.left.point(i)
    R, L = _HANDS
    val: dict[Atom, ThreeVal] = {}

    if right is not None and left is not None:
        if right == left:
            for d in Direction:
                val[RelDir(R, d, L)] = val[RelDir(L, d, R)] = ThreeVal.UNKNOWN
        else:
            val[RelDir(R, relative_direction(right, left), L)] = ThreeVal.TRUE
            val[RelDir(L, relative_direction(left, right), R)] = ThreeVal.TRUE
        distance = (right - left).norm
        if distance < params.tau_touch + params.touch_unknown_band:
            touching = ThreeVal.TRUE if distance < params.tau_touch else ThreeVal.UNKNOWN
            val[Touch(R, L)] = val[Touch(L, R)] = touching

    for hand, pos in ((R, right), (L, left)):
        track = frames.hand(hand)
        if pos is not None:
            for place in place_map:
                if place.region.contains(pos.x, pos.y):
                    val[At(hand, place.name)] = ThreeVal.TRUE
        if track.config[i] is not None:
            val[Config(hand, track.config[i])] = ThreeVal.TRUE
        if track.orient[i] is not None:
            for d in Direction:
                val[Orient(hand, d)] = ThreeVal.from_bool(d is track.orient[i])
    return val


# --- Transition actions -------------------------------------------------------


def _reversal_burst(velocity: Track, params: SegmentationParams) -> bool:
    """Whether thrill_min_reversals reversals of the velocity, a negative
    dot product of two consecutive velocities, fall within thrill_window
    frames. The reversals are in frame order, so `m` of them fit in the
    window where one is less than the window before the one `m - 1` later."""
    vx, vy = velocity.x, velocity.y
    reversals = [
        i for i in range(1, len(vx))
        if vx[i - 1] is not None and vx[i] is not None
        and vx[i - 1] * vx[i] + vy[i - 1] * vy[i] < 0
    ]
    m, window = params.thrill_min_reversals, params.thrill_window
    return any(reversals[j + m - 1] < reversals[j] + window for j in range(len(reversals) - m + 1))


def transition_action(
    seq: TrackingSequence,
    transition: Segment,
    params: SegmentationParams | None = None,
) -> Action | None:
    """Action label of a transition.

    Per hand: the net displacement over the segment classifies a move when
    large enough; otherwise a burst of velocity reversals at speed marks a
    thrill; otherwise the hand contributes nothing. Both hands combine
    concurrently; with no contribution at all there is no label (None).

    Only the transition's own window, the frame before it through its last
    frame, is read: velocities are computed over that slice alone, so
    labeling every transition of a sequence costs time linear in frames.
    """
    if transition.kind != SegmentKind.TRANSITION:
        raise ValueError("action labels are defined on transitions")
    params = params or SegmentationParams()
    window = range(max(transition.first - 1, 0), transition.last + 1)
    velocities = compute_velocities(seq, transition.first, transition.last)
    contributions: list[Action] = []
    for hand in _HANDS:
        track = seq.frames.hand(hand)
        present = [i for i in window if track.x[i] is not None]
        if len(present) < 2:
            continue
        a, b = present[0], present[-1]
        net = Vec2(track.x[b] - track.x[a], track.y[b] - track.y[a])
        if net.norm >= params.thrill_net_disp:
            contributions.append(Atomic(Move(hand, classify_direction(net))))
            continue
        velocity = velocities[hand]
        speeds = [math.hypot(x, y) for x, y in zip(velocity.x, velocity.y) if x is not None]
        mean_speed = sum(speeds) / len(speeds) if speeds else 0.0
        if mean_speed >= params.tau_still and _reversal_burst(velocity, params):
            contributions.append(Atomic(Thrill(hand)))
    if not contributions:
        return None
    if len(contributions) == 1:
        return contributions[0]
    return Concurrent(contributions[0], contributions[1])


# --- Model assembly ----------------------------------------------------------


def build_model(
    seq: TrackingSequence,
    params: SegmentationParams | None = None,
    place_map: PlaceMap | None = None,
) -> UtteranceModel:
    """Assemble the utterance model from a normalized, validated sequence.

    One state per key posture in temporal order, with the cells of
    `posture_valuation` and the hands and hand shapes its median frame
    observed. A pure-thrill transition between two postures equal in all
    three collapses into a self-loop on the single shared state. A
    transition with no label (no hand moved) and the self-loop that the
    final state gets, so every state has a successor, are edges of the
    relation in no action's interpretation. The edges go to the model as
    lists of pairs, which it reads into bitsets by offset (`model.Edges`).
    """
    params = params or SegmentationParams()
    place_map = place_map or DEFAULT_PLACE_MAP
    segments = segment(seq, params)
    postures = [s for s in segments if s.kind == SegmentKind.KEY_POSTURE]
    transitions = [s for s in segments if s.kind == SegmentKind.TRANSITION]

    states: list[tuple[dict[Atom, ThreeVal], frozenset[Articulator], dict]] = []
    edges: list[tuple[int, int, Action | None]] = []
    # `segment` always starts with a key posture; the first has no transition before it.
    for transition, posture in zip((None, *transitions), postures):
        i = _representative(posture)
        state = (
            posture_valuation(seq, posture, place_map, params),
            frozenset(h for h in _HANDS if seq.frames.hand(h).x[i] is not None),
            {h: seq.frames.hand(h).config[i] for h in _HANDS},
        )
        current = len(states) - 1
        if transition is not None:
            label = transition_action(seq, transition, params)
            pure_thrill = label is not None and all(
                isinstance(a, Thrill) for a in iter_atomic_actions(label))
            if pure_thrill and state == states[current]:
                edges.append((current, current, label))
                continue
            edges.append((current, current + 1, label))
        states.append(state)
    valuations, observed, configs = zip(*states)

    state_count = len(states)
    relation = [(s, t) for s, t, _ in edges]
    relation.append((state_count - 1, state_count - 1))  # seriality repair
    interp: dict[AtomicAction, list[tuple[int, int]]] = {}
    for s, t, label in edges:
        if label is None:
            continue
        for atomic in iter_atomic_actions(label):
            interp.setdefault(atomic, []).append((s, t))

    return UtteranceModel(
        state_count=state_count,
        relation=relation,
        action_interp=interp,
        valuation=Valuation.of(state_count, (
            ((s, atom), value) for s, val in enumerate(valuations) for atom, value in val.items()
        )),
        observed=observed,
        config_observed=configs,
        meta={
            "fps": seq.fps,
            "mirrored": seq.mirrored,
            "segmentation": params._asdict(),
        },
    )


def extract_model(
    raw: TrackingSequence,
    params: SegmentationParams | None = None,
    place_map: PlaceMap | None = None,
    body_origin: Vec2 | None = None,
    body_scale: float | None = None,
) -> tuple[UtteranceModel, list[Diagnostic]]:
    """Full pipeline: normalize, validate, segment, and build the model."""
    params = params or SegmentationParams()
    normalized, d1 = normalize_sequence(raw, body_origin, body_scale)
    cleaned, d2 = validate_sequence(normalized, params)
    model = build_model(cleaned, params, place_map)
    return model, d1 + d2
