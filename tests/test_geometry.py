import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from pdlsl import (
    DEFAULT_PLACE_MAP,
    CoincidentPoints,
    Direction,
    NonFinite,
    Place,
    PlaceMap,
    Rect,
    Vec2,
    ZeroVector,
    classify_direction,
    mirror_direction,
    normalize_sequence,
    place_map_from_json,
    relative_direction,
    rotation_angle,
    tracking_from_json,
)
from pdlsl.errors import SchemaError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
vectors = st.builds(Vec2, finite, finite).filter(lambda v: v.norm > 1e-6)


# --- rotation_angle ------------------------------------------------------------


@pytest.mark.parametrize(
    "v1,v2,expected",
    [
        (Vec2(1, 0), Vec2(0, 1), 90.0),
        (Vec2(1, 0), Vec2(1, 0), 0.0),
        (Vec2(1, 0), Vec2(1, 1), 45.0),
    ],
)
def test_rotation_angle_examples(v1, v2, expected):
    assert math.isclose(rotation_angle(v1, v2), expected, abs_tol=1e-9)


def test_rotation_angle_rejects_zero_vectors():
    with pytest.raises(ZeroVector):
        rotation_angle(Vec2(0, 0), Vec2(1, 0))
    with pytest.raises(ZeroVector):
        rotation_angle(Vec2(1, 0), Vec2(0, 0))


@given(vectors, vectors)
def test_rotation_angle_symmetric_and_bounded(v1, v2):
    a = rotation_angle(v1, v2)
    assert math.isclose(a, rotation_angle(v2, v1), abs_tol=1e-9)
    assert 0.0 <= a <= 180.0


@given(vectors, st.floats(min_value=1e-3, max_value=1e3))
def test_rotation_angle_scale_invariant(v, k):
    # acos loses about sqrt(eps) of precision near parallel vectors.
    scaled = Vec2(v.x * k, v.y * k)
    assert math.isclose(rotation_angle(v, scaled), 0.0, abs_tol=1e-4)
    other = Vec2(-v.y, v.x)
    assert math.isclose(rotation_angle(v, other), rotation_angle(scaled, other), abs_tol=1e-4)


def test_vec2_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec2(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Vec2(0.0, float("inf"))


def test_vec2_check_is_looked_up_on_the_class_at_each_construction(monkeypatch):
    # A wrapper set on the class sees every construction, as a tracer's does.
    seen = []
    check = Vec2.__post_init__
    monkeypatch.setattr(Vec2, "__post_init__", lambda v: seen.append((v.x, v.y)) or check(v))
    Vec2(1.0, 2.0) - Vec2(0.5, 0.0)
    assert seen == [(1.0, 2.0), (0.5, 0.0), (0.5, 2.0)]
    with pytest.raises(ValueError):
        Vec2(0.0, float("inf"))


# --- classify_direction ----------------------------------------------------------


def test_classify_examples():
    assert classify_direction(Vec2(1, 1)) is Direction.NE
    assert classify_direction(Vec2(0.5, 0.1)) is Direction.E
    boundary = Vec2(math.cos(math.radians(22.5)), math.sin(math.radians(22.5)))
    # Exact tie between NE and E resolves to the earlier canonical direction.
    assert classify_direction(boundary) is Direction.NE


def test_classify_zero_vector():
    with pytest.raises(ZeroVector):
        classify_direction(Vec2(0, 0))


def test_classify_fixed_points():
    for d in Direction:
        assert classify_direction(Vec2(*d.unit)) is d


def _near_tie_boundary(v: Vec2) -> bool:
    # Ties sit at 22.5 degrees past each compass direction.
    angle = math.degrees(math.atan2(v.y, v.x)) % 45.0
    return abs(angle - 22.5) < 1.0


@given(vectors)
def test_classify_commutes_with_mirroring(v):
    assume(not _near_tie_boundary(v))
    mirrored = Vec2(-v.x, v.y)
    assert classify_direction(mirrored) is mirror_direction(classify_direction(v))


_TIE_EPS = 1e-9


def _classify_by_angles(v: Vec2) -> Direction:
    """The earlier `classify_direction`, kept as the oracle: the direction
    whose unit vector makes the smallest rotation angle with `v`, a later
    one winning only by more than _TIE_EPS degrees."""
    if v.norm == 0.0:
        raise ZeroVector("cannot classify a zero-length vector")
    best: Direction | None = None
    best_angle = math.inf
    for d in Direction:
        ux, uy = d.unit
        angle = rotation_angle(v, Vec2(ux, uy))
        if angle < best_angle - _TIE_EPS:
            best, best_angle = d, angle
    assert best is not None
    return best


normal = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False)
# Offsets from a border, in multiples of _TIE_EPS degrees: a vector within
# half of one ties, and its direction comes from canonical order alone.
_OFFSETS = (0.0, 0.1, 0.45, 0.55, 0.9, 1.1, 2.0, 10.0, 1e3, 1e6, 1e9)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(normal, normal).filter(lambda xy: xy != (0.0, 0.0)),
        st.builds(
            lambda k, offset, sign, scale: (
                scale * math.sin(math.radians(22.5 + 45 * k + sign * offset * _TIE_EPS)),
                scale * math.cos(math.radians(22.5 + 45 * k + sign * offset * _TIE_EPS)),
            ),
            st.integers(0, 7), st.sampled_from(_OFFSETS), st.sampled_from((-1, 1)),
            st.sampled_from((1e-100, 1e-9, 0.3, 1.0, 7.0, 1e9, 1e100)),
        ),
        st.tuples(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5)),
                  st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5))).filter(
            lambda xy: xy != (0.0, 0.0)),
    )
)
def test_classify_by_sector_borders_matches_rotation_angles(xy):
    # Magnitudes stay where the oracle's norms and dot products neither
    # overflow nor lose precision to subnormals (see the next test).
    v = Vec2(*xy)
    assert classify_direction(v) is _classify_by_angles(v)


def test_classify_at_extreme_magnitudes():
    # Here the oracle's arithmetic fails: its norm overflows to infinity, or
    # a dot product with a unit vector rounds a subnormal to zero.
    assert _classify_by_angles(Vec2(0.0, -5e-324)) is Direction.SE
    assert classify_direction(Vec2(0.0, -5e-324)) is Direction.S
    assert classify_direction(Vec2(-5e-324, -5e-324)) is Direction.SW
    assert classify_direction(Vec2(1.5e308, 1.5e308)) is Direction.NE
    assert classify_direction(Vec2(1.5e308, -1e300)) is Direction.E


# --- relative_direction ------------------------------------------------------------


_OPPOSITE = {
    Direction.N: Direction.S,
    Direction.NE: Direction.SW,
    Direction.E: Direction.W,
    Direction.SE: Direction.NW,
    Direction.S: Direction.N,
    Direction.SW: Direction.NE,
    Direction.W: Direction.E,
    Direction.NW: Direction.SE,
}


def test_relative_direction_examples():
    assert relative_direction(Vec2(1, 1), Vec2(0, 0)) is Direction.NE
    assert relative_direction(Vec2(0, 0), Vec2(1, 1)) is Direction.SW
    assert relative_direction(Vec2(0.2, 0.9), Vec2(0.6, 0.9)) is Direction.W


def test_relative_direction_coincident():
    with pytest.raises(CoincidentPoints):
        relative_direction(Vec2(0.5, 0.5), Vec2(0.5, 0.5))


@given(st.builds(Vec2, finite, finite), st.builds(Vec2, finite, finite))
def test_relative_direction_antisymmetric(p1, p2):
    assume(p1 != p2)
    assume(not _near_tie_boundary(p1 - p2))
    assert relative_direction(p2, p1) is _OPPOSITE[relative_direction(p1, p2)]


# --- the body frame of normalize_sequence ------------------------------------------


def _normalized(points, mirrored=False, **frame):
    """The right-hand positions of one frame per point, in body units."""
    frames = [{"t": t, "right": {"pos": [p.x, p.y]}} for t, p in enumerate(points)]
    seq = tracking_from_json({"fps": 25.0, "mirrored": mirrored, "frames": frames})
    normalized, _ = normalize_sequence(seq, **frame)
    return [normalized.frames.right.point(i) for i in range(len(points))]


def test_normalize_examples():
    frame = dict(body_origin=Vec2(5, 7), body_scale=2.0)
    assert _normalized([Vec2(5, 7), Vec2(7, 7)], **frame) == [Vec2(0, 0), Vec2(1, 0)]
    assert _normalized([Vec2(7, 7)], mirrored=True, **frame) == [Vec2(-1, 0)]


def test_body_frame_scale_must_be_positive():
    with pytest.raises(NonFinite, match="^body frame scale must be finite and positive$"):
        _normalized([Vec2(0, 0)], body_origin=Vec2(0, 0), body_scale=0.0)


# --- places ---------------------------------------------------------------------------
# The places containing a point are those whose `Rect.contains` it.


def test_places_containing_center_and_outside():
    torse = next(p for p in DEFAULT_PLACE_MAP if p.name == "TORSE").region
    assert torse.contains((torse.x_min + torse.x_max) / 2, (torse.y_min + torse.y_max) / 2)
    assert not any(p.region.contains(50, 50) for p in DEFAULT_PLACE_MAP)


def test_places_containing_shared_edge_inclusive():
    # Boundary inclusive: a point on a shared edge lies in both rectangles.
    assert Rect(-1.0, 0.0, 0.0, 1.0).contains(0.0, 0.5)
    assert Rect(0.0, 1.0, 0.0, 1.0).contains(0.0, 0.5)


def test_places_containing_monotone_under_enlargement():
    small, big = Rect(0.0, 1.0, 0.0, 1.0), Rect(-0.5, 1.5, -0.5, 1.5)
    for x, y in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1.2, -0.4)):
        assert big.contains(x, y) >= small.contains(x, y)
        assert big.contains(x, y)


def test_place_map_rejects_duplicates_and_degenerate_rects():
    with pytest.raises(ValueError):
        PlaceMap([Place("X", Rect(0, 1, 0, 1)), Place("X", Rect(0, 2, 0, 2))])
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 1)  # zero width
    for bounds in ((0, math.inf, 0, 1), (-math.inf, 1, 0, 1), (0, 1, math.nan, 1)):
        with pytest.raises(ValueError, match="finite"):
            Rect(*bounds)


def test_place_map_file_matches_default(tmp_path):
    import json
    from pathlib import Path

    doc = json.loads(
        (Path(__file__).parent.parent / "docs" / "examples" / "placemap.json").read_text()
    )
    pm = place_map_from_json(doc)
    assert pm.names() == DEFAULT_PLACE_MAP.names()
    for a, b in zip(pm, DEFAULT_PLACE_MAP):
        assert a.region == b.region


def test_place_map_schema_errors():
    with pytest.raises(SchemaError):
        place_map_from_json({"places": {"X": [0, 1, 0]}})
    with pytest.raises(SchemaError):
        place_map_from_json({"places": {}})
    with pytest.raises(SchemaError):
        place_map_from_json({"places": {"X": [0, 1, 0, 1]}, "bogus": 1})
