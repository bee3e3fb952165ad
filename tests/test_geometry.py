import math

import pytest
from hypothesis import assume, given, strategies as st

from pdlsl import (
    DEFAULT_PLACE_MAP,
    BodyFrame,
    CoincidentPoints,
    Direction,
    Place,
    PlaceMap,
    Rect,
    Vec2,
    ZeroVector,
    classify_direction,
    mirror_direction,
    normalize,
    place_map_from_json,
    places_containing,
    relative_direction,
    rotation_angle,
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
    assert math.isclose(rotation_angle(v, v.scaled(k)), 0.0, abs_tol=1e-4)
    other = Vec2(-v.y, v.x)
    assert math.isclose(
        rotation_angle(v, other), rotation_angle(v.scaled(k), other), abs_tol=1e-4
    )


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


# --- normalize ----------------------------------------------------------------------


def test_normalize_examples():
    frame = BodyFrame(origin=Vec2(5, 7), scale=2.0)
    assert normalize(Vec2(5, 7), frame) == Vec2(0, 0)
    assert normalize(Vec2(7, 7), frame) == Vec2(1, 0)
    assert normalize(Vec2(7, 7), frame, mirrored=True) == Vec2(-1, 0)


def test_body_frame_scale_must_be_positive():
    with pytest.raises(ValueError):
        BodyFrame(origin=Vec2(0, 0), scale=0.0)


# --- places ---------------------------------------------------------------------------


def test_places_containing_center_and_outside():
    torse = next(p for p in DEFAULT_PLACE_MAP if p.name == "TORSE")
    center = Vec2(
        (torse.region.x_min + torse.region.x_max) / 2,
        (torse.region.y_min + torse.region.y_max) / 2,
    )
    assert "TORSE" in places_containing(center, DEFAULT_PLACE_MAP)
    assert places_containing(Vec2(50, 50), DEFAULT_PLACE_MAP) == frozenset()


def test_places_containing_shared_edge_inclusive():
    pm = PlaceMap(
        [
            Place("LEFTBOX", Rect(-1.0, 0.0, 0.0, 1.0)),
            Place("RIGHTBOX", Rect(0.0, 1.0, 0.0, 1.0)),
        ]
    )
    assert places_containing(Vec2(0.0, 0.5), pm) == frozenset({"LEFTBOX", "RIGHTBOX"})


def test_places_containing_monotone_under_enlargement():
    small = PlaceMap([Place("ZONE", Rect(0.0, 1.0, 0.0, 1.0))])
    big = PlaceMap([Place("ZONE", Rect(-0.5, 1.5, -0.5, 1.5))])
    for point in (Vec2(0.0, 0.0), Vec2(0.5, 0.5), Vec2(1.0, 1.0)):
        assert places_containing(point, small) <= places_containing(point, big)


def test_place_map_rejects_duplicates_and_degenerate_rects():
    with pytest.raises(ValueError):
        PlaceMap([Place("X", Rect(0, 1, 0, 1)), Place("X", Rect(0, 2, 0, 2))])
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 1)  # zero width


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
