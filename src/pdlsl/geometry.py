"""Planar math over the signer's body frame.

Rotation angles, nearest-direction classification, relative directions
between articulators, and place maps. All functions are pure.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable

from .core import Direction, Place, Rect
from .errors import CoincidentPoints, NonFinite, Record, ZeroVector, load_json
from .schema import check, const, fixed, mapping, number, optional, table

# Angles closer than this are treated as equal when classifying directions,
# so exact 22.5 degree boundaries resolve by canonical order on every platform.
_TIE_EPS = 1e-9
# A vector's place in its quadrant is (|x| - |y|) / |v|, from -1 on the
# vertical axis to 1 on the horizontal one. The two borders 22.5 degrees from
# the axes are widened on both sides by the stretch in which two neighbouring
# directions make rotation angles within _TIE_EPS of each other.
_BORDER = math.sqrt(2.0) * math.sin(math.pi / 8)
_TIE = math.sqrt(2.0) * math.cos(math.pi / 8) * math.radians(_TIE_EPS / 2)
_EDGES = (-_BORDER - _TIE, -_BORDER + _TIE, _BORDER - _TIE, _BORDER + _TIE)
# Each quadrant's direction in each stretch, from its vertical axis round;
# on a border, the earlier canonical direction of the two.
_QUADRANTS = {(x < 0, y < 0): tuple(map(Direction.__getitem__, names.split())) for x, y, names in (
    (1, 1, "N N NE NE E"), (1, -1, "S SE SE E E"), (-1, -1, "S S SW SW W"), (-1, 1, "N N NW W W"))}


class Vec2(Record):
    """A point or displacement in normalized body units."""

    __slots__ = ("x", "y")

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise NonFinite("coordinates must be finite")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    @property
    def norm(self) -> float:
        return math.hypot(self.x, self.y)


#: `[x, y]`, as a tracking file and a run configuration give a point.
VEC = fixed("[x, y]", 2, number(), build=lambda xy: Vec2(*map(float, xy)))


def rotation_angle(v1: Vec2, v2: Vec2) -> float:
    """Unsigned rotation angle between two vectors, in degrees in [0, 180]."""
    n1, n2 = v1.norm, v2.norm
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroVector("rotation angle of a zero-length vector")
    cos = (v1.x * v2.x + v1.y * v2.y) / (n1 * n2)
    cos = max(-1.0, min(1.0, cos))
    return math.degrees(math.acos(cos))


def classify_direction(v: Vec2) -> Direction:
    """The compass direction whose unit vector makes the smallest rotation
    angle with `v`; exact ties go to the earlier canonical direction. The
    sector is found by comparing `v` with the sector borders."""
    ax, ay = abs(v.x), abs(v.y)
    scale = max(ax, ay)
    if scale == 0.0:
        raise ZeroVector("cannot classify a zero-length vector")
    ax, ay = ax / scale, ay / scale  # the longer is 1, so nothing overflows or underflows
    return _QUADRANTS[v.x < 0, v.y < 0][bisect_left(_EDGES, (ax - ay) / math.hypot(ax, ay))]


def relative_direction(p1: Vec2, p2: Vec2) -> Direction:
    """Direction of the point `p1` seen from `p2`."""
    if p1 == p2:
        raise CoincidentPoints("no direction between coincident points")
    return classify_direction(p1 - p2)


class PlaceMap:
    """A set of uniquely named places of articulation."""

    def __init__(self, places: Iterable[Place]):
        self.places: tuple[Place, ...] = tuple(places)
        seen: set[str] = set()
        for p in self.places:
            if p.name in seen:
                raise ValueError(f"duplicate place name {p.name!r}")
            seen.add(p.name)

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.places)

    def __iter__(self):
        return iter(self.places)


def _default_places() -> tuple[Place, ...]:
    table = {
        "HEAD": (-0.35, 0.35, 0.8, 1.6),
        "FACE": (-0.3, 0.3, 0.9, 1.5),
        "R_SIDEOFHEAD": (0.05, 0.6, 0.8, 1.6),
        "L_SIDEOFHEAD": (-0.6, -0.05, 0.8, 1.6),
        "NECK": (-0.2, 0.2, 0.6, 0.9),
        "CHEST": (-0.5, 0.5, 0.1, 0.7),
        "TORSE": (-0.6, 0.6, -0.5, 0.7),
        "CENTEROFBODY": (-0.2, 0.2, -0.5, 0.7),
        "R_SIDEOFBODY": (0.2, 1.2, -0.5, 0.7),
        "L_SIDEOFBODY": (-1.2, -0.2, -0.5, 0.7),
        "NEUTRAL": (-0.7, 0.7, -0.2, 0.6),
    }
    return tuple(Place(name, Rect(*bounds)) for name, bounds in table.items())


#: Built-in map so fixtures run without configuration. Body units: origin at
#: the torso center, +x to the signer's right, +y up, head center near (0, 1.2).
DEFAULT_PLACE_MAP = PlaceMap(_default_places())


_PLACE_MAP = table("placemap", {
    "format": optional(const(1)),
    "places": mapping(
        fixed("[x_min, x_max, y_min, y_max]", 4, number(), build=lambda b: Rect(*map(float, b))),
    ),
}, lambda _format, places: PlaceMap(Place(name, rect) for name, rect in places.items()))


def place_map_from_json(obj: object) -> PlaceMap:
    """Build a PlaceMap from the parsed placemap file structure:
    {"places": {NAME: [x_min, x_max, y_min, y_max], ...}}, with an optional
    `"format": 1`."""
    return check(_PLACE_MAP, obj)


def load_place_map(path: str) -> PlaceMap:
    return load_json(path, place_map_from_json)
