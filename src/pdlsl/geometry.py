"""Planar math over the signer's body frame.

Rotation angles, nearest-direction classification, relative directions
between articulators, normalization of raw tracker coordinates, and place
containment. All functions are pure.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import CANONICAL_DIRECTIONS, Direction, Place, Rect
from .errors import CoincidentPoints, NonFinite, Record, ZeroVector, load_json
from .schema import check, const, fixed, mapping, number, optional, table

# Angles closer than this are treated as equal when classifying directions,
# so exact 22.5 degree boundaries resolve by canonical order on every platform.
_TIE_EPS = 1e-9


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

    def scaled(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

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
    angle with `v`; exact ties go to the earlier canonical direction."""
    if v.norm == 0.0:
        raise ZeroVector("cannot classify a zero-length vector")
    best: Direction | None = None
    best_angle = math.inf
    for d in CANONICAL_DIRECTIONS:
        ux, uy = d.unit
        angle = rotation_angle(v, Vec2(ux, uy))
        if angle < best_angle - _TIE_EPS:
            best, best_angle = d, angle
    assert best is not None
    return best


def relative_direction(p1: Vec2, p2: Vec2) -> Direction:
    """Direction of the point `p1` seen from `p2`."""
    if p1 == p2:
        raise CoincidentPoints("no direction between coincident points")
    return classify_direction(p1 - p2)


class BodyFrame(Record):
    """Maps raw tracker coordinates into normalized body units."""

    __slots__ = ("origin", "scale")

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise NonFinite("body frame scale must be finite and positive")


def normalize(raw: Vec2, frame: BodyFrame, mirrored: bool = False) -> Vec2:
    """Express a raw point in body units. With `mirrored`, the x offset is
    negated first (camera-facing footage into the signer frame)."""
    d = raw - frame.origin
    if mirrored:
        d = Vec2(-d.x, d.y)
    return d.scaled(1.0 / frame.scale)


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


def places_containing(p: Vec2, place_map: PlaceMap) -> frozenset[str]:
    """Names of every place whose region contains `p` (boundary inclusive).
    May be empty; may hold several names where regions overlap."""
    return frozenset(pl.name for pl in place_map if pl.region.contains(p.x, p.y))


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
        non_empty=True,
    ),
}, lambda _format, places: PlaceMap(Place(name, rect) for name, rect in places.items()))


def place_map_from_json(obj: object) -> PlaceMap:
    """Build a PlaceMap from the parsed placemap file structure:
    {"places": {NAME: [x_min, x_max, y_min, y_max], ...}}, with an optional
    `"format": 1`."""
    return check(_PLACE_MAP, obj)


def load_place_map(path: str) -> PlaceMap:
    return load_json(path, place_map_from_json)
