"""Surface coordinate charts for points on the octahedron.

A point is located by a quadruple (home face, shared face, x, y): the
home face is mapped isometrically onto the base triangle with corners
(0, 0), (1, 0) and (1/2, sqrt(3)/2) so that the edge shared with the
shared face lies on the unit base segment and the exterior side faces
the viewer.  Edge and vertex points admit several such quadruples; the
moves between them (shared-face rotation, home-face flip, the four
vertex charts) and a deterministic canonical form live here.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from . import topology as topo

SQRT3 = math.sqrt(3.0)
HALF_SQRT3 = SQRT3 / 2.0

#: Tolerance for triangle membership and for snapping points onto edges.
EPS_IN = 1e-9


class InvalidRepresentation(ValueError):
    """The quadruple does not describe a point of the surface."""


class NotOnSharedEdge(ValueError):
    """Home-face flips are only defined for points with y = 0."""


class _RepresentationFields(NamedTuple):
    home: int
    shared: int
    x: float
    y: float


class Representation(_RepresentationFields):
    """Quadruple (home face, shared face, x, y) locating a surface point."""

    __slots__ = ()

    def __new__(cls, home: int, shared: int, x: float, y: float):
        if home not in topo.FACE_INDICES:
            raise InvalidRepresentation(f"unknown face {home!r}")
        if shared not in topo.neighbors(home):
            raise InvalidRepresentation(f"F{shared} is not adjacent to F{home}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidRepresentation("coordinates must be finite")
        if y < -EPS_IN or y > SQRT3 * x + EPS_IN or y > SQRT3 * (1.0 - x) + EPS_IN:
            raise InvalidRepresentation(f"({x}, {y}) lies outside the face triangle")
        return tuple.__new__(cls, (home, shared, x, y))

    @classmethod
    def _make(cls, iterable) -> Representation:
        # NamedTuple's _make, which _replace calls, would skip the checks
        return cls(*iterable)


class OrientedPoint(NamedTuple):
    """Planar position inside an orientation; may leave the base triangle."""

    x: float
    y: float


class SurfacePoint(NamedTuple):
    """A surface point held in canonical form (see canonicalize)."""

    canonical: Representation


def barycentric(x: float, y: float) -> tuple[float, float, float]:
    """Barycentric weights of (x, y) against the chart corners (S, T, U)."""
    yy = y / SQRT3
    return 1.0 - x - yy, x - yy, 2.0 * yy


def _place(corners, x: float, y: float) -> tuple[float, float]:
    """Plane position of chart point (x, y), given the chart's corners (S, T, U) there."""
    ls, lt, lu = barycentric(x, y)
    ps, pt, pu = corners
    return (
        ls * ps[0] + lt * pt[0] + lu * pu[0],
        ls * ps[1] + lt * pt[1] + lu * pu[1],
    )


def turn(x: float, y: float, times: int) -> tuple[float, float]:
    """Chart coordinates of (x, y) after `times` shared-face rotations.

    One rotation turns the chart by 120 degrees about the face centroid
    while the point stays put: (x, y) becomes ((1 - x + sqrt(3) y) / 2,
    (sqrt(3) - sqrt(3) x - y) / 2).  Three rotations restore (x, y).
    """
    for _ in range(times):
        x, y = (1.0 - x + SQRT3 * y) / 2.0, (SQRT3 - SQRT3 * x - y) / 2.0
    return x, y


def rotate_once(r: Representation) -> Representation:
    """Re-express r with the next shared face counter-clockwise (see turn)."""
    u, v = turn(r.x, r.y, 1)
    return Representation(r.home, topo.next_shared_ccw(r.home, r.shared), u, v)


def flip_home_face(r: Representation) -> Representation:
    """Swap home and shared face for a point on the shared edge.

    (home, shared, x, 0) and (shared, home, 1 - x, 0) are the two charts
    of one edge point; the flip is an involution.
    """
    if abs(r.y) > EPS_IN:
        raise NotOnSharedEdge(f"y = {r.y} exceeds {EPS_IN}")
    x = min(1.0, max(0.0, r.x))
    return Representation(r.shared, r.home, 1.0 - x, 0.0)


def vertex_representations(v: topo.VertexLabel) -> list[Representation]:
    """The four charts of a vertex, ordered along its face cycle.

    Each chart places the vertex at the (0, 0) corner; the shared face of
    one chart is the home face of the next.  The cycle starts at the
    incident face with the smallest label.
    """
    if v not in topo.VERTICES:
        raise ValueError(f"{sorted(v)} is not a vertex")
    reps = []
    home = min(v)
    for _ in range(4):
        # the chart (home, shared) has S = corner i when shared is neighbor i
        shared = topo.neighbors(home)[topo.face_vertices(home).index(v)]
        reps.append(Representation(home, shared, 0.0, 0.0))
        home = shared
    assert home == min(v)
    return reps


def canonicalize(r: Representation) -> SurfacePoint:
    """Deterministic canonical form of a representation.

    Points within EPS_IN of an edge are snapped onto it and expressed
    with the smaller of the two incident faces as home; vertices use the
    lexicographically smallest (home, shared) chart.  Interior points
    keep their chart unchanged.
    """
    ls, lt, lu = barycentric(r.x, r.y)
    on_base = lu * HALF_SQRT3 <= EPS_IN  # edge shared with r.shared
    on_right = ls * HALF_SQRT3 <= EPS_IN  # edge shared with the next ccw neighbor
    on_left = lt * HALF_SQRT3 <= EPS_IN  # edge shared with the previous ccw neighbor

    corners = topo.chart_corners(r.home, r.shared)
    if (on_base + on_right + on_left) >= 2:  # a corner of the face
        if on_base and on_left:
            vertex = corners[0]
        elif on_base and on_right:
            vertex = corners[1]
        else:
            vertex = corners[2]
        # the first chart has the smallest home face, so the smallest (home, shared)
        return SurfacePoint(vertex_representations(vertex)[0])

    if on_base or on_right or on_left:  # on one edge only
        aligned = r
        if on_right:
            aligned = rotate_once(r)
        elif on_left:
            aligned = rotate_once(rotate_once(r))
        x = min(1.0, max(0.0, aligned.x))
        other = aligned.shared
        if aligned.home < other:
            return SurfacePoint(Representation(aligned.home, other, x, 0.0))
        return SurfacePoint(Representation(other, aligned.home, 1.0 - x, 0.0))

    return SurfacePoint(r)


def surface_point(home: int, shared: int, x: float, y: float) -> SurfacePoint:
    """Convenience constructor: validate and canonicalize a quadruple."""
    return canonicalize(Representation(home, shared, x, y))


def sample_uniform(seed: int, count: int) -> list[SurfacePoint]:
    """Deterministic pseudo-random points, uniform over the surface.

    The face is drawn uniformly from the eight faces and (x, y) uniformly
    over the base triangle by folding the unit square onto it.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        face = rng.randrange(1, 9)
        u = rng.random()
        v = rng.random()
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        x = u + 0.5 * v
        y = HALF_SQRT3 * v
        points.append(surface_point(face, min(topo.neighbors(face)), x, y))
    return points
