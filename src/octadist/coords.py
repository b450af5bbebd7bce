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

#: Distance to an edge up to which a point outside it is valid and one near it is snapped onto it.
EPS_IN = 1e-9


class InvalidRepresentation(ValueError):
    """The quadruple does not describe a point of the surface."""


class NotOnSharedEdge(ValueError):
    """Home-face flips are only defined for points within EPS_IN of the shared edge."""


class _RepresentationFields(NamedTuple):
    home: int
    shared: int
    x: float
    y: float


def _checked(home: int, shared: int, x: float, y: float) -> tuple[int, int, float, float]:
    """The quadruple as a tuple if (x, y) is at most EPS_IN outside each edge, else InvalidRepresentation."""
    # a label is an int: True or 1.0 equals the label 1 and would pass
    # the membership tests, then key the caches' tables as face 1 but
    # print as "FTrue" or "F1.0"
    if type(home) is not int or home not in topo.FACE_INDICES:
        raise InvalidRepresentation(f"unknown face {home!r}")
    if type(shared) is not int:
        raise InvalidRepresentation(f"unknown face {shared!r}")
    if shared not in topo.neighbors(home):
        raise InvalidRepresentation(f"F{shared} is not adjacent to F{home}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidRepresentation("coordinates must be finite")
    if min(edge_distances(x, y)) < -EPS_IN:
        raise InvalidRepresentation(f"({x}, {y}) lies outside the face triangle")
    return home, shared, x, y


class Representation(_RepresentationFields):
    """Quadruple (home face, shared face, x, y) locating a surface point."""

    __slots__ = ()

    def __new__(cls, home: int, shared: int, x: float, y: float):
        return tuple.__new__(cls, _checked(home, shared, x, y))

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


def edge_distances(x: float, y: float) -> tuple[float, float, float]:
    """Signed distances of (x, y) to the chart edges opposite S, T and U (the base), negative outside."""
    yy = y / SQRT3  # barycentric(x, y), each weight times HALF_SQRT3
    return (1.0 - x - yy) * HALF_SQRT3, (x - yy) * HALF_SQRT3, 2.0 * yy * HALF_SQRT3


def _place(corners, x: float, y: float) -> tuple[float, float]:
    """Plane position of chart point (x, y), given the chart's corners (S, T, U) there."""
    ls, lt, lu = barycentric(x, y)
    ps, pt, pu = corners
    return (
        ls * ps[0] + lt * pt[0] + lu * pu[0],
        ls * ps[1] + lt * pt[1] + lu * pu[1],
    )


def _corners(positions, home: int, shared: int) -> tuple:
    """Positions of the corners (S, T, U) of the chart (home, shared), looked up by vertex."""
    s, t, u = topo.chart_corners(home, shared)
    return positions[s], positions[t], positions[u]


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
    """Swap home and shared face for a point within EPS_IN of the shared edge.

    (home, shared, x, 0) and (shared, home, 1 - x, 0) are the two charts
    of one edge point; the flip is an involution.
    """
    if abs(edge_distances(r.x, r.y)[2]) > EPS_IN:
        raise NotOnSharedEdge(f"y = {r.y} exceeds {EPS_IN}")
    return Representation(r.shared, r.home, 1.0 - min(1.0, max(0.0, r.x)), 0.0)


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


def _canonical(r: tuple) -> tuple:
    """Deterministic canonical form of a checked (home, shared, x, y) tuple.

    A point within EPS_IN of an edge is snapped onto it, with the smaller
    incident face as home, and a vertex takes its smallest (home, shared)
    chart.  An interior point is returned as it was given.
    """
    home, shared, x, y = r
    ds, dt, du = edge_distances(x, y)
    on_base = du <= EPS_IN  # edge shared with `shared`
    on_right = ds <= EPS_IN  # edge shared with the next ccw neighbor
    on_left = dt <= EPS_IN  # edge shared with the previous ccw neighbor

    if (on_base + on_right + on_left) >= 2:  # a corner of the face
        # the corner (S, T or U) where the two near edges meet is opposite the far one
        vertex = topo.chart_corners(home, shared)[(on_right, on_left, on_base).index(False)]
        # the first chart has the smallest home face, so the smallest (home, shared)
        return vertex_representations(vertex)[0]

    if on_base or on_right or on_left:  # on one edge only
        # turn the chart until that edge is its base; at most EPS_IN below it and
        # more than EPS_IN from the other edges, the point drops onto the base at
        # EPS_IN / SQRT3 < x < 1 - EPS_IN / SQRT3: no clamp is needed
        times = 1 if on_right else 2 if on_left else 0
        for _ in range(times):
            shared = topo.next_shared_ccw(home, shared)
        x, y = turn(x, y, times)
        return (home, shared, x, 0.0) if home < shared else (shared, home, 1.0 - x, 0.0)

    return r


def canonicalize(r: Representation) -> SurfacePoint:
    """Canonical form of a representation (see _canonical), as a SurfacePoint."""
    return SurfacePoint(tuple.__new__(Representation, _canonical(r)))


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
