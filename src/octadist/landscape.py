"""The nine valid landscapes and the surface-distance minimum.

A landscape is the union of the faces along a simple path in the face
adjacency graph; laying it out flat turns the shortest-path question
into a straight chord.  Between adjacent faces one two-face landscape
suffices (L1); between faces sharing only a vertex there are two
three-face landscapes (L2, L3); between opposite faces six four-face
landscapes (L4..L9).  Each landscape has a closed-form trail length in
the coordinates of the two points, coded here twice on purpose: once as
the bare formula (trail_length) and once via an explicit planar layout
with chord/edge intersections (trail_crossings).  The two codings are
held to agree to 1e-12 by the test suite.  Both per-landscape calls take
their frame from the first point's chart: role 1 is its home face and
role 2 its shared face.

chain_layout places each face by the counter-clockwise rule: the layout
keeps every face's ccw corner order, so each face lies right of the ccw
hinge edge of the face before it, and no side is searched for.

Every landscape is convex: each is a strip of 2 to 4 triangles in which
no vertex lies in more than 3 consecutive faces (a Tier-1 test checks
this over every layout).  So the chord between a point of its first
face and a point of its last face stays inside it and crosses each
hinge once, in path order, and every trail is contained: no code here
handles a chord that leaves its landscape.

surface_distance takes the least formula length; its argmin is the
TIE_EPS band of that minimum, in id order, and only the band's first
landscape is laid out, for its chord.  Each landscape's layout through
a frame is one record, derived from chain_layout once per process: the
formula, the corners of its two formula charts, the hinge segments and
their edge labels, and the instance.  trail_crossings reads that
record.  So does the plan of each ordered pair of charts, built on first
use: how far each point's chart turns (topology.turns, coords.turn) and
the records of its applicable landscapes.  The minimum then runs on
plain floats with the same operations, in the same order, as the
validated trail_length and trail_crossings.  Its core, _distance, takes
and returns plain tuples, and the `distance` command calls it directly.
surface_distance wraps it: it keeps the winner's chord with its result
and builds the trail from it only when the result's `trail` is first
read, so a caller that wants the numbers alone (the oracle's compare)
never pays for it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from . import topology as topo
from .coords import (
    SQRT3,
    HALF_SQRT3,
    OrientedPoint,
    Representation,
    SurfacePoint,
    _corners,
    _place,
    turn,
)

#: Distances closer than this are reported as ties in `argmin`.
TIE_EPS = 1e-12


class WrongRelation(ValueError):
    """The landscape does not apply to this pair of home faces."""


class FrameMismatch(ValueError):
    """The second point is not in the chart the landscape prescribes."""


#: Dual path of each landscape, as frame roles from origin to destination.
PATH_ROLES: dict[int, tuple[int, ...]] = {
    1: (1, 2),
    2: (1, 2, 5),
    3: (1, 6, 5),
    4: (1, 6, 5, 8),
    5: (1, 2, 3, 8),
    6: (1, 4, 7, 8),
    7: (1, 6, 7, 8),
    8: (1, 2, 5, 8),
    9: (1, 4, 3, 8),
}

#: Orientation used for the layout: (base-face role, reference shared-face role).
_ORIENT_ROLES: dict[int, tuple[int, int]] = {
    1: (1, 2),
    2: (1, 6),
    3: (5, 2),
    4: (1, 4),
    5: (1, 6),
    6: (1, 2),
    7: (1, 2),
    8: (1, 4),
    9: (1, 6),
}

APPLICABLE_IDS: dict[topo.Relation, tuple[int, ...]] = {
    topo.Relation.ADJACENT: (1,),
    topo.Relation.NEITHER: (2, 3),
    topo.Relation.OPPOSITE: (4, 5, 6, 7, 8, 9),
}

_RELATION_FOR_ID: dict[int, topo.Relation] = {
    index: rel for rel, ids in APPLICABLE_IDS.items() for index in ids
}

#: Chart roles (home, shared) the second point must be expressed in: one
#: formula chart per relation class.
_P2_CHART_ROLES: dict[topo.Relation, tuple[int, int]] = {
    topo.Relation.ADJACENT: (2, 1),
    topo.Relation.NEITHER: (5, 6),
    topo.Relation.OPPOSITE: (8, 7),
}

#: Point pairs witnessing the validity of each landscape, in the charts
#: (role-1 face, role-2 face) and (role-2/5/8 face, role-1/6/7 face) of the
#: identity frame.  Golden inputs for the acceptance suite.
VALIDITY_WITNESSES: dict[int, tuple[Representation, Representation]] = {
    1: (Representation(1, 2, 0.5, 0.2), Representation(2, 1, 0.5, 0.2)),
    2: (Representation(1, 2, 0.5, 0.1), Representation(5, 6, 0.8, 0.1)),
    3: (Representation(1, 2, 0.8, 0.1), Representation(5, 6, 0.5, 0.1)),
    4: (Representation(1, 2, 0.9, 1 / 6), Representation(8, 7, 0.9, 1 / 6)),
    5: (Representation(1, 2, 0.1, 0.1), Representation(8, 7, 0.4, 2 / 3)),
    6: (Representation(1, 2, 0.4, 2 / 3), Representation(8, 7, 0.1, 0.1)),
    7: (Representation(1, 2, 0.6, 2 / 3), Representation(8, 7, 0.9, 0.1)),
    8: (Representation(1, 2, 0.9, 0.1), Representation(8, 7, 0.6, 2 / 3)),
    9: (Representation(1, 2, 0.1, 1 / 6), Representation(8, 7, 0.1, 1 / 6)),
}


class LandscapeInstance(NamedTuple):
    """A landscape id realized on concrete faces through a frame."""

    index: int
    frame: topo.Frame
    faces: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"L{self.index}"


class Crossing(NamedTuple):
    """Where the trail crosses one interior edge of its landscape.

    `edge` is the ordered pair of vertex labels (S, T) of the chart that
    approaches the edge; `parameter` in [0, 1] measures from S, so the
    crossing sits at S + parameter * (T - S).  `point` is its position in
    the orientation's plane.
    """

    edge: tuple[topo.VertexLabel, topo.VertexLabel]
    point: OrientedPoint
    parameter: float


class TrailResult(NamedTuple):
    """Chord of one landscape: length, crossings, containment.

    Every landscape is convex, so its chord stays inside it: `length` and
    `chord_length` are both the chord length of the layout, `crossings`
    has one entry per interior edge, in path order, and `contained` is
    always true.  A same-face or coincident pair has no landscape and no
    crossings.
    """

    length: float
    chord_length: float
    landscape: LandscapeInstance | None
    crossings: tuple[Crossing, ...]
    contained: bool


class _DistanceFields(NamedTuple):
    distance: float
    argmin: tuple[int, ...]
    fallback: bool


class DistanceResult(_DistanceFields):
    """Surface distance with all minimizing landscapes.

    `argmin` lists the minimizing landscape ids ascending (empty for
    coincident or same-face pairs, where no landscape id applies).
    Every landscape is convex, so every chord is contained and
    `fallback` is always false; the field stays for the wire formats.
    `trail` is the trail of the first minimizer; it is built the first
    time it is read and then kept.  The three fields are the tuple, so
    equality and hashing compare `distance`, `argmin` and `fallback` only.
    """

    # (planned landscape, chord length, intersections) of the first
    # minimizer, or None for coincident and same-face pairs; a result that
    # NamedTuple's _make builds has none
    _winner = None

    def __new__(cls, distance: float, argmin: tuple[int, ...], fallback: bool, _winner=None):
        self = tuple.__new__(cls, (distance, argmin, fallback))
        self._winner = _winner
        return self

    def _replace(self, **changes) -> DistanceResult:
        """A copy with some fields changed; it keeps the first minimizer's chord."""
        new = super()._replace(**changes)
        new._winner = self._winner
        return new

    @functools.cached_property
    def trail(self) -> TrailResult:
        if self._winner is None:
            return TrailResult(self.distance, self.distance, None, (), True)
        return _trail(*self._winner)


def _check_inputs(index: int, p1: Representation, p2: Representation) -> topo.Frame:
    """Check the index, the relation and p2's chart; return the frame of p1's chart."""
    # True == 1, and would key `_layout`'s cache as landscape 1
    if type(index) is not int or index not in PATH_ROLES:
        raise ValueError(f"landscape index must be 1..9, got {index}")
    rel = topo.relation(p1.home, p2.home)
    if rel is not _RELATION_FOR_ID[index]:
        raise WrongRelation(
            f"L{index} needs {_RELATION_FOR_ID[index].value} home faces, "
            f"got F{p1.home} and F{p2.home} ({rel.value})"
        )
    frame = topo.Frame.from_anchor(p1.home, p1.shared)
    h_role, s_role = _P2_CHART_ROLES[rel]
    if p2.home != frame.face(h_role) or p2.shared != frame.face(s_role):
        raise FrameMismatch(
            f"L{index} with p1 in the chart (F{p1.home}, F{p1.shared}) expects p2 in "
            f"(F{frame.face(h_role)}, F{frame.face(s_role)}), got (F{p2.home}, F{p2.shared})"
        )
    return frame


def _formula_1(x1, y1, x2, y2):
    return math.hypot(x1 + x2 - 1.0, y1 + y2)


def _formula_2(x1, y1, x2, y2):
    return math.hypot(
        (1.0 - x1 + SQRT3 * y1) / 2.0 - x2 + 1.0,
        (SQRT3 - SQRT3 * x1 - y1) / 2.0 - y2,
    )


def _formula_3(x1, y1, x2, y2):
    return math.hypot(
        x1 - 1.0 - (1.0 - x2 + SQRT3 * y2) / 2.0,
        y1 - (SQRT3 - SQRT3 * x2 - y2) / 2.0,
    )


def _formula_4(x1, y1, x2, y2):
    return math.hypot(
        (2.0 - x1 - SQRT3 * y1) / 2.0 - (-2.0 + x2 + SQRT3 * y2) / 2.0,
        (SQRT3 * x1 - y1) / 2.0 - (2.0 * SQRT3 - SQRT3 * x2 + y2) / 2.0,
    )


def _formula_5(x1, y1, x2, y2):
    return math.hypot(
        (1.0 - x1 + SQRT3 * y1) / 2.0 + x2,
        (SQRT3 - SQRT3 * x1 - y1) / 2.0 + y2 - SQRT3,
    )


def _formula_6(x1, y1, x2, y2):
    return math.hypot(
        x1 - (-1.0 + x2 - SQRT3 * y2) / 2.0,
        y1 - (SQRT3 * x2 + y2 + SQRT3) / 2.0,
    )


def _formula_7(x1, y1, x2, y2):
    return math.hypot(
        x1 - (2.0 + x2 + SQRT3 * y2) / 2.0,
        y1 - (-SQRT3 * x2 + y2 + 2.0 * SQRT3) / 2.0,
    )


def _formula_8(x1, y1, x2, y2):
    return math.hypot(
        (2.0 - x1 - SQRT3 * y1) / 2.0 + x2 - 2.0,
        (SQRT3 * x1 - y1) / 2.0 + y2 - SQRT3,
    )


def _formula_9(x1, y1, x2, y2):
    return math.hypot(
        (1.0 - x1 + SQRT3 * y1) / 2.0 - (3.0 + x2 - SQRT3 * y2) / 2.0,
        (SQRT3 - SQRT3 * x1 - y1) / 2.0 - (SQRT3 + SQRT3 * x2 + y2) / 2.0,
    )


#: Closed-form trail length of each landscape, in the coordinates of its
#: two formula charts (see trail_length).
_FORMULAS = {
    1: _formula_1,
    2: _formula_2,
    3: _formula_3,
    4: _formula_4,
    5: _formula_5,
    6: _formula_6,
    7: _formula_7,
    8: _formula_8,
    9: _formula_9,
}


def trail_length(index: int, p1: Representation, p2: Representation) -> float:
    """Closed-form trail length of landscape L1..L9.

    The frame is taken from p1's chart: its home face is role 1 and its
    shared face role 2 (topology.Frame.from_anchor).  p2 must be in the
    chart the landscape's class prescribes in that frame: (role 2,
    role 1) for L1, (role 5, role 6) for L2/L3, (role 8, role 7) for
    L4..L9; FrameMismatch otherwise.  Each formula bakes in the chart
    rotations that align both points with the landscape's reference
    orientation.
    """
    _check_inputs(index, p1, p2)
    return _FORMULAS[index](p1.x, p1.y, p2.x, p2.y)


def _extend_layout(positions, known: int, new: int) -> None:
    # the ccw rule (see chain_layout): new's third corner is t - s turned
    # 60 degrees clockwise about s
    s, t = topo.shared_edge(known, new)
    (third,) = set(topo.face_vertices(new)) - {s, t}
    ps, pt = positions[known][s], positions[known][t]
    (sx, sy), (tx, ty) = ps, pt
    ex, ey = tx - sx, ty - sy
    apex = (sx + (0.5 * ex + HALF_SQRT3 * ey), sy + (-HALF_SQRT3 * ex + 0.5 * ey))
    positions[new] = {s: ps, t: pt, third: apex}


def chain_layout(
    faces: tuple[int, ...], base_index: int, ref_face: int
) -> dict[int, dict[topo.VertexLabel, tuple[float, float]]]:
    """Planar positions of every corner of an unfolded face chain.

    The face faces[base_index] is laid out in its (face, ref_face) chart
    (shared edge on the unit base segment, face in the upper half-plane);
    the remaining faces unfold from it along the chain, each congruent to
    the unit triangle and on the far side of the hinge edge.  No side is
    searched for: the layout keeps the faces' counter-clockwise corner
    order, so a face already placed lies left of its hinge edge s -> t
    (in its own ccw order) and the next face right of it, with its third
    corner at s + (t - s) turned 60 degrees clockwise.
    """
    base = faces[base_index]
    s, t, u = topo.chart_corners(base, ref_face)
    positions = {base: {s: (0.0, 0.0), t: (1.0, 0.0), u: (0.5, HALF_SQRT3)}}
    for i in range(base_index + 1, len(faces)):
        _extend_layout(positions, faces[i - 1], faces[i])
    for i in range(base_index - 1, -1, -1):
        _extend_layout(positions, faces[i + 1], faces[i])
    return positions


def chord_edge_intersections(a, b, edges):
    """Crossings of the chord a-b with a landscape's hinge segments, in path order.

    Each entry of `edges` is (ps, pt); returns one (edge parameter,
    point) per segment, the parameter clamped to [0, 1] and measured from
    ps.  The landscape is convex, so the chord between its first and last
    face meets every hinge within the segment, in order.  A zero-length
    chord is placed at the segment point nearest to it, and a chord along
    the edge's line at the middle of its overlap with the segment.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    degenerate = math.hypot(dx, dy) < 1e-12
    out = []
    for ps, pt in edges:
        ex, ey = pt[0] - ps[0], pt[1] - ps[1]
        fx, fy = ps[0] - a[0], ps[1] - a[1]
        denom = dx * ey - dy * ex
        if degenerate:
            s = (-fx * ex - fy * ey) / (ex * ex + ey * ey)
        elif abs(denom) < 1e-14:  # along the edge's line
            ee = ex * ex + ey * ey
            sa = (-fx * ex - fy * ey) / ee
            sb = ((b[0] - ps[0]) * ex + (b[1] - ps[1]) * ey) / ee
            s = (max(min(sa, sb), 0.0) + min(max(sa, sb), 1.0)) / 2.0
        else:
            s = (fx * dy - fy * dx) / denom
        s = 0.0 if s < 0.0 else 1.0 if s > 1.0 else s
        out.append((s, (ps[0] + s * ex, ps[1] + s * ey)))
    return out


class _PlannedLandscape(NamedTuple):
    """Layout of one landscape through a frame, in its two formula charts."""

    formula: Callable[[float, float, float, float], float]
    first: tuple  # layout positions of the first point's chart corners
    last: tuple  # layout positions of the second point's chart corners
    segments: tuple
    edge_labels: tuple
    instance: LandscapeInstance


@functools.lru_cache(maxsize=None)
def _layout(index: int, frame: topo.Frame) -> _PlannedLandscape:
    """Layout of landscape `index` through `frame`, derived once.

    The first point's chart is (role 1, role 2) and the second point's
    the one _P2_CHART_ROLES names for its class; the interior edges'
    vertex labels and planar segments follow in path order.  At most
    9 x 24 entries exist.
    """
    roles = PATH_ROLES[index]
    faces = tuple(frame.face(r) for r in roles)
    base_role, ref_role = _ORIENT_ROLES[index]
    positions = chain_layout(faces, roles.index(base_role), frame.face(ref_role))
    edge_labels = tuple(topo.shared_edge(faces[i], faces[i + 1]) for i in range(len(faces) - 1))
    segments = tuple(
        (positions[faces[i]][s], positions[faces[i]][t])
        for i, (s, t) in enumerate(edge_labels)
    )
    h_role, s_role = _P2_CHART_ROLES[_RELATION_FOR_ID[index]]
    return _PlannedLandscape(
        _FORMULAS[index],
        _corners(positions[faces[0]], frame.face(1), frame.face(2)),
        _corners(positions[faces[-1]], frame.face(h_role), frame.face(s_role)),
        segments,
        edge_labels,
        LandscapeInstance(index, frame, faces),
    )


def _chord(ls: _PlannedLandscape, x1: float, y1: float, x2: float, y2: float):
    """Chord length of one laid-out landscape and its edge intersections.

    (x1, y1) and (x2, y2) are in the layout's two formula charts.
    """
    a = _place(ls.first, x1, y1)
    b = _place(ls.last, x2, y2)
    return math.hypot(b[0] - a[0], b[1] - a[1]), chord_edge_intersections(a, b, ls.segments)


def _trail(ls: _PlannedLandscape, chord: float, hits) -> TrailResult:
    crossings = tuple(
        Crossing(edge=edge, point=OrientedPoint(*pt), parameter=s)
        for edge, (s, pt) in zip(ls.edge_labels, hits)
    )
    return TrailResult(chord, chord, ls.instance, crossings, True)


def trail_crossings(index: int, p1: Representation, p2: Representation) -> TrailResult:
    """Trail of landscape L1..L9 via its planar layout.

    Takes its frame and charts as trail_length does.  Lays the
    landscape's faces out in its reference orientation, places both
    points, and intersects the chord with the interior shared edges in
    dual-path order.  The landscape is convex, so the trail is contained.
    """
    ls = _layout(index, _check_inputs(index, p1, p2))  # p1 and p2 are in the layout's charts
    return _trail(ls, *_chord(ls, p1.x, p1.y, p2.x, p2.y))


class _ChartPairPlan(NamedTuple):
    """What the minimum needs to know about one ordered chart pair.

    The first point turns `turns1` times into its formula chart, the
    second `turns2` times into its own.  `landscapes` holds the layout
    records of the applicable landscapes in ascending id order; each
    record's instance carries its id.
    """

    turns1: int
    turns2: int
    landscapes: tuple[_PlannedLandscape, ...]


@functools.lru_cache(maxsize=None)
def _plan(home1: int, shared1: int, home2: int, shared2: int) -> _ChartPairPlan:
    """Plan of the chart pair (home1, shared1) -> (home2, shared2), built once.

    The homes must differ; at most 8 x 3 x 7 x 3 = 504 plans exist.
    """
    frame = topo.canonical_frame(home1, home2)
    rel = topo.relation(home1, home2)
    return _ChartPairPlan(
        topo.turns(home1, shared1, frame.face(2)),
        topo.turns(home2, shared2, frame.face(_P2_CHART_ROLES[rel][1])),
        tuple(_layout(index, frame) for index in APPLICABLE_IDS[rel]),
    )


def _distance(ra: tuple, rb: tuple) -> tuple:
    """surface_distance's fields and winner (see DistanceResult) from two canonical quadruples."""
    home1, shared1, x1, y1 = ra
    home2, shared2, x2, y2 = rb
    if home1 == home2:  # coincident points give hypot(0.0, 0.0), zero
        x, y = turn(x2, y2, topo.turns(home2, shared2, shared1))
        return math.hypot(x1 - x, y1 - y), (), False, None

    plan = _plan(home1, shared1, home2, shared2)
    x1, y1 = turn(x1, y1, plan.turns1)
    x2, y2 = turn(x2, y2, plan.turns2)
    landscapes = plan.landscapes
    lengths = [ls.formula(x1, y1, x2, y2) for ls in landscapes]
    best = min(lengths)
    band = [ls for ls, length in zip(landscapes, lengths) if length <= best + TIE_EPS]
    argmin = tuple([ls.instance.index for ls in band])
    return best, argmin, False, (band[0], *_chord(band[0], x1, y1, x2, y2))


def surface_distance(a: SurfacePoint, b: SurfacePoint) -> DistanceResult:
    """Geodesic distance on the surface, with its minimizing landscapes.

    Adjacent home faces use L1; faces sharing only a vertex use the
    smaller of L2 and L3; opposite faces the smallest of L4..L9.  The
    argmin is every landscape within TIE_EPS of the least formula length,
    in id order, and the first of them is the trail's.  Every landscape
    is convex, so its chord stays inside it and `fallback` is always
    false.  Same-face pairs use the in-face straight distance, coincident
    points return zero; both report an empty `argmin`.  This wraps
    `_distance`, the core over plain tuples.
    """
    return DistanceResult(*_distance(a.canonical, b.canonical))


def shortest_path(a: SurfacePoint, b: SurfacePoint) -> TrailResult:
    """Trail of the minimizing landscape between two surface points."""
    return surface_distance(a, b).trail
