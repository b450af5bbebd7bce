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
held to agree to 1e-12 by the test suite.

surface_distance takes the minimum of the formulas and lays out only the
minimizing landscapes; every applicable landscape is laid out only when
a minimizer's chord is not contained.  Each landscape's layout through a
frame is derived from chain_layout once per process and reused.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

from . import topology as topo
from .coords import (
    EPS_IN,
    SQRT3,
    HALF_SQRT3,
    FrameMismatch,
    OrientedPoint,
    Representation,
    SurfacePoint,
    barycentric,
    rotate_once,
    rotate_to_shared,
)

#: Distances closer than this are reported as ties in `argmin`.
TIE_EPS = 1e-12


class WrongRelation(ValueError):
    """The landscape does not apply to this pair of home faces."""


LANDSCAPE_IDS = tuple(range(1, 10))

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

#: Chart roles (home, shared) the second point must be expressed in.
_P2_CHART_ROLES: dict[int, tuple[int, int]] = {
    1: (2, 1),
    2: (5, 6),
    3: (5, 6),
    **{a: (8, 7) for a in range(4, 10)},
}

_RELATION_FOR_ID: dict[int, topo.Relation] = {
    1: topo.Relation.ADJACENT,
    2: topo.Relation.NEITHER,
    3: topo.Relation.NEITHER,
    **{a: topo.Relation.OPPOSITE for a in range(4, 10)},
}

APPLICABLE_IDS: dict[topo.Relation, tuple[int, ...]] = {
    topo.Relation.ADJACENT: (1,),
    topo.Relation.NEITHER: (2, 3),
    topo.Relation.OPPOSITE: (4, 5, 6, 7, 8, 9),
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


@dataclass(frozen=True)
class LandscapeInstance:
    """A landscape id realized on concrete faces through a frame."""

    index: int
    frame: topo.Frame
    faces: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"L{self.index}"


@dataclass(frozen=True)
class Crossing:
    """Where the trail crosses one interior edge of its landscape.

    `edge` is the ordered pair of vertex labels (S, T) of the chart that
    approaches the edge; `parameter` in [0, 1] measures from S, so the
    crossing sits at S + parameter * (T - S).  `point` is its position in
    the orientation's plane.
    """

    edge: tuple[topo.VertexLabel, topo.VertexLabel]
    point: OrientedPoint
    parameter: float


@dataclass(frozen=True)
class TrailResult:
    """Chord of one landscape: length, crossings, containment.

    `length` is the trail length: the chord length when the chord stays
    inside the landscape, infinity otherwise.  `chord_length` is always
    the finite chord length of the layout.  `crossings` is populated only
    for contained trails (one entry per interior edge, in path order).
    """

    length: float
    chord_length: float
    landscape: LandscapeInstance | None
    crossings: tuple[Crossing, ...]
    contained: bool


@dataclass(frozen=True)
class DistanceResult:
    """Surface distance with all minimizing landscapes.

    `argmin` lists the minimizing landscape ids ascending (empty for
    coincident or same-face pairs, where no landscape id applies) and
    `trail` is the trail of the first minimizer.  `fallback` marks the
    degenerate situation where no applicable chord was contained and the
    unfiltered minimum was reported instead.
    """

    distance: float
    argmin: tuple[int, ...]
    trail: TrailResult
    fallback: bool


def _check_inputs(index: int, p1: Representation, p2: Representation, frame: topo.Frame) -> None:
    if index not in LANDSCAPE_IDS:
        raise ValueError(f"landscape index must be 1..9, got {index}")
    rel = topo.relation(p1.home, p2.home)
    if rel is not _RELATION_FOR_ID[index]:
        raise WrongRelation(
            f"L{index} needs {_RELATION_FOR_ID[index].value} home faces, "
            f"got F{p1.home} and F{p2.home} ({rel.value})"
        )
    if p1.home != frame.face(1) or p1.shared != frame.face(2):
        raise _chart_mismatch(index, 1, 2, p1, frame)
    h_role, s_role = _P2_CHART_ROLES[index]
    if p2.home != frame.face(h_role) or p2.shared != frame.face(s_role):
        raise _chart_mismatch(index, h_role, s_role, p2, frame)


def _chart_mismatch(index, h_role, s_role, rep, frame) -> FrameMismatch:
    return FrameMismatch(
        f"L{index} expects the chart (F{frame.face(h_role)}, F{frame.face(s_role)}), "
        f"got (F{rep.home}, F{rep.shared})"
    )


def trail_length(index: int, p1: Representation, p2: Representation, frame: topo.Frame) -> float:
    """Closed-form trail length of landscape L1..L9.

    p1 must be in the chart (role-1 face, role-2 face) and p2 in the
    chart the landscape's class prescribes: (role 2, role 1) for L1,
    (role 5, role 6) for L2/L3, (role 8, role 7) for L4..L9.  Each
    formula bakes in the chart rotations that align both points with the
    landscape's reference orientation.
    """
    _check_inputs(index, p1, p2, frame)
    x1, y1, x2, y2 = p1.x, p1.y, p2.x, p2.y
    r3 = SQRT3
    if index == 1:
        return math.hypot(x1 + x2 - 1.0, y1 + y2)
    if index == 2:
        return math.hypot(
            (1.0 - x1 + r3 * y1) / 2.0 - x2 + 1.0,
            (r3 - r3 * x1 - y1) / 2.0 - y2,
        )
    if index == 3:
        return math.hypot(
            x1 - 1.0 - (1.0 - x2 + r3 * y2) / 2.0,
            y1 - (r3 - r3 * x2 - y2) / 2.0,
        )
    if index == 4:
        return math.hypot(
            (2.0 - x1 - r3 * y1) / 2.0 - (-2.0 + x2 + r3 * y2) / 2.0,
            (r3 * x1 - y1) / 2.0 - (2.0 * r3 - r3 * x2 + y2) / 2.0,
        )
    if index == 5:
        return math.hypot(
            (1.0 - x1 + r3 * y1) / 2.0 + x2,
            (r3 - r3 * x1 - y1) / 2.0 + y2 - r3,
        )
    if index == 6:
        return math.hypot(
            x1 - (-1.0 + x2 - r3 * y2) / 2.0,
            y1 - (r3 * x2 + y2 + r3) / 2.0,
        )
    if index == 7:
        return math.hypot(
            x1 - (2.0 + x2 + r3 * y2) / 2.0,
            y1 - (-r3 * x2 + y2 + 2.0 * r3) / 2.0,
        )
    if index == 8:
        return math.hypot(
            (2.0 - x1 - r3 * y1) / 2.0 + x2 - 2.0,
            (r3 * x1 - y1) / 2.0 + y2 - r3,
        )
    # index == 9
    return math.hypot(
        (1.0 - x1 + r3 * y1) / 2.0 - (3.0 + x2 - r3 * y2) / 2.0,
        (r3 - r3 * x1 - y1) / 2.0 - (r3 + r3 * x2 + y2) / 2.0,
    )


def _rot60(vx: float, vy: float, ccw: bool) -> tuple[float, float]:
    if ccw:
        return 0.5 * vx - HALF_SQRT3 * vy, HALF_SQRT3 * vx + 0.5 * vy
    return 0.5 * vx + HALF_SQRT3 * vy, -HALF_SQRT3 * vx + 0.5 * vy


def _extend_layout(positions, known: int, new: int) -> None:
    shared = set(topo.face_vertices(known)) & set(topo.face_vertices(new))
    a, b = tuple(shared)
    (third_new,) = set(topo.face_vertices(new)) - shared
    (third_known,) = set(topo.face_vertices(known)) - shared
    pa = positions[known][a]
    pb = positions[known][b]
    pk = positions[known][third_known]
    ex, ey = pb[0] - pa[0], pb[1] - pa[1]
    side_known = ex * (pk[1] - pa[1]) - ey * (pk[0] - pa[0])
    for ccw in (True, False):
        rx, ry = _rot60(ex, ey, ccw)
        cand = (pa[0] + rx, pa[1] + ry)
        side = ex * (cand[1] - pa[1]) - ey * (cand[0] - pa[0])
        if side * side_known < 0.0:
            positions[new] = {a: pa, b: pb, third_new: cand}
            return
    raise AssertionError("no opposite-side placement found")


def chain_layout(
    faces: tuple[int, ...], base_index: int, ref_face: int
) -> dict[int, dict[topo.VertexLabel, tuple[float, float]]]:
    """Planar positions of every corner of an unfolded face chain.

    The face faces[base_index] is laid out in its (face, ref_face) chart
    (shared edge on the unit base segment, face in the upper half-plane);
    the remaining faces unfold from it along the chain, each congruent to
    the unit triangle and on the far side of the hinge edge.
    """
    base = faces[base_index]
    s, t, u = topo.chart_corners(base, ref_face)
    positions = {base: {s: (0.0, 0.0), t: (1.0, 0.0), u: (0.5, HALF_SQRT3)}}
    for i in range(base_index + 1, len(faces)):
        _extend_layout(positions, faces[i - 1], faces[i])
    for i in range(base_index - 1, -1, -1):
        _extend_layout(positions, faces[i + 1], faces[i])
    return positions


def place_in_layout(
    positions: dict[topo.VertexLabel, tuple[float, float]], rep: Representation
) -> tuple[float, float]:
    """Map a representation into a layout via its chart's corner labels."""
    s, t, u = topo.chart_corners(rep.home, rep.shared)
    ls, lt, lu = barycentric(rep.x, rep.y)
    ps, pt, pu = positions[s], positions[t], positions[u]
    return (
        ls * ps[0] + lt * pt[0] + lu * pu[0],
        ls * ps[1] + lt * pt[1] + lu * pu[1],
    )


def _clamp01(v: float) -> float:
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def chord_edge_intersections(a, b, edges, tol: float = EPS_IN):
    """Ordered intersections of the chord a-b with a list of segments.

    Each entry of `edges` is (ps, pt); returns a list of (edge parameter,
    chord parameter, point) or None when the chord misses a segment, hits
    them out of order, or leaves [0, 1] on either parameter beyond tol.
    Endpoint grazes count as crossings; parameters are clamped on output.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    chord_len = math.hypot(dx, dy)
    out = []
    prev_t = -tol
    for ps, pt in edges:
        ex, ey = pt[0] - ps[0], pt[1] - ps[1]
        if chord_len < 1e-12:
            # degenerate chord: the single point must lie on the segment
            ee = ex * ex + ey * ey
            s = _clamp01(((a[0] - ps[0]) * ex + (a[1] - ps[1]) * ey) / ee)
            px, py = ps[0] + s * ex, ps[1] + s * ey
            if math.hypot(a[0] - px, a[1] - py) > tol:
                return None
            out.append((s, 0.0, (px, py)))
            continue
        denom = dx * ey - dy * ex
        fx, fy = ps[0] - a[0], ps[1] - a[1]
        if abs(denom) < 1e-14:
            # chord parallel to the edge line: contained only if collinear
            dist_a = abs(fx * ey - fy * ex) / math.hypot(ex, ey)
            if dist_a > tol:
                return None
            ee = ex * ex + ey * ey
            sa = (-fx * ex - fy * ey) / ee
            sb = ((b[0] - ps[0]) * ex + (b[1] - ps[1]) * ey) / ee
            lo, hi = min(sa, sb), max(sa, sb)
            lo, hi = max(lo, 0.0), min(hi, 1.0)
            if lo > hi + tol:
                return None
            s = _clamp01((lo + hi) / 2.0)
            t = 0.5 if abs(sb - sa) < 1e-12 else _clamp01((s - sa) / (sb - sa))
        else:
            t = (fx * ey - fy * ex) / denom
            s = (fx * dy - fy * dx) / denom
            if s < -tol or s > 1.0 + tol:
                return None
            if t < -tol or t > 1.0 + tol:
                return None
            if t < prev_t - tol:
                return None
            prev_t = max(prev_t, t)
            s = _clamp01(s)
            t = _clamp01(t)
        out.append((s, t, (ps[0] + s * ex, ps[1] + s * ey)))
    return out


@functools.lru_cache(maxsize=None)
def _layout(index: int, frame: topo.Frame):
    """Layout of landscape `index` through `frame`, derived once.

    Returns the corner positions of the first and last face (read-only),
    the interior edges' vertex labels and planar segments in path order,
    and the landscape instance.  At most 9 x 24 entries exist.
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
    return (
        MappingProxyType(positions[faces[0]]),
        MappingProxyType(positions[faces[-1]]),
        edge_labels,
        segments,
        LandscapeInstance(index, frame, faces),
    )


def trail_crossings(
    index: int, p1: Representation, p2: Representation, frame: topo.Frame
) -> TrailResult:
    """Trail of landscape L1..L9 via its planar layout.

    Lays the landscape's faces out in its reference orientation, places
    both points, and intersects the chord with the interior shared edges
    in dual-path order.  The trail is contained exactly when every
    intersection parameter stays in [0, 1] (endpoints included) and the
    chord meets the edges in path order.
    """
    _check_inputs(index, p1, p2, frame)
    first, last, edge_labels, segments, landscape = _layout(index, frame)
    a = place_in_layout(first, p1)
    b = place_in_layout(last, p2)
    chord = math.hypot(b[0] - a[0], b[1] - a[1])
    hits = chord_edge_intersections(a, b, segments)
    if hits is None:
        return TrailResult(math.inf, chord, landscape, (), False)
    crossings = tuple(
        Crossing(edge=edge_labels[i], point=OrientedPoint(*pt), parameter=s)
        for i, (s, _t, pt) in enumerate(hits)
    )
    return TrailResult(chord, chord, landscape, crossings, True)


def _degenerate_trail(length: float) -> TrailResult:
    return TrailResult(length, length, None, (), True)


def _prepare_pair(a: SurfacePoint, b: SurfacePoint):
    """Frame and formula-chart representations for a classified pair."""
    ra, rb = a.canonical, b.canonical
    frame, rotations = topo.canonical_frame(ra.home, ra.shared, rb.home)
    p1 = ra
    for _ in range(rotations):
        p1 = rotate_once(p1)
    first_id = APPLICABLE_IDS[topo.relation(ra.home, rb.home)][0]
    p2 = rotate_to_shared(rb, frame.face(_P2_CHART_ROLES[first_id][1]))
    return frame, p1, p2


def surface_distance(a: SurfacePoint, b: SurfacePoint) -> DistanceResult:
    """Geodesic distance on the surface, with its minimizing landscapes.

    Adjacent home faces use L1; faces sharing only a vertex use the
    smaller of L2 and L3; opposite faces the smallest of L4..L9.  Only
    the minimizing landscapes (within TIE_EPS) are laid out; when all of
    their chords are contained, that minimum is the result.  Otherwise
    every applicable landscape is laid out: trails whose chord leaves the
    landscape count as infinite, and if that filters out every applicable
    landscape (possible only for boundary-degenerate inputs) the
    unfiltered minimum is returned with `fallback` set.  Same-face pairs
    use the in-face straight distance, coincident points return zero;
    both report an empty `argmin`.
    """
    ra, rb = a.canonical, b.canonical
    if ra == rb:
        return DistanceResult(0.0, (), _degenerate_trail(0.0), False)
    if ra.home == rb.home:
        rb_aligned = rotate_to_shared(rb, ra.shared)
        d = math.hypot(ra.x - rb_aligned.x, ra.y - rb_aligned.y)
        return DistanceResult(d, (), _degenerate_trail(d), False)

    frame, p1, p2 = _prepare_pair(a, b)
    ids = APPLICABLE_IDS[topo.relation(ra.home, rb.home)]
    lengths = {i: trail_length(i, p1, p2, frame) for i in ids}
    best = min(lengths.values())
    argmin = tuple(i for i in ids if lengths[i] <= best + TIE_EPS)
    trails = {i: trail_crossings(i, p1, p2, frame) for i in argmin}
    if all(t.contained for t in trails.values()):
        # the minimizers are in the contained pool, so filtering changes nothing
        return DistanceResult(best, argmin, trails[argmin[0]], False)

    trails = {i: trail_crossings(i, p1, p2, frame) for i in ids}

    contained_ids = [i for i in ids if trails[i].contained]
    fallback = not contained_ids
    pool = list(ids) if fallback else contained_ids
    best = min(lengths[i] for i in pool)
    argmin = tuple(i for i in pool if lengths[i] <= best + TIE_EPS)
    return DistanceResult(best, argmin, trails[argmin[0]], fallback)


def shortest_path(a: SurfacePoint, b: SurfacePoint) -> TrailResult:
    """Trail of the minimizing landscape between two surface points."""
    return surface_distance(a, b).trail
