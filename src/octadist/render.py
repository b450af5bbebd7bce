"""SVG rendering of shortest trails on the fixed octahedron net.

The net is the one the face labelling is defined on: a horizontal strip
of six faces with two flaps.  Trails are drawn per face: each crossing
knows its edge and edge parameter, which pins its position on both
copies of a cut edge, so segments transfer from the landscape layout to
the net without recomputing any geometry.
"""

from __future__ import annotations

import math

from . import topology as topo
from .coords import HALF_SQRT3, Representation, SurfacePoint, _corners, _place
from .landscape import DistanceResult

_V146_7, _V1256, _V1234, _V2358, _V3478, _V5678 = topo.VERTICES

#: Net position of each face's corners (unit edge length).
NET_CORNERS: dict[int, dict[topo.VertexLabel, tuple[float, float]]] = {
    1: {_V146_7: (1.0, 0.0), _V1234: (0.5, -HALF_SQRT3), _V1256: (1.5, -HALF_SQRT3)},
    2: {_V1234: (0.5, -HALF_SQRT3), _V1256: (1.5, -HALF_SQRT3), _V2358: (1.0, -2 * HALF_SQRT3)},
    3: {_V3478: (3.0, 0.0), _V2358: (2.5, -HALF_SQRT3), _V1234: (3.5, -HALF_SQRT3)},
    4: {_V3478: (0.0, 0.0), _V146_7: (1.0, 0.0), _V1234: (0.5, -HALF_SQRT3)},
    5: {_V5678: (2.0, 0.0), _V1256: (1.5, -HALF_SQRT3), _V2358: (2.5, -HALF_SQRT3)},
    6: {_V146_7: (1.0, 0.0), _V5678: (2.0, 0.0), _V1256: (1.5, -HALF_SQRT3)},
    7: {_V146_7: (2.5, HALF_SQRT3), _V5678: (2.0, 0.0), _V3478: (3.0, 0.0)},
    8: {_V5678: (2.0, 0.0), _V2358: (2.5, -HALF_SQRT3), _V3478: (3.0, 0.0)},
}

_NET_X_MAX = 3.5
_NET_Y_MIN = -2 * HALF_SQRT3
_NET_Y_MAX = HALF_SQRT3

#: The largest `render_svg` scale.  The drawing is 3.9 edges wide (the
#: net and two margins of 0.2), so every coordinate stays finite.
MAX_SCALE = 1e307


def net_position(rep: Representation) -> tuple[float, float]:
    """Map a represented point onto its home face in the net."""
    return _place(_corners(NET_CORNERS[rep.home], rep.home, rep.shared), rep.x, rep.y)


def _edge_point(face: int, edge, parameter: float) -> tuple[float, float]:
    corners = NET_CORNERS[face]
    (sx, sy), (tx, ty) = corners[edge[0]], corners[edge[1]]
    return sx + parameter * (tx - sx), sy + parameter * (ty - sy)


def trail_segments(
    result: DistanceResult, a: SurfacePoint, b: SurfacePoint
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Per-face net segments of the trail from a to b, in path order.

    `result` is `surface_distance(a, b)`.  An edge or vertex point has a
    copy on every face it touches, and the copies on either side of a
    cut edge lie apart in the net; the trail starts and ends on the home
    face of the canonical representation, where `a` and `b` hold it.
    """
    trail = result.trail
    start = net_position(a.canonical)
    end = net_position(b.canonical)
    if trail.landscape is None:
        return [(start, end)]
    faces = trail.landscape.faces
    segments = []
    for i, crossing in enumerate(trail.crossings):
        segments.append((start, _edge_point(faces[i], crossing.edge, crossing.parameter)))
        start = _edge_point(faces[i + 1], crossing.edge, crossing.parameter)
    segments.append((start, end))
    return segments


def _polylines(segments):
    runs = []
    for seg in segments:
        if runs and math.dist(runs[-1][-1], seg[0]) <= 1e-9:
            runs[-1].append(seg[1])
        else:
            runs.append([seg[0], seg[1]])
    return runs


def render_svg(
    a: SurfacePoint,
    b: SurfacePoint,
    result: DistanceResult,
    scale: float = 100.0,
) -> str:
    """Deterministic SVG of the net with the shortest trail from a to b overlaid.

    `result` is `surface_distance(a, b)`.

    Raises ValueError unless 0 < scale <= MAX_SCALE.
    """
    if not 0.0 < scale <= MAX_SCALE:
        raise ValueError(f"scale must be above 0 and at most {MAX_SCALE:g}, not {scale!r}")
    margin = 0.2 * scale

    def svg_xy(p: tuple[float, float]) -> tuple[float, float]:
        return margin + p[0] * scale, margin + (_NET_Y_MAX - p[1]) * scale

    def fmt(v: float) -> str:
        return format(v, ".6f")

    width = _NET_X_MAX * scale + 2 * margin
    height = (_NET_Y_MAX - _NET_Y_MIN) * scale + 2 * margin
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{fmt(width)}" height="{fmt(height)}" '
        f'viewBox="0 0 {fmt(width)} {fmt(height)}">',
    ]
    for face in sorted(NET_CORNERS):
        corners = list(NET_CORNERS[face].values())
        pts = " ".join("{},{}".format(*map(fmt, svg_xy(c))) for c in corners)
        lines.append(
            f'  <polygon points="{pts}" fill="none" stroke="black" stroke-width="1"/>'
        )
        cx = sum(c[0] for c in corners) / 3.0
        cy = sum(c[1] for c in corners) / 3.0
        tx, ty = svg_xy((cx, cy))
        lines.append(
            f'  <text x="{fmt(tx)}" y="{fmt(ty)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="{fmt(0.14 * scale)}">F{face}</text>'
        )
    for run in _polylines(trail_segments(result, a, b)):
        pts = " ".join("{},{}".format(*map(fmt, svg_xy(p))) for p in run)
        lines.append(
            f'  <polyline points="{pts}" fill="none" stroke="red" stroke-width="2"/>'
        )
    for point, label in ((a, "p1"), (b, "p2")):
        px, py = svg_xy(net_position(point.canonical))
        lines.append(f'  <circle cx="{fmt(px)}" cy="{fmt(py)}" r="3" fill="black"/>')
        lines.append(
            f'  <text x="{fmt(px + 5)}" y="{fmt(py - 5)}" font-family="sans-serif" '
            f'font-size="{fmt(0.1 * scale)}">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
