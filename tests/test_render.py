import itertools
import json
import math
import re

import pytest

from octadist import cli, topology as topo
from octadist.coords import (
    Representation,
    canonicalize,
    flip_home_face,
    rotate_once,
    vertex_representations,
)
from octadist.landscape import surface_distance
from octadist.render import MAX_SCALE, NET_CORNERS, net_position, render_svg, trail_segments

from conftest import point_to_obj


def test_net_triangles_are_unit_equilateral():
    for face, corners in NET_CORNERS.items():
        assert set(corners) == set(topo.face_vertices(face))
        for p, q in itertools.combinations(corners.values(), 2):
            assert math.dist(p, q) == pytest.approx(1.0, abs=1e-12)


def test_net_gluing_is_consistent():
    # wherever two adjacent faces share both corner positions, the shared
    # labels must sit on the same net points; otherwise the edge is a cut
    glued = 0
    for a in topo.FACE_INDICES:
        for b in topo.neighbors(a):
            if b < a:
                continue
            s, t = topo.shared_edge(a, b)
            same = (
                math.dist(NET_CORNERS[a][s], NET_CORNERS[b][s]) < 1e-12
                and math.dist(NET_CORNERS[a][t], NET_CORNERS[b][t]) < 1e-12
            )
            glued += same
    assert glued == 7  # a net of 8 triangles is a tree of 7 glued edges


def test_net_position_agrees_across_glued_edge():
    rep = Representation(1, 2, 0.3, 0.0)
    a = net_position(rep)
    b = net_position(flip_home_face(rep))
    assert math.dist(a, b) < 1e-12


def test_trail_segments_structure(witness_points):
    for a, b in witness_points.values():
        result = surface_distance(a, b)
        segments = trail_segments(result, a, b)
        assert len(segments) == len(result.trail.crossings) + 1
        # each segment stays inside its face's net triangle
        faces = result.trail.landscape.faces
        for face, (start, end) in zip(faces, segments):
            for p in (start, end):
                assert _inside_net_face(face, p)
        # total net length equals the geodesic distance
        total = sum(math.dist(p, q) for p, q in segments)
        assert total == pytest.approx(result.distance, abs=1e-9)


def _inside_net_face(face, p, tol=1e-9):
    (ax, ay), (bx, by), (cx, cy) = NET_CORNERS[face].values()
    d1 = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
    d2 = (cx - bx) * (p[1] - by) - (cy - by) * (p[0] - bx)
    d3 = (ax - cx) * (p[1] - cy) - (ay - cy) * (p[0] - cx)
    has_neg = min(d1, d2, d3) < -tol
    has_pos = max(d1, d2, d3) > tol
    return not (has_neg and has_pos)


def test_trail_segments_same_face():
    a = canonicalize(Representation(5, 2, 0.3, 0.1))
    b = canonicalize(Representation(5, 2, 0.7, 0.1))
    segments = trail_segments(surface_distance(a, b), a, b)
    assert len(segments) == 1
    assert math.dist(*segments[0]) == pytest.approx(0.4, abs=1e-12)


def test_render_svg_deterministic_and_well_formed(witness_points):
    a, b = witness_points[5]
    result = surface_distance(a, b)
    svg1 = render_svg(a, b, result)
    svg2 = render_svg(a, b, result)
    assert svg1 == svg2
    assert svg1.startswith("<?xml")
    assert svg1.rstrip().endswith("</svg>")
    assert svg1.count("<polygon") == 8
    assert svg1.count("<circle") == 2
    for face in topo.FACE_INDICES:
        assert f">F{face}</text>" in svg1

    import xml.etree.ElementTree as ET

    ET.fromstring(svg1)  # parses as XML


def test_every_result_draws_its_trail(witness_points):
    # every landscape is convex, so every trail is contained and drawn,
    # also for a result whose `fallback` flag a caller has set
    for a, b in witness_points.values():
        result = surface_distance(a, b)
        flagged = result._replace(fallback=True)
        segments = trail_segments(flagged, a, b)
        assert segments == trail_segments(result, a, b)
        assert len(segments) == len(result.trail.crossings) + 1
        assert segments[0][0] == net_position(a.canonical)
        assert segments[-1][1] == net_position(b.canonical)
        svg = render_svg(a, b, flagged)
        assert svg == render_svg(a, b, result)
        assert svg.count("<circle") == 2 and svg.count("<polyline") >= 1


def test_render_svg_scale_changes_dimensions(witness_points):
    a, b = witness_points[1]
    result = surface_distance(a, b)
    small = render_svg(a, b, result, scale=50.0)
    large = render_svg(a, b, result, scale=200.0)
    assert small != large
    assert 'width="195.000000"' in small


def test_render_svg_takes_scales_up_to_its_limit_only(witness_points):
    # past MAX_SCALE the drawing's 3.9-edge width would overflow to inf
    a, b = witness_points[1]
    result = surface_distance(a, b)
    svg = render_svg(a, b, result, scale=MAX_SCALE)
    numbers = []
    for token in re.split(r'[ ,"]', svg):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    assert max(numbers) > 3.8 * MAX_SCALE
    assert all(math.isfinite(v) for v in numbers)
    for scale in (1e308, math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="scale"):
            render_svg(a, b, result, scale=scale)


def _every_chart(rep):
    """Every chart of a point on rep's shared edge: both homes, each turned 0, 1 and 2 times."""
    out = []
    for r in (rep, flip_home_face(rep)):
        for _ in range(3):
            out.append(r)
            r = rotate_once(r)
    return out


def _boundary_charts():
    """Each edge and vertex point of the suite with every chart it has."""
    points = []
    for f in topo.FACE_INDICES:
        for g in topo.neighbors(f):
            if f < g:
                for t in (0.25, 0.5):
                    points.append(_every_chart(Representation(f, g, t, 0.0)))
    for v in topo.VERTICES:
        charts = {c for rep in vertex_representations(v) for c in _every_chart(rep)}
        points.append(sorted(charts))
    return points


_INTERIOR = [Representation(f, topo.neighbors(f)[0], 0.3, 0.2) for f in topo.FACE_INDICES]


def test_trail_ends_on_the_canonical_copy_of_edge_and_vertex_points():
    # an edge or vertex point written on the far side of a cut edge lies
    # apart from the copy the trail starts on; the net trail must still
    # be one unbroken path of the geodesic's length
    boundary = {canonicalize(chart) for charts in _boundary_charts() for chart in charts}
    for p in sorted(boundary):
        for q in map(canonicalize, _INTERIOR):
            for a, b in ((p, q), (q, p)):
                result = surface_distance(a, b)
                segments = trail_segments(result, a, b)
                total = sum(math.dist(s, t) for s, t in segments)
                assert total == pytest.approx(result.distance, abs=1e-9), (a, b)


def test_render_query_draws_every_chart_of_a_point_alike(tmp_path):
    # `render --query` draws an edge or vertex point on its canonical
    # chart, so every chart the query may write it in gives the same bytes
    out = tmp_path / "q.svg"

    def svg(r1, r2):
        query = json.dumps({"p1": point_to_obj(r1), "p2": point_to_obj(r2)})
        assert cli.main(["render", "--out", str(out), "--query", query]) == 0
        return out.read_bytes()

    for k, charts in enumerate(_boundary_charts()):
        p, q = canonicalize(charts[0]).canonical, _INTERIOR[k % len(_INTERIOR)]
        assert p in charts
        expect_pq, expect_qp = svg(p, q), svg(q, p)
        for chart in charts:
            assert svg(chart, q) == expect_pq, chart
            assert svg(q, chart) == expect_qp, chart
