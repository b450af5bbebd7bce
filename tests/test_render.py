import itertools
import math
import re

import pytest

from octadist import topology as topo
from octadist.coords import (
    Representation,
    canonicalize,
    flip_home_face,
    rotate_once,
    vertex_representations,
)
from octadist.landscape import VALIDITY_WITNESSES, surface_distance
from octadist.render import MAX_SCALE, NET_CORNERS, net_position, render_svg, trail_segments


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


def test_trail_segments_structure():
    for index, (r1, r2) in VALIDITY_WITNESSES.items():
        result = surface_distance(canonicalize(r1), canonicalize(r2))
        segments = trail_segments(result, r1, r2)
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
    r1 = Representation(5, 2, 0.3, 0.1)
    r2 = Representation(5, 2, 0.7, 0.1)
    result = surface_distance(canonicalize(r1), canonicalize(r2))
    segments = trail_segments(result, r1, r2)
    assert len(segments) == 1
    assert math.dist(*segments[0]) == pytest.approx(0.4, abs=1e-12)


def test_render_svg_deterministic_and_well_formed():
    r1, r2 = VALIDITY_WITNESSES[5]
    result = surface_distance(canonicalize(r1), canonicalize(r2))
    svg1 = render_svg(r1, r2, result)
    svg2 = render_svg(r1, r2, result)
    assert svg1 == svg2
    assert svg1.startswith("<?xml")
    assert svg1.rstrip().endswith("</svg>")
    assert svg1.count("<polygon") == 8
    assert svg1.count("<circle") == 2
    for face in topo.FACE_INDICES:
        assert f">F{face}</text>" in svg1

    import xml.etree.ElementTree as ET

    ET.fromstring(svg1)  # parses as XML


def test_render_svg_scale_changes_dimensions():
    r1, r2 = VALIDITY_WITNESSES[1]
    result = surface_distance(canonicalize(r1), canonicalize(r2))
    small = render_svg(r1, r2, result, scale=50.0)
    large = render_svg(r1, r2, result, scale=200.0)
    assert small != large
    assert 'width="195.000000"' in small


def test_render_svg_takes_scales_up_to_its_limit_only():
    # past MAX_SCALE the drawing's 3.9-edge width would overflow to inf
    r1, r2 = VALIDITY_WITNESSES[1]
    result = surface_distance(canonicalize(r1), canonicalize(r2))
    svg = render_svg(r1, r2, result, scale=MAX_SCALE)
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
            render_svg(r1, r2, result, scale=scale)


def _every_chart(rep):
    """Every chart of a point on rep's shared edge: both homes, each turned 0, 1 and 2 times."""
    out = []
    for r in (rep, flip_home_face(rep)):
        for _ in range(3):
            out.append(r)
            r = rotate_once(r)
    return out


def test_trail_ends_on_the_canonical_copy_of_edge_and_vertex_points():
    # an edge or vertex point written on the far side of a cut edge lies
    # apart from the copy the trail starts on; the net trail must still
    # be one unbroken path of the geodesic's length
    boundary = []
    for f in topo.FACE_INDICES:
        for g in topo.neighbors(f):
            if f < g:
                for t in (0.25, 0.5):
                    boundary += _every_chart(Representation(f, g, t, 0.0))
    for v in topo.VERTICES:
        for rep in vertex_representations(v):
            boundary += _every_chart(rep)
    interior = [Representation(f, topo.neighbors(f)[0], 0.3, 0.2) for f in topo.FACE_INDICES]
    for p in boundary:
        for q in interior:
            for r1, r2 in ((p, q), (q, p)):
                result = surface_distance(canonicalize(r1), canonicalize(r2))
                segments = trail_segments(result, r1, r2)
                total = sum(math.dist(a, b) for a, b in segments)
                assert total == pytest.approx(result.distance, abs=1e-9), (r1, r2)
