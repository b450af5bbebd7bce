import itertools
import math
import random
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from octadist import landscape, oracle
from octadist import topology as topo
from octadist.coords import (
    Representation,
    canonicalize,
    flip_home_face,
    rotate_once,
    sample_uniform,
    turn,
    vertex_representations,
)
from octadist.landscape import (
    APPLICABLE_IDS,
    PATH_ROLES,
    TIE_EPS,
    VALIDITY_WITNESSES,
    DistanceResult,
    FrameMismatch,
    WrongRelation,
    _P2_CHART_ROLES,
    chain_layout,
    shortest_path,
    surface_distance,
    trail_crossings,
    trail_length,
)
from octadist.oracle import embed_3d, unfold_geodesic

from conftest import (
    CHARTS,
    FRAMES,
    SQRT3,
    boundary_points,
    charts,
    interior_rep,
    rotate_to_shared,
    units,
    vertex_charts,
)

landscape_ids = st.sampled_from(range(1, 10))


@st.composite
def framed_pairs(draw, ids=landscape_ids):
    """(index, p1, p2, frame) with both points in the charts L-index expects."""
    index = draw(ids)
    frame = topo.Frame.from_anchor(*draw(charts))
    p1 = interior_rep(frame.face(1), frame.face(2), draw(units), draw(units))
    if index == 1:
        home, shared = frame.face(2), frame.face(1)
    elif index in (2, 3):
        home, shared = frame.face(5), frame.face(6)
    else:
        home, shared = frame.face(8), frame.face(7)
    p2 = interior_rep(home, shared, draw(units), draw(units))
    return index, p1, p2, frame


def _lemma(x, y):
    return (1.0 - x + SQRT3 * y) / 2.0, (SQRT3 - SQRT3 * x - y) / 2.0


def _lemma2(x, y):
    return _lemma(*_lemma(x, y))


# where each landscape's layout must put p1 and p2, written as explicit
# point transforms (an independent recoding of the layouts)
_EXPECTED_POSITIONS = {
    1: (lambda x, y: (x, y), lambda x, y: (1.0 - x, -y)),
    2: (lambda x, y: _lemma(x, y), lambda x, y: (x - 1.0, y)),
    3: (lambda x, y: (x - 1.0, y), lambda x, y: _lemma(x, y)),
    4: (
        lambda x, y: _lemma2(x, y),
        lambda x, y: (-_lemma2(x, y)[0], SQRT3 - _lemma2(x, y)[1]),
    ),
    5: (lambda x, y: _lemma(x, y), lambda x, y: (-x, SQRT3 - y)),
    6: (
        lambda x, y: (x, y),
        lambda x, y: (-_lemma(x, y)[0], SQRT3 - _lemma(x, y)[1]),
    ),
    7: (
        lambda x, y: (x, y),
        lambda x, y: (2.0 - _lemma2(x, y)[0], SQRT3 - _lemma2(x, y)[1]),
    ),
    8: (lambda x, y: _lemma2(x, y), lambda x, y: (2.0 - x, SQRT3 - y)),
    9: (
        lambda x, y: _lemma(x, y),
        lambda x, y: (2.0 - _lemma(x, y)[0], SQRT3 - _lemma(x, y)[1]),
    ),
}


def test_trail_length_witness_row_one():
    p1, p2 = VALIDITY_WITNESSES[1]
    value = trail_length(1, p1, p2)
    assert value == pytest.approx(math.sqrt((0.5 + 0.5 - 1) ** 2 + 0.4**2), abs=1e-15)
    assert value == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.9])
def test_trail_length_zero_for_shared_edge_point(x):
    # both charts name the same edge point, so the trail degenerates
    frame = topo.Frame.from_anchor(3, 2)
    p1 = Representation(frame.face(1), frame.face(2), x, 0.0)
    p2 = Representation(frame.face(2), frame.face(1), 1.0 - x, 0.0)
    assert trail_length(1, p1, p2) == pytest.approx(0.0, abs=1e-15)


def test_trail_length_witness_row_nine_matches_oracle():
    p1, p2 = VALIDITY_WITNESSES[9]
    value = trail_length(9, p1, p2)
    oracle_value = unfold_geodesic(canonicalize(p1), canonicalize(p2))
    assert value == pytest.approx(oracle_value, abs=1e-12)


def test_trail_length_wrong_relation():
    p1 = Representation(1, 2, 0.3, 0.1)
    p2 = Representation(2, 1, 0.3, 0.1)
    with pytest.raises(WrongRelation):
        trail_length(4, p1, p2)
    with pytest.raises(WrongRelation):
        trail_crossings(2, p1, p2)


def test_trail_length_chart_mismatch():
    # p1's chart (F1, F4) fixes the frame, so L1 wants p2 in (F4, F1)
    p1 = Representation(1, 4, 0.3, 0.1)
    p2 = Representation(2, 1, 0.3, 0.1)
    expected = r"p1 in the chart \(F1, F4\) expects p2 in \(F4, F1\), got \(F2, F1\)"
    with pytest.raises(FrameMismatch, match=expected):
        trail_length(1, p1, p2)
    # with p1 in (F1, F2), L1 wants the second point in the chart (F2, F1)
    p1 = Representation(1, 2, 0.3, 0.1)
    p2 = Representation(2, 3, 0.3, 0.1)
    with pytest.raises(FrameMismatch, match=r"\(F2, F1\)"):
        trail_crossings(1, p1, p2)


@pytest.mark.parametrize("index", [0, 10, True, 1.0])
def test_trail_length_rejects_an_index_outside_one_to_nine(index):
    p1 = Representation(1, 2, 0.3, 0.1)
    p2 = Representation(2, 1, 0.3, 0.1)
    with pytest.raises(ValueError, match="1..9"):
        trail_length(index, p1, p2)


def test_a_bool_index_leaves_the_layouts_alone():
    # True == 1: were it taken, it would key landscape 1's layout in the
    # cache, and every later minimum through that frame would name it
    landscape._layout.cache_clear()
    landscape._plan.cache_clear()
    p1, p2 = VALIDITY_WITNESSES[1]
    with pytest.raises(ValueError, match="1..9"):
        trail_crossings(True, p1, p2)
    (index,) = surface_distance(canonicalize(p1), canonicalize(p2)).argmin
    assert index == 1 and type(index) is int


def test_per_landscape_calls_take_the_frame_of_the_first_chart():
    for (home, shared), frame in zip(CHARTS, FRAMES):
        p1 = interior_rep(home, shared, 0.3, 0.2)
        for index in PATH_ROLES:
            h_role, s_role = _P2_CHART_ROLES[landscape._RELATION_FOR_ID[index]]
            p2 = interior_rep(frame.face(h_role), frame.face(s_role), 0.6, 0.1)
            instance = trail_crossings(index, p1, p2).landscape
            faces = tuple(frame.face(r) for r in PATH_ROLES[index])
            assert instance == landscape.LandscapeInstance(index, frame, faces)
            assert (faces[0], faces[-1]) == (p1.home, p2.home)
            assert all(g in topo.neighbors(f) for f, g in zip(faces, faces[1:]))


@given(framed_pairs())
def test_formula_agrees_with_layout_chord(case):
    index, p1, p2, _frame = case
    formula = trail_length(index, p1, p2)
    trail = trail_crossings(index, p1, p2)
    assert formula == pytest.approx(trail.chord_length, abs=1e-12)


def _place_in_layout(positions, rep):
    """Map a representation into a layout via its chart's corner labels."""
    return landscape._place(landscape._corners(positions, rep.home, rep.shared), rep.x, rep.y)


@given(framed_pairs())
def test_layout_places_points_as_derived(case):
    index, p1, p2, frame = case
    roles = PATH_ROLES[index]
    faces = tuple(frame.face(r) for r in roles)
    from octadist.landscape import _ORIENT_ROLES

    base_role, ref_role = _ORIENT_ROLES[index]
    positions = chain_layout(faces, roles.index(base_role), frame.face(ref_role))
    a = _place_in_layout(positions[faces[0]], p1)
    b = _place_in_layout(positions[faces[-1]], p2)
    expect_p1, expect_p2 = _EXPECTED_POSITIONS[index]
    ex, ey = expect_p1(p1.x, p1.y)
    assert a[0] == pytest.approx(ex, abs=1e-12) and a[1] == pytest.approx(ey, abs=1e-12)
    ex, ey = expect_p2(p2.x, p2.y)
    assert b[0] == pytest.approx(ex, abs=1e-12) and b[1] == pytest.approx(ey, abs=1e-12)


def test_every_layout_unfolds_each_face_across_its_hinge():
    # each face after the base is a unit triangle that shares its hinge's
    # two positions, bit for bit, with the face it unfolds from, and lies
    # on the other side of that hinge
    layouts = 0
    for frame in FRAMES:
        for index in PATH_ROLES:
            roles = PATH_ROLES[index]
            faces = tuple(frame.face(r) for r in roles)
            base_role, ref_role = landscape._ORIENT_ROLES[index]
            base = roles.index(base_role)
            positions = chain_layout(faces, base, frame.face(ref_role))
            for i, face in enumerate(faces):
                if i == base:
                    continue
                known = faces[i - 1] if i > base else faces[i + 1]
                tri, before = positions[face], positions[known]
                assert set(tri) == set(topo.face_vertices(face))
                for p, q in itertools.combinations(tri.values(), 2):
                    assert math.dist(p, q) == pytest.approx(1.0, abs=1e-12)
                s, t = topo.shared_edge(known, face)
                for v in (s, t):
                    assert [c.hex() for c in tri[v]] == [c.hex() for c in before[v]]
                (sx, sy), (tx, ty) = tri[s], tri[t]
                (apex,) = set(tri) - {s, t}
                (other,) = set(before) - {s, t}

                def side(p):
                    return (tx - sx) * (p[1] - sy) - (ty - sy) * (p[0] - sx)

                assert side(tri[apex]) * side(before[other]) < 0.0
            layouts += 1
    assert layouts == 9 * 24


@given(framed_pairs())
def test_valid_landscape_chords_are_always_contained(case):
    # the nine landscape regions are convex, so in-chart chords never
    # leave: each crossing, its parameter clamped, lies on the chord, and
    # they follow the chord in path order
    index, p1, p2, frame = case
    trail = trail_crossings(index, p1, p2)
    assert trail.contained
    assert len(trail.crossings) == len(PATH_ROLES[index]) - 1
    ls = landscape._layout(index, frame)
    (ax, ay), (bx, by) = landscape._place(ls.first, p1.x, p1.y), landscape._place(ls.last, p2.x, p2.y)
    along = []
    for c in trail.crossings:
        assert 0.0 <= c.parameter <= 1.0
        px, py = c.point
        assert abs((bx - ax) * (py - ay) - (by - ay) * (px - ax)) <= 1e-12 * trail.length
        along.append((bx - ax) * (px - ax) + (by - ay) * (py - ay))
    assert along == sorted(along)


def _chart_points(home: int, shared: int) -> list[tuple[float, float]]:
    """Points of the chart (home, shared) as the minimum receives them.

    Vertices, points on each edge and interior points are written in each
    of the home face's three charts and turned into (home, shared) with
    `turn`, as `_distance` turns a canonical point into its formula chart;
    the rounding of the turn leaves some of them a hair outside.
    """
    corners = ((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0))
    written = [*corners, (0.3, 0.0), (0.5, 0.0), (0.5, SQRT3 / 6.0), (0.2, 0.1)]
    points = []
    for chart_shared in topo.neighbors(home):
        times = topo.turns(home, chart_shared, shared)
        points += [turn(x, y, times) for x, y in written]
    return points


def test_every_layout_contains_the_chords_of_its_charts():
    # every landscape is convex, so no code checks a chord's containment:
    # here the oracle's own intersection routine checks it, over every
    # layout record, for chords between vertices, edge points and interior
    # points of the two formula charts
    chords = 0
    for frame in FRAMES:
        for index in PATH_ROLES:
            ls = landscape._layout(index, frame)
            h_role, s_role = _P2_CHART_ROLES[landscape._RELATION_FOR_ID[index]]
            starts = [landscape._place(ls.first, *p) for p in _chart_points(frame.face(1), frame.face(2))]
            ends = [
                landscape._place(ls.last, *q)
                for q in _chart_points(frame.face(h_role), frame.face(s_role))
            ]
            for a, b in itertools.product(starts, ends):
                assert oracle._chord_in_chain(ls.segments, a, b) is not None, (index, frame, a, b)
                chords += 1
    assert chords == 9 * 24 * 21**2


def test_trail_crossings_witness_row_one():
    p1, p2 = VALIDITY_WITNESSES[1]
    trail = trail_crossings(1, p1, p2)
    assert trail.contained
    assert len(trail.crossings) == 1
    crossing = trail.crossings[0]
    assert crossing.parameter == pytest.approx(0.5, abs=1e-12)
    assert crossing.edge == topo.shared_edge(1, 2)
    assert crossing.point.x == pytest.approx(0.5, abs=1e-12)
    assert crossing.point.y == pytest.approx(0.0, abs=1e-12)


def test_trail_crossings_degenerate_edge_point():
    p1 = Representation(1, 2, 0.3, 0.0)
    p2 = Representation(2, 1, 0.7, 0.0)  # the same edge point, flipped chart
    trail = trail_crossings(1, p1, p2)
    assert trail.contained
    assert trail.length == pytest.approx(0.0, abs=1e-15)
    assert trail.crossings[0].parameter == pytest.approx(0.3, abs=1e-12)


def test_trail_crossings_collinear_chord_along_edge():
    # both points on the shared edge, apart: the trail runs along the edge
    p1 = Representation(1, 2, 0.2, 0.0)
    p2 = Representation(2, 1, 0.2, 0.0)  # edge coordinate 0.8 on p1's chart
    trail = trail_crossings(1, p1, p2)
    assert trail.contained
    assert trail.length == pytest.approx(0.6, abs=1e-12)


def test_chord_intersection_places_grazes_and_degenerate_chords():
    from octadist.landscape import chord_edge_intersections

    edge = ((0.0, 0.0), (1.0, 0.0))
    # one (edge parameter, point) per segment, in path order
    e1 = ((0.0, 1.0), (2.0, 1.0))
    e2 = ((0.0, 2.0), (2.0, 2.0))
    assert chord_edge_intersections((0.5, 0.0), (0.5, 3.0), [e1, e2]) == [
        (0.25, (0.5, 1.0)),
        (0.25, (0.5, 2.0)),
    ]
    # endpoint grazes count as crossings
    assert chord_edge_intersections((0.0, -1.0), (0.0, 1.0), [edge]) == [(0.0, (0.0, 0.0))]
    # a zero-length chord sits at its own position on the segment
    assert chord_edge_intersections((0.3, 0.0), (0.3, 0.0), [edge]) == [(0.3, (0.3, 0.0))]
    # a chord along the segment crosses it at the middle of their overlap
    assert chord_edge_intersections((0.2, 0.0), (1.4, 0.0), [edge]) == [(0.6, (0.6, 0.0))]
    assert chord_edge_intersections((0.8, 0.0), (0.2, 0.0), [edge]) == [(0.5, (0.5, 0.0))]
    # parameters are clamped onto the segment
    (hit,) = chord_edge_intersections((1.0 + 1e-12, -1.0), (1.0 + 1e-12, 1.0), [edge])
    assert hit == (1.0, (1.0, 0.0))


def test_surface_distance_coincident_points():
    a = canonicalize(Representation(3, 2, 0.4, 0.3))
    b = canonicalize(Representation(3, 2, 0.4, 0.3))
    result = surface_distance(a, b)
    assert result.distance == 0.0
    assert result.argmin == ()
    assert result.trail.crossings == ()
    assert result.trail.contained
    assert result.trail.landscape is None
    assert not result.fallback


def test_surface_distance_same_face():
    a = canonicalize(Representation(3, 2, 0.2, 0.1))
    b = canonicalize(Representation(3, 8, 0.3, 0.25))
    result = surface_distance(a, b)
    # the straight in-face segment equals the 3D chord on a flat face
    chord = float(
        sum((p - q) ** 2 for p, q in zip(embed_3d(a.canonical), embed_3d(b.canonical)))
    ) ** 0.5
    assert result.distance == pytest.approx(chord, abs=1e-12)
    assert result.argmin == ()
    assert result.trail.crossings == ()
    assert result.trail.contained
    assert result.trail.landscape is None
    assert result.trail.length == result.distance


def test_trail_is_built_once_and_left_out_of_equality(witness_points):
    a, b = witness_points[9]
    result = surface_distance(a, b)
    assert result.trail is result.trail
    unread = surface_distance(a, b)
    same = DistanceResult(result.distance, result.argmin, result.fallback)
    assert result == unread == same
    assert hash(result) == hash(unread) == hash(same)
    assert "trail" not in vars(unread)
    assert repr(result) == repr(same)
    assert same.trail.landscape is None


def test_distance_result_reads_and_compares_as_its_three_fields(witness_points):
    a, b = witness_points[1]
    result = surface_distance(a, b)
    assert repr(result) == "DistanceResult(distance=0.4, argmin=(1,), fallback=False)"
    assert result == (0.4, (1,), False) and tuple(result) == (0.4, (1,), False)
    # two results that differ only in the kept minimizer
    other = surface_distance(*witness_points[2])._winner
    moved = DistanceResult(*result, other)
    assert moved == result and hash(moved) == hash(result)
    assert moved.trail.landscape.index == 2 and result.trail.landscape.index == 1
    # NamedTuple's copies keep the minimizer's chord, or have none
    assert result._replace(fallback=True).trail == result.trail
    assert DistanceResult._make(result).trail.landscape is None


def test_surface_distance_witness_rows(witness_points):
    for index, (a, b) in witness_points.items():
        result = surface_distance(a, b)
        assert result.argmin == (index,)
        assert not result.fallback
        oracle_value = unfold_geodesic(a, b)
        assert result.distance == pytest.approx(oracle_value, abs=1e-9)


def test_surface_distance_tie_between_mirror_strips():
    # antipodal vertices sit symmetrically in both three-face strips
    a = canonicalize(vertex_representations(frozenset({1, 2, 3, 4}))[0])
    b = canonicalize(vertex_representations(frozenset({5, 6, 7, 8}))[0])
    result = surface_distance(a, b)
    assert result.argmin == (2, 3)
    assert result.distance == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_surface_distance_vertex_to_incident_face_point():
    # one endpoint is a vertex of the other point's home face: the straight
    # in-face segment (= the 3D chord) must be recovered
    vertex = frozenset({1, 2, 3, 4})
    a = canonicalize(vertex_representations(vertex)[0])
    b = canonicalize(Representation(3, 2, 0.5, 0.2))
    chord = float(
        sum((p - q) ** 2 for p, q in zip(embed_3d(a.canonical), embed_3d(b.canonical)))
    ) ** 0.5
    result = surface_distance(a, b)
    assert result.distance == pytest.approx(chord, abs=1e-12)


def test_surface_distance_edge_point_to_opposite_face():
    # a point on an edge still matches the brute-force unfolding
    a = canonicalize(Representation(1, 2, 0.3, 0.0))
    b = canonicalize(Representation(8, 7, 0.4, 0.2))
    result = surface_distance(a, b)
    assert result.distance == pytest.approx(unfold_geodesic(a, b), abs=1e-9)


@given(framed_pairs(ids=st.just(4)))
def test_distance_is_the_least_applicable_formula_length(case):
    _index, p1, p2, frame = case
    a, b = canonicalize(p1), canonicalize(p2)
    result = surface_distance(a, b)
    _, q1, q2 = _prepare_pair(a, b)
    lengths = [trail_length(i, q1, q2) for i in APPLICABLE_IDS[topo.relation(p1.home, p2.home)]]
    assert result.distance == pytest.approx(min(lengths), abs=1e-12)


@given(framed_pairs())
def test_distance_invariant_under_chart_rotation(case):
    _index, p1, p2, frame = case
    a, b = canonicalize(p1), canonicalize(p2)
    base = surface_distance(a, b).distance
    rotated = surface_distance(canonicalize(rotate_once(p1)), b).distance
    assert rotated == pytest.approx(base, abs=1e-12)
    rotated_b = surface_distance(a, canonicalize(rotate_once(rotate_once(p2)))).distance
    assert rotated_b == pytest.approx(base, abs=1e-12)


@given(st.sampled_from(topo.FACE_INDICES), units.filter(lambda v: 0.05 < v < 0.95), units, units)
def test_distance_invariant_under_edge_flip(home, x, u, v):
    shared = topo.neighbors(home)[2]
    edge_rep = Representation(home, shared, x, 0.0)
    other = interior_rep(topo.opposite(home), topo.neighbors(topo.opposite(home))[0], u, v)
    b = canonicalize(other)
    d_direct = surface_distance(canonicalize(edge_rep), b).distance
    d_flipped = surface_distance(canonicalize(flip_home_face(edge_rep)), b).distance
    assert d_flipped == pytest.approx(d_direct, abs=1e-12)


@given(framed_pairs())
def test_distance_symmetry(case):
    _index, p1, p2, _frame = case
    a, b = canonicalize(p1), canonicalize(p2)
    assert surface_distance(a, b).distance == pytest.approx(
        surface_distance(b, a).distance, abs=1e-12
    )


def test_shortest_path_structures(witness_points):
    a, b = witness_points[1]
    trail = shortest_path(a, b)
    assert trail.landscape is not None and trail.landscape.index == 1
    assert len(trail.crossings) == 1
    assert trail.crossings[0].edge == topo.shared_edge(a.canonical.home, b.canonical.home)

    a, b = witness_points[9]
    trail = shortest_path(a, b)
    assert len(trail.crossings) == 3
    assert trail.landscape.faces == (1, 4, 3, 8)

    same_face = shortest_path(
        canonicalize(Representation(5, 2, 0.3, 0.1)),
        canonicalize(Representation(5, 2, 0.7, 0.1)),
    )
    assert same_face.crossings == ()
    assert same_face.length == pytest.approx(0.4, abs=1e-12)


def test_boundary_point_pairs_match_oracle():
    # vertices and edge points are where chart degeneracies live; every
    # pair must still agree with the exhaustive unfolding
    for a, b in itertools.combinations(boundary_points(), 2):
        result = surface_distance(a, b)
        assert not result.fallback
        assert result.distance == pytest.approx(unfold_geodesic(a, b), abs=1e-9)
        assert result.distance == pytest.approx(
            surface_distance(b, a).distance, abs=1e-12
        )


def test_distance_zero_exactly_for_equal_canonical_forms():
    from octadist.coords import sample_uniform

    points = sample_uniform(55, 200)
    for p in points[:40]:
        assert surface_distance(p, p).distance == 0.0
    for a, b in zip(points[0::2], points[1::2]):
        if a.canonical != b.canonical:
            assert surface_distance(a, b).distance > 0.0


def test_adjacent_vertices_are_unit_apart():
    a = canonicalize(vertex_representations(frozenset({1, 2, 3, 4}))[0])
    b = canonicalize(vertex_representations(frozenset({1, 2, 5, 6}))[0])
    assert surface_distance(a, b).distance == pytest.approx(1.0, abs=1e-12)


def test_landscape_instances_report_role_patterns(witness_points):
    # dual paths follow the role patterns, e.g. L5 visits roles 1, 2, 3, 8
    for index, (a, b) in witness_points.items():
        trail = surface_distance(a, b).trail
        frame = trail.landscape.frame
        roles = tuple(frame.faces.index(f) + 1 for f in trail.landscape.faces)
        assert roles == PATH_ROLES[index]


def _prepare_pair(a, b):
    """Frame and formula-chart representations of a pair with distinct homes.

    Turns the charts with the validated rotate_once, not topology.turns,
    so the reference stays independent of the plans it checks.
    """
    ra, rb = a.canonical, b.canonical
    frame = topo.canonical_frame(ra.home, rb.home)
    p1 = rotate_to_shared(ra, frame.face(2))
    p2 = rotate_to_shared(rb, frame.face(_P2_CHART_ROLES[topo.relation(ra.home, rb.home)][1]))
    return frame, p1, p2


class Reference(NamedTuple):
    """What the reference minimum finds, with its trail built eagerly."""

    distance: float
    argmin: tuple[int, ...]
    trail: landscape.TrailResult
    fallback: bool


def all_landscape_distance(a, b) -> Reference:
    """Reference minimum that lays out every applicable landscape.

    The argmin is the TIE_EPS band of the least formula length; every
    landscape is convex, so each trail is contained and `fallback` false.
    """
    _frame, p1, p2 = _prepare_pair(a, b)
    ids = APPLICABLE_IDS[topo.relation(a.canonical.home, b.canonical.home)]
    lengths = {i: trail_length(i, p1, p2) for i in ids}
    trails = {i: trail_crossings(i, p1, p2) for i in ids}
    assert all(trail.contained for trail in trails.values())
    best = min(lengths.values())
    argmin = tuple(i for i in ids if lengths[i] <= best + TIE_EPS)
    return Reference(best, argmin, trails[argmin[0]], False)


def _bits(result):
    """A result with every float spelled by float.hex, so == means bit-equal."""

    def h(value):
        return value.hex()

    trail = result.trail
    crossings = tuple(
        (c.edge, h(c.point.x), h(c.point.y), h(c.parameter)) for c in trail.crossings
    )
    return (
        h(result.distance), result.argmin, result.fallback,
        h(trail.length), h(trail.chord_length), trail.landscape, crossings, trail.contained,
    )


def assert_matches_reference(a, b):
    result = surface_distance(a, b)
    ref = all_landscape_distance(a, b)
    assert _bits(result) == _bits(ref)
    return result


@given(framed_pairs())
def test_minimizer_only_layout_matches_all_landscape_reference(case):
    _index, p1, p2, _frame = case
    a, b = canonicalize(p1), canonicalize(p2)
    assert_matches_reference(a, b)
    assert_matches_reference(b, a)


def test_minimizer_only_layout_matches_reference_on_boundary_points():
    pairs = 0
    for a, b in itertools.permutations(boundary_points(), 2):
        if a.canonical.home != b.canonical.home:
            assert_matches_reference(a, b)
            pairs += 1
    assert pairs > 0
    a = canonicalize(vertex_representations(frozenset({1, 2, 3, 4}))[0])
    b = canonicalize(vertex_representations(frozenset({5, 6, 7, 8}))[0])
    assert assert_matches_reference(a, b).argmin == (2, 3)


def test_every_chart_pair_matches_reference_bit_for_bit():
    # each ordered chart pair with distinct homes has its own plan
    keys = [(c1, c2) for c1 in CHARTS for c2 in CHARTS if c1[0] != c2[0]]
    assert len(keys) == 504
    rng = random.Random(504)
    pairs = []
    for (h1, s1), (h2, s2) in keys:
        for _ in range(3):
            a = canonicalize(interior_rep(h1, s1, rng.random(), rng.random()))
            b = canonicalize(interior_rep(h2, s2, rng.random(), rng.random()))
            assert (a.canonical.home, a.canonical.shared) == (h1, s1)
            assert (b.canonical.home, b.canonical.shared) == (h2, s2)
            pairs.append((a, b))
    pairs += [
        (a, b)
        for a, b in itertools.permutations(boundary_points(), 2)
        if a.canonical.home != b.canonical.home
    ]
    for a, b in pairs:
        assert_matches_reference(a, b)


def test_every_member_of_a_tie_is_in_the_argmin():
    # the antipodal vertices tie L2 and L3 in every pair of their charts:
    # both are the argmin, and the trail is the first one's
    top, bottom = (vertex_charts([frozenset(v)]) for v in ((1, 2, 3, 4), (5, 6, 7, 8)))
    for p, q in itertools.product(top, bottom):
        a, b = canonicalize(p), canonicalize(q)
        result = assert_matches_reference(a, b)
        assert result.argmin == (2, 3) and not result.fallback
        assert result.trail.landscape.index == 2 and result.trail.contained


@pytest.mark.parametrize(
    "t, gap, argmin",
    [
        (0.7977536500079014, -0.5, (2, 3)),
        (0.7977536500060514, 0.5, (2, 3)),
        (0.7977536500106766, -2.0, (2,)),
        (0.797753650003276, 2.0, (3,)),
    ],
)
def test_argmin_is_every_landscape_within_1e_12_of_the_least_length(t, gap, argmin):
    # README's tie rule, with 1e-12 written out: the computed L2 and L3
    # lengths of these pairs differ by gap x 1e-12, which the test checks
    # first; half of 1e-12 is a tie, twice it is not
    a = canonicalize(Representation(1, 2, 0.3, 0.2))
    b = canonicalize(Representation(3, 2, t, 0.1))
    _frame, p1, p2 = _prepare_pair(a, b)
    assert (trail_length(2, p1, p2) - trail_length(3, p1, p2)) / 1e-12 == pytest.approx(gap, abs=0.01)
    result = surface_distance(a, b)
    assert result.argmin == argmin
    assert result.trail.landscape.index == argmin[0]


@pytest.mark.parametrize("landscapes", ["minimizer", "all"])
def test_witness_chords_stay_in_their_landscapes(landscapes):
    # every landscape is convex, so neither the minimizer ("minimizer") nor
    # any applicable landscape ("all") of a witness pair leaves its strip,
    # as the oracle's own intersection routine confirms, and no result
    # falls back
    for row in VALIDITY_WITNESSES.values():
        a, b = canonicalize(row[0]), canonicalize(row[1])
        frame, p1, p2 = _prepare_pair(a, b)
        result = assert_matches_reference(a, b)
        assert not result.fallback and result.trail.contained
        if landscapes == "minimizer":
            ids = result.argmin[:1]
            assert result.trail.landscape.index == ids[0]
        else:
            ids = APPLICABLE_IDS[topo.relation(a.canonical.home, b.canonical.home)]
        for index in ids:
            ls = landscape._layout(index, frame)
            start = landscape._place(ls.first, p1.x, p1.y)
            end = landscape._place(ls.last, p2.x, p2.y)
            assert oracle._chord_in_chain(ls.segments, start, end) is not None, (index, row)
            assert math.dist(start, end) == pytest.approx(trail_length(index, p1, p2), abs=1e-12)


def test_only_the_tie_band_is_laid_out(monkeypatch):
    # the minimum lays out one landscape a pair, the first of the TIE_EPS
    # band of the least formula length, for its chord
    laid_out = []
    original = landscape._chord

    def counting(ls, *coords):
        laid_out.append(ls.instance.index)
        return original(ls, *coords)

    monkeypatch.setattr(landscape, "_chord", counting)
    points = sample_uniform(18, 5000)
    pairs = [
        (a, b) for a, b in zip(points[::2], points[1::2]) if a.canonical.home != b.canonical.home
    ]
    assert len(pairs) >= 2000
    a = canonicalize(vertex_representations(frozenset({1, 2, 3, 4}))[0])
    b = canonicalize(vertex_representations(frozenset({5, 6, 7, 8}))[0])
    pairs = pairs[:2000] + [(a, b)]
    for a, b in pairs:
        laid_out.clear()
        result = surface_distance(a, b)
        _frame, p1, p2 = _prepare_pair(a, b)
        ids = APPLICABLE_IDS[topo.relation(a.canonical.home, b.canonical.home)]
        band = [i for i in ids if trail_length(i, p1, p2) <= result.distance + TIE_EPS]
        assert laid_out == band[:1]
    assert band == [2, 3]  # the last pair ties
