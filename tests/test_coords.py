import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octadist import topology as topo
from octadist.coords import (
    EPS_IN,
    HALF_SQRT3,
    SQRT3,
    InvalidRepresentation,
    NotOnSharedEdge,
    Representation,
    canonicalize,
    flip_home_face,
    rotate_once,
    sample_uniform,
    _canonical,
    barycentric,
    edge_distances,
    surface_point,
    turn,
    vertex_representations,
)

from conftest import (
    CHARTS,
    FRAMES,
    boundary_points,
    chart_kind_points,
    every_chart,
    in_every_chart,
    interior_rep,
    interior_reps,
    near_corner_points,
    rotate_to_shared,
    turns,
    units,
    vertex_charts,
)

faces = st.sampled_from(topo.FACE_INDICES)


def test_rotation_corner_example():
    out = rotate_once(Representation(1, 2, 1.0, 0.0))
    assert (out.home, out.shared) == (1, 6)
    assert out.x == pytest.approx(0.0, abs=1e-15)
    assert out.y == pytest.approx(0.0, abs=1e-15)


def test_rotation_fixes_centroid():
    out = rotate_once(Representation(1, 2, 0.5, SQRT3 / 6.0))
    assert out.x == pytest.approx(0.5, abs=1e-15)
    assert out.y == pytest.approx(SQRT3 / 6.0, abs=1e-15)


def test_rotation_derived_value():
    # expected values written out independently of the implementation
    out = rotate_once(Representation(1, 2, 0.3, 0.2))
    assert out.x == pytest.approx((0.7 + 0.2 * math.sqrt(3.0)) / 2.0, abs=1e-15)
    assert out.y == pytest.approx((0.7 * math.sqrt(3.0) - 0.2) / 2.0, abs=1e-15)


def test_rotate_once_moves_the_chart_from_role_two_to_role_six():
    assert len(CHARTS) == 24
    for (home, shared), frame in zip(CHARTS, FRAMES):
        out = rotate_once(Representation(home, shared, 0.3, 0.2))
        assert (out.home, out.shared) == (home, frame.face(6))


@given(interior_reps)
def test_triple_rotation_is_identity(rep):
    out = rep
    for _ in range(3):
        out = rotate_once(out)
    assert (out.home, out.shared) == (rep.home, rep.shared)
    assert out.x == pytest.approx(rep.x, abs=1e-12)
    assert out.y == pytest.approx(rep.y, abs=1e-12)


def test_rotate_to_shared_reaches_every_neighbor():
    rep = Representation(1, 2, 0.3, 0.2)
    for target in topo.neighbors(1):
        out = rotate_to_shared(rep, target)
        assert out.shared == target
    with pytest.raises(ValueError):
        rotate_to_shared(rep, 8)


def test_turn_is_repeated_rotate_once_bit_for_bit():
    rng = random.Random(120)
    reps = []
    for _ in range(200):
        home = rng.choice(topo.FACE_INDICES)
        shared = rng.choice(topo.neighbors(home))
        reps.append(interior_rep(home, shared, rng.random(), rng.random()))
    reps += [p.canonical for p in boundary_points()]
    for rep in reps:
        out = rep
        for k in range(4):
            x, y = turn(rep.x, rep.y, k)
            assert (x.hex(), y.hex()) == (out.x.hex(), out.y.hex())
            out = rotate_once(out)


@pytest.mark.parametrize(
    "x, flipped_x",
    [(0.25, 0.75), (0.5, 0.5), (0.0, 1.0)],
)
def test_flip_examples(x, flipped_x):
    out = flip_home_face(Representation(1, 2, x, 0.0))
    assert (out.home, out.shared) == (2, 1)
    assert out.x == flipped_x
    assert out.y == 0.0


def test_flip_rejects_off_edge_points():
    with pytest.raises(NotOnSharedEdge):
        flip_home_face(Representation(1, 2, 0.5, 0.2))


@given(faces, units)
def test_flip_is_involution(home, x):
    shared = topo.neighbors(home)[0]
    rep = Representation(home, shared, x, 0.0)
    back = flip_home_face(flip_home_face(rep))
    assert (back.home, back.shared, back.y) == (home, shared, 0.0)
    assert back.x == pytest.approx(x, abs=1e-15)


def test_vertex_representations_examples():
    reps = vertex_representations(frozenset({1, 2, 3, 4}))
    assert [(r.home, r.shared) for r in reps] == [(1, 2), (2, 3), (3, 4), (4, 1)]
    assert all(r.x == 0.0 and r.y == 0.0 for r in reps)

    reps = vertex_representations(frozenset({5, 6, 7, 8}))
    assert {r.home for r in reps} == {5, 6, 7, 8}

    for v in topo.VERTICES:
        reps = vertex_representations(v)
        assert len(reps) == 4
        for r in reps:
            # the (0, 0) chart corner really is the vertex
            assert topo.chart_corners(r.home, r.shared)[0] == v
        # consecutive charts chain: shared face becomes the next home face
        for r, nxt in zip(reps, reps[1:]):
            assert r.shared == nxt.home


def test_vertex_representations_rejects_non_vertex():
    with pytest.raises(ValueError):
        vertex_representations(frozenset({1, 2, 3, 5}))


def test_canonicalize_edge_flip_pair():
    assert canonicalize(Representation(2, 1, 0.75, 0.0)) == canonicalize(
        Representation(1, 2, 0.25, 0.0)
    )


def test_canonicalize_keeps_interior_points():
    rep = Representation(3, 4, 0.4, 0.3)
    assert canonicalize(rep).canonical == rep


def test_canonicalize_vertex_charts_unify():
    a = canonicalize(Representation(2, 3, 0.0, 0.0))
    b = canonicalize(Representation(1, 2, 0.0, 0.0))
    assert a == b
    assert a.canonical == Representation(1, 2, 0.0, 0.0)


def test_canonicalize_snaps_near_edge():
    sp = canonicalize(Representation(2, 1, 0.3, 1e-10))
    assert sp.canonical.home == 1  # smaller face of the edge wins
    assert sp.canonical.y == 0.0
    assert sp.canonical.x == pytest.approx(0.7, abs=1e-9)


def test_canonicalize_snaps_non_base_edges():
    # a point on the left chart edge belongs to another neighbor's edge
    rep = Representation(3, 4, 0.25, SQRT3 * 0.25)
    sp = canonicalize(rep)
    assert sp.canonical.y == 0.0
    assert sp.canonical.home < sp.canonical.shared


def test_an_edge_point_turns_strictly_inside_its_edge():
    # a point within EPS_IN of one edge only is more than EPS_IN from the
    # other two and at most EPS_IN below the first, so once its chart turns
    # that edge onto the base, EPS_IN / SQRT3 < x < 1 - EPS_IN / SQRT3: no
    # clamp is needed.  Points 0.5 to 1.01 x EPS_IN from the edge (either
    # side) and from the other edge at each of its corners, in every chart,
    # hold it.  Dropped onto the edge from outside it, a point can land
    # within EPS_IN of the corner, and is then that vertex
    factors = (-1.01, -0.99, -0.5, 0.0, 0.5, 0.99, 1.01)
    seen = set()
    for home in topo.FACE_INDICES:
        for shared in topo.neighbors(home):
            for base_after, corner, d, e in itertools.product(range(3), (0, 1), factors, factors[4:]):
                # d x EPS_IN from the edge that is the base after `base_after`
                # turns, e x EPS_IN from the other edge at its corner
                along = (2.0 * e * EPS_IN + d * EPS_IN) / SQRT3
                x, y = turn(along if corner == 0 else 1.0 - along, d * EPS_IN, (3 - base_after) % 3)
                try:
                    Representation(home, shared, x, y)
                except InvalidRepresentation:
                    continue
                on_right, on_left, on_base = (dist <= EPS_IN for dist in edge_distances(x, y))
                if on_right + on_left + on_base != 1:
                    continue
                times = 1 if on_right else 2 if on_left else 0
                turned_shared = shared
                for _ in range(times):
                    turned_shared = topo.next_shared_ccw(home, turned_shared)
                tx, _ty = turn(x, y, times)
                assert EPS_IN / 2.0 < tx < 1.0 - EPS_IN / 2.0
                expected = ((home, turned_shared, tx, 0.0), (turned_shared, home, 1.0 - tx, 0.0))
                if min(edge_distances(tx, 0.0)[:2]) <= EPS_IN:
                    assert d < 0.0
                    expected = (vertex_representations(topo.chart_corners(home, turned_shared)[tx > 0.5])[0],)
                assert _canonical((home, shared, x, y)) in expected
                seen.add((home, shared, times, tx < 0.5))
    assert len(seen) == 24 * 3 * 2


def test_edge_distances_are_the_distances_to_the_three_edges():
    # opposite S the right edge, opposite T the left edge, opposite U the base
    for x, y in ((0.3, 0.2), (0.5, HALF_SQRT3), (0.0, 0.0), (0.5, -0.1), (1.2, 0.1)):
        right = (SQRT3 * (1.0 - x) - y) / 2.0
        left = (SQRT3 * x - y) / 2.0
        assert edge_distances(x, y) == pytest.approx((right, left, y), abs=1e-15)
        # bit for bit the barycentric weights times HALF_SQRT3, as the snap always read them
        assert edge_distances(x, y) == tuple(w * HALF_SQRT3 for w in barycentric(x, y))


def _assert_same_point(forms):
    """Every form canonicalizes to one chart, with coordinates within 1e-12."""
    first, *rest = (canonicalize(form).canonical for form in forms)
    for other in rest:
        assert other[:2] == first[:2], (forms, first, other)
        assert abs(other.x - first.x) <= 1e-12 and abs(other.y - first.y) <= 1e-12, (first, other)


within = st.floats(min_value=-0.999, max_value=0.999)


@given(st.sampled_from(CHARTS), st.floats(min_value=0.001, max_value=0.999), within, turns)
def test_a_point_within_eps_in_of_an_edge_keeps_one_canonical_form_under_every_move(chart, t, k, times):
    # (t, k x EPS_IN) by the base of `chart`, written in the chart `times`
    # turns on, where that edge may be slanted: each chart of it is valid
    forms = [Representation(*q) for q in in_every_chart(*chart, t, k * EPS_IN)]
    moved = every_chart(forms[times]) + every_chart(forms[0])
    _assert_same_point(forms + moved)
    assert canonicalize(forms[0]).canonical.y == 0.0


@given(st.sampled_from(CHARTS), st.floats(min_value=0.0, max_value=0.999), st.floats(0.0, 2.0 * math.pi), turns)
def test_a_point_within_eps_in_of_a_corner_is_its_vertex_in_every_chart(chart, r, angle, times):
    # r x EPS_IN from the S corner of `chart` in any direction, written in the
    # chart `times` turns on, where that corner may be T or U
    x, y = r * EPS_IN * math.cos(angle), r * EPS_IN * math.sin(angle)
    rep = Representation(*in_every_chart(*chart, x, y)[times])
    vertex = topo.chart_corners(*chart)[0]
    forms = every_chart(rep) + vertex_charts([vertex])
    _assert_same_point(forms)
    assert canonicalize(rep).canonical == vertex_representations(vertex)[0]


# A point k x EPS_IN inside (k > 0) or outside (k < 0) an edge, or from both
# edges at a corner: "snapped" onto the edge or the vertex, "kept" as given,
# or "invalid" (InvalidRepresentation).
TOLERANCE_CASES = [
    (0.5, "snapped"),
    (0.99, "snapped"),
    (1.01, "kept"),
    (2.0, "kept"),
    (-0.5, "snapped"),
    (-0.99, "snapped"),
    (-1.01, "invalid"),
    (-2.0, "invalid"),
]


@pytest.mark.parametrize("k, outcome", TOLERANCE_CASES)
def test_a_point_near_an_edge_in_all_24_charts(k, outcome):
    for (home, shared), t, times in itertools.product(CHARTS, (0.3, 0.7), range(3)):
        # k x EPS_IN from the edge of F{home} and F{shared}, which is the
        # base, the right or the left edge of the chart it is written in
        quad = in_every_chart(home, shared, t, k * EPS_IN)[times]
        if outcome == "invalid":
            with pytest.raises(InvalidRepresentation):
                Representation(*quad)
            continue
        got = canonicalize(Representation(*quad)).canonical
        if outcome == "kept":
            assert got == quad
        else:
            x = t if home < shared else 1.0 - t
            assert got[:2] == (min(home, shared), max(home, shared)) and got.y == 0.0, (quad, got)
            assert abs(got.x - x) <= 1e-12, (quad, got)


@pytest.mark.parametrize("k, outcome", TOLERANCE_CASES)
def test_a_point_near_a_corner_in_all_24_charts(k, outcome):
    for (home, shared), times in itertools.product(CHARTS, range(3)):
        # k x EPS_IN from both edges at the S corner of (home, shared), on
        # the bisector, written with that corner at S, T or U
        quad = in_every_chart(home, shared, SQRT3 * k * EPS_IN, k * EPS_IN)[times]
        if outcome == "invalid":
            with pytest.raises(InvalidRepresentation):
                Representation(*quad)
            continue
        got = canonicalize(Representation(*quad)).canonical
        if outcome == "kept":
            assert got == quad
        else:
            assert got == vertex_representations(topo.chart_corners(home, shared)[0])[0], quad


def test_representation_validation():
    with pytest.raises(InvalidRepresentation):
        Representation(1, 2, 2.0, 0.2)
    with pytest.raises(InvalidRepresentation):
        Representation(1, 2, 0.5, 0.9)
    with pytest.raises(InvalidRepresentation):
        Representation(1, 8, 0.5, 0.1)
    with pytest.raises(InvalidRepresentation):
        Representation(9, 2, 0.5, 0.1)
    with pytest.raises(InvalidRepresentation):
        Representation(1, 2, math.nan, 0.1)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((9, 2, 0.5, 0.1), "unknown face 9"),
        ((1, 3, 0.5, 0.2), "F3 is not adjacent to F1"),
        ((1, 2, math.inf, 0.1), "coordinates must be finite"),
        ((1, 2, 0.5, 0.9), "(0.5, 0.9) lies outside the face triangle"),
        ((True, 2, 0.3, 0.2), "unknown face True"),
        ((1.0, 2, 0.3, 0.2), "unknown face 1.0"),
        ((2, True, 0.3, 0.2), "unknown face True"),
        ((2, 1.0, 0.3, 0.2), "unknown face 1.0"),
    ],
    ids=["face", "adjacency", "finite", "triangle", "bool-home", "float-home", "bool-shared", "float-shared"],
)
def test_representation_checks_hold_on_every_construction_path(fields, message):
    rep = Representation(1, 2, 0.5, 0.2)
    changes = dict(zip(Representation._fields, fields))
    for build in (
        lambda: Representation(*fields),
        lambda: Representation._make(fields),
        lambda: rep._replace(**changes),
    ):
        with pytest.raises(InvalidRepresentation) as raised:
            build()
        assert str(raised.value) == message


def test_representation_is_a_plain_tuple_of_its_fields():
    rep = Representation(1, 2, 0.5, 0.2)
    assert rep == (1, 2, 0.5, 0.2) and hash(rep) == hash((1, 2, 0.5, 0.2))
    assert type(rep._replace(x=0.4)) is Representation
    assert rep._replace(x=0.4) == Representation._make([1, 2, 0.4, 0.2])
    assert not hasattr(rep, "__dict__")
    with pytest.raises(AttributeError):
        rep.x = 0.4


@given(interior_reps)
def test_canonicalize_is_idempotent(rep):
    once = canonicalize(rep)
    assert canonicalize(once.canonical) == once


@given(faces, units)
def test_canonicalize_idempotent_on_edges(home, x):
    rep = Representation(home, topo.neighbors(home)[1], x, 0.0)
    once = canonicalize(rep)
    assert canonicalize(once.canonical) == once


@settings(max_examples=300)
@given(st.one_of(chart_kind_points, near_corner_points))
@example((1, 2, 8.66e-10, -9e-10))  # dropped onto the base, it lands within EPS_IN of S
def test_the_canonical_form_is_a_fixed_point(quad):
    # canonical forms written back as input name the same canonical point:
    # interior points, points on, near and by an edge and vertices, in
    # every chart, and points within -0.99 to 3 x EPS_IN of both edges at
    # a corner, where dropping a point onto one edge can bring it within
    # EPS_IN of the other
    once = canonicalize(Representation(*quad))
    assert canonicalize(once.canonical) == once, quad


def test_sample_uniform_contract():
    assert sample_uniform(42, 0) == []
    a = sample_uniform(42, 500)
    b = sample_uniform(42, 500)
    assert a == b
    assert sample_uniform(43, 500) != a
    with pytest.raises(ValueError):
        sample_uniform(1, -1)


def test_sample_uniform_face_balance():
    n = 100_000
    points = sample_uniform(2024, n)
    counts = Counter(p.canonical.home for p in points)
    sigma = math.sqrt(n * (1 / 8) * (7 / 8))
    for f in topo.FACE_INDICES:
        assert abs(counts[f] - n / 8) < 5 * sigma


def test_surface_point_convenience():
    sp = surface_point(1, 2, 0.25, 0.0)
    assert sp == canonicalize(Representation(1, 2, 0.25, 0.0))
