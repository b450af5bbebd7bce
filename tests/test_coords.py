import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given
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
    surface_point,
    turn,
    vertex_representations,
)

from conftest import boundary_points, interior_rep, rotate_to_shared

faces = st.sampled_from(topo.FACE_INDICES)
units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def interior_reps(draw):
    home = draw(faces)
    shared = draw(st.sampled_from(topo.neighbors(home)))
    return interior_rep(home, shared, draw(units), draw(units))


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
    charts = [(home, shared) for home in topo.FACE_INDICES for shared in topo.neighbors(home)]
    assert len(charts) == 24
    for home, shared in charts:
        out = rotate_once(Representation(home, shared, 0.3, 0.2))
        assert (out.home, out.shared) == (home, topo.Frame.from_anchor(home, shared).face(6))


@given(interior_reps())
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
    # other two, so both other barycentric weights exceed EPS_IN / HALF_SQRT3
    # and, once its chart turns that edge onto the base, EPS_IN / SQRT3 <
    # x < 1 - EPS_IN / SQRT3: no clamp is needed.  Points 0.5 to 1.01 x
    # EPS_IN from the edge (either side) and from the other edge at each
    # of its corners, in every chart, hold it
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
                on_right, on_left, on_base = (w * HALF_SQRT3 <= EPS_IN for w in barycentric(x, y))
                if on_right + on_left + on_base != 1:
                    continue
                times = 1 if on_right else 2 if on_left else 0
                turned_shared = shared
                for _ in range(times):
                    turned_shared = topo.next_shared_ccw(home, turned_shared)
                tx, _ty = turn(x, y, times)
                assert EPS_IN / 2.0 < tx < 1.0 - EPS_IN / 2.0
                assert _canonical((home, shared, x, y)) in (
                    (home, turned_shared, tx, 0.0),
                    (turned_shared, home, 1.0 - tx, 0.0),
                )
                seen.add((home, shared, times, tx < 0.5))
    assert len(seen) == 24 * 3 * 2


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


@given(interior_reps())
def test_canonicalize_is_idempotent(rep):
    once = canonicalize(rep)
    assert canonicalize(once.canonical) == once


@given(faces, units)
def test_canonicalize_idempotent_on_edges(home, x):
    rep = Representation(home, topo.neighbors(home)[1], x, 0.0)
    once = canonicalize(rep)
    assert canonicalize(once.canonical) == once


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
