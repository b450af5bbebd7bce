import collections
import itertools

import pytest

from octadist import topology as topo
from octadist.landscape import PATH_ROLES
from octadist.topology import Frame, Relation


def all_frames() -> list[Frame]:
    """All 24 valid role assignments, by the anchor constructor."""
    return [Frame.from_anchor(n1, n2) for n1 in topo.FACE_INDICES for n2 in topo.neighbors(n1)]


def is_valid_frame(frame: Frame) -> bool:
    """The validity rule of the Frame docstring, checked directly."""
    if sorted(frame.faces) != list(topo.FACE_INDICES):
        return False
    if any(topo.opposite(frame.face(r)) != frame.face(9 - r) for r in range(1, 9)):
        return False
    cycle = topo.NEIGHBORS_CCW[frame.face(1)]
    want = (frame.face(4), frame.face(2), frame.face(6))  # pattern of (4, 2, 6) about face 1
    return any(tuple(cycle[(i + k) % 3] for k in range(3)) == want for i in range(3))


def enumerate_valid_assignments() -> list[Frame]:
    """Brute-force filter over all 8! role assignments."""
    return [f for f in map(Frame, itertools.permutations(topo.FACE_INDICES)) if is_valid_frame(f)]


def topology_as_dict() -> dict:
    """JSON-friendly dump of the static tables."""
    faces = topo.FACE_INDICES
    return {
        "faces": list(faces),
        "vertices": [sorted(v) for v in topo.VERTICES],
        "corners_ccw": {f: [sorted(v) for v in topo.face_vertices(f)] for f in faces},
        "neighbors_ccw": {f: list(topo.neighbors(f)) for f in faces},
        "opposite": {f: topo.opposite(f) for f in faces},
    }


def test_face_and_vertex_counts():
    assert len(topo.FACE_INDICES) == 8
    assert len(topo.VERTICES) == 6
    assert len(set(topo.VERTICES)) == 6
    for v in topo.VERTICES:
        assert len(v) == 4
    for f in topo.FACE_INDICES:
        assert len(topo.face_vertices(f)) == 3


def test_vertex_incidence_rule():
    # face f touches a vertex exactly when f is a member of its label
    for f in topo.FACE_INDICES:
        incident = {v for v in topo.VERTICES if f in v}
        assert incident == set(topo.face_vertices(f))


def test_opposite_is_fixed_point_free_involution():
    for f in topo.FACE_INDICES:
        assert topo.opposite(f) != f
        assert topo.opposite(topo.opposite(f)) == f
        assert f + topo.opposite(f) == 9


def test_adjacency_matches_shared_vertex_count():
    # the stored ccw tables must agree with counting shared vertices
    for a, b in itertools.combinations(topo.FACE_INDICES, 2):
        shared = set(topo.face_vertices(a)) & set(topo.face_vertices(b))
        derived_adjacent = len(shared) == 2
        assert derived_adjacent == (b in topo.neighbors(a))
        assert derived_adjacent == (a in topo.neighbors(b))
    for f in topo.FACE_INDICES:
        assert len(set(topo.neighbors(f))) == 3


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (1, 2, Relation.ADJACENT),
        (1, 8, Relation.OPPOSITE),
        (1, 1, Relation.SAME),
        (1, 5, Relation.NEITHER),
    ],
)
def test_relation_examples(a, b, expected):
    assert topo.relation(a, b) is expected


def test_relation_is_symmetric():
    for a in topo.FACE_INDICES:
        for b in topo.FACE_INDICES:
            assert topo.relation(a, b) is topo.relation(b, a)


def test_relation_class_sizes():
    counts = {Relation.ADJACENT: 0, Relation.NEITHER: 0, Relation.OPPOSITE: 0}
    for a, b in itertools.combinations(topo.FACE_INDICES, 2):
        counts[topo.relation(a, b)] += 1
    assert counts == {Relation.ADJACENT: 12, Relation.NEITHER: 12, Relation.OPPOSITE: 4}


def test_chart_corners_partition_face():
    for home in topo.FACE_INDICES:
        for shared in topo.neighbors(home):
            s, t, u = topo.chart_corners(home, shared)
            assert {s, t, u} == set(topo.face_vertices(home))
            # the S-T edge is the one shared with `shared`
            assert (s & t) == frozenset({home, shared})


def test_chart_corners_rejects_non_neighbor():
    with pytest.raises(ValueError):
        topo.chart_corners(1, 8)


def test_next_shared_ccw_cycles_through_all_neighbors():
    for home in topo.FACE_INDICES:
        start = topo.neighbors(home)[0]
        seen = [start]
        for _ in range(2):
            seen.append(topo.next_shared_ccw(home, seen[-1]))
        assert set(seen) == set(topo.neighbors(home))
        assert topo.next_shared_ccw(home, seen[-1]) == start


@pytest.mark.parametrize(
    "src, dst, max_len, expected_count",
    [(1, 2, 2, 1), (1, 5, 3, 2), (1, 8, 4, 6)],
)
def test_dual_path_count_examples(src, dst, max_len, expected_count):
    paths = [p for p in topo.enumerate_dual_paths(src, dst) if len(p) <= max_len]
    assert len(paths) == expected_count
    for p in paths:
        assert p[0] == src and p[-1] == dst
        assert len(p) == len(set(p))
        for x, y in zip(p, p[1:]):
            assert y in topo.neighbors(x)


def test_dual_path_census_all_pairs():
    # 1 / 2 / 6 minimal paths for adjacent / neither / opposite pairs
    expected_min = {
        Relation.ADJACENT: (2, 1),
        Relation.NEITHER: (3, 2),
        Relation.OPPOSITE: (4, 6),
    }
    for a in topo.FACE_INDICES:
        for b in topo.FACE_INDICES:
            if a == b:
                continue
            min_len, count = expected_min[topo.relation(a, b)]
            paths = topo.enumerate_dual_paths(a, b)
            by_len = {}
            for p in paths:
                by_len.setdefault(len(p), []).append(p)
            assert min(by_len) == min_len
            assert len(by_len[min_len]) == count


def test_dual_paths_from_a_face_to_itself_are_empty():
    assert topo.enumerate_dual_paths(1, 1) == []


def test_exactly_24_valid_frames_and_constructor_agrees():
    brute = enumerate_valid_assignments()
    assert len(brute) == 24
    assert set(brute) == set(all_frames())


def test_frames_preserve_all_neighbor_cycles():
    # every valid frame acts as a rotation of the labelled solid
    for frame in all_frames():
        for role in range(1, 9):
            image = frame.face(role)
            mapped = tuple(frame.face(r) for r in topo.neighbors(role))
            cycle = topo.neighbors(image)
            assert any(
                tuple(cycle[(i + k) % 3] for k in range(3)) == mapped for i in range(3)
            )


def test_canonical_frame_identity_example():
    frame = topo.canonical_frame(1, 8)
    assert frame.faces == (1, 2, 3, 4, 5, 6, 7, 8)
    assert topo.turns(1, 2, frame.face(2)) == 0


def _brute_force_frame(pins: dict[int, int]) -> Frame:
    candidates = [
        f
        for f in enumerate_valid_assignments()
        if all(f.face(role) == face for role, face in pins.items())
    ]
    return min(candidates, key=lambda f: f.faces)


@pytest.mark.parametrize(
    "a, shared_a, b, pin_role",
    [(8, 7, 1, 8), (3, 2, 6, 8), (1, 2, 2, 2), (2, 1, 7, 8), (1, 4, 5, 5), (5, 8, 3, 5)],
)
def test_canonical_frame_matches_enumeration_oracle(a, shared_a, b, pin_role):
    frame = topo.canonical_frame(a, b)
    assert frame == _brute_force_frame({1: a, pin_role: b})
    assert is_valid_frame(frame)
    # the turn count really carries shared_a onto the role-2 face
    rotations = topo.turns(a, shared_a, frame.face(2))
    shared = shared_a
    for _ in range(rotations):
        shared = topo.next_shared_ccw(a, shared)
    assert shared == frame.face(2)
    assert rotations in (0, 1, 2)


def test_canonical_frame_spec_fields():
    frame = topo.canonical_frame(8, 1)
    assert frame.face(1) == 8 and frame.face(8) == 1
    frame = topo.canonical_frame(3, 6)
    assert frame.face(1) == 3 and frame.face(8) == 6
    assert frame.face(2) in topo.neighbors(3)


def test_canonical_frame_rejects_bad_input():
    for b in (1, 9):
        with pytest.raises(ValueError):
            topo.canonical_frame(1, b)


def test_turns_agrees_with_stepping_next_shared_ccw():
    cases = 0
    for home in topo.FACE_INDICES:
        for shared in topo.neighbors(home):
            for target in topo.neighbors(home):
                steps, out = 0, shared
                while out != target:
                    out = topo.next_shared_ccw(home, out)
                    steps += 1
                assert topo.turns(home, shared, target) == steps
                cases += 1
    assert cases == 8 * 3 * 3


def test_topology_dump_is_consistent():
    dump = topology_as_dict()
    assert dump["faces"] == list(range(1, 9))
    assert len(dump["vertices"]) == 6
    assert all(dump["opposite"][f] == 9 - f for f in topo.FACE_INDICES)


def _vertex_places(path):
    """For each vertex of the path's faces, the places in the path of the faces that hold it."""
    places = {}
    for j, face in enumerate(path):
        for v in topo.face_vertices(face):
            places.setdefault(v, []).append(j)
    return list(places.values())


def _convexity_breach(path):
    """Why the path's unfolding is not convex, or None if it is.

    A vertex in four or more faces of the strip is a reflex corner of it
    (4 x 60 degrees > 180), and so is one in faces that are not
    consecutive.
    """
    places = _vertex_places(path)
    if any(len(p) > 3 for p in places):
        return "four or more faces"
    if any(p[-1] - p[0] + 1 != len(p) for p in places):
        return "non-consecutive faces"
    return None


def test_every_landscape_unfolds_to_a_convex_strip():
    landscapes = {
        tuple(frame.face(role) for role in roles) for frame in all_frames() for roles in PATH_ROLES.values()
    }
    assert len(landscapes) == 120
    # every vertex of a landscape lies in at most 3 consecutive faces of it
    for path in landscapes:
        assert _convexity_breach(path) is None, path
    # and every other simple dual path breaks that rule
    others = collections.Counter()
    for a in topo.FACE_INDICES:
        for b in topo.FACE_INDICES:
            for path in topo.enumerate_dual_paths(a, b):
                if path not in landscapes:
                    breach = _convexity_breach(path)
                    others[breach] += 1
                    assert breach != "non-consecutive faces" or len(path) in (5, 6), path
    assert others == {"four or more faces": 672, "non-consecutive faces": 96}
