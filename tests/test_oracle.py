import ast
import collections
import functools
import itertools
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path

from octadist import oracle, topology as topo
from octadist.coords import (
    EPS_IN,
    Representation,
    barycentric,
    canonicalize,
    flip_home_face,
    rotate_once,
    sample_uniform,
    surface_point,
    vertex_representations,
)
from octadist.landscape import VALIDITY_WITNESSES, surface_distance
from octadist.serialize import dumps

from conftest import (
    CHARTS,
    best_chord_loop,
    boundary_points,
    chain_row,
    every_chart,
    in_every_chart,
    interior_rep,
    interior_reps,
    real_hinges,
    sampled_containment,
    units,
)

#: Each vertex's 3D position, read from the oracle's one table of them.
COORDS = {v: oracle._VERTEX_ROWS[oracle._VERTEX_ROW[v]] for v in topo.VERTICES}


def test_oracle_takes_only_surface_distance_from_landscape():
    # the oracle checks the formulas, so it must not borrow their code
    taken = []
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            taken += [(a.name, None) for a in node.names if a.name.startswith("octadist.landscape")]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["octadist" if node.level else None, node.module]))
            for alias in node.names:
                if module == "octadist.landscape" or f"{module}.{alias.name}" == "octadist.landscape":
                    taken.append((module, alias.name))
    assert taken == [("octadist.landscape", "surface_distance")]


def test_vertex_positions_are_one_read_only_table():
    assert oracle._VERTEX_ROW == {v: i for i, v in enumerate(topo.VERTICES)}
    assert oracle._VERTEX_ROWS.shape == (len(topo.VERTICES), 3)
    assert not oracle._VERTEX_ROWS.flags.writeable
    for name in ("VERTEX_COORDS", "_VERTEX_TUPLES", "FACE_NORMALS", "_face_normal"):
        assert not hasattr(oracle, name)


def test_vertex_table_checks_reject_a_mirrored_or_stretched_table():
    rows = oracle._VERTEX_ROWS
    assert oracle._chirality_ok(rows)
    assert not oracle._chirality_ok(-rows)  # a point reflection turns every face clockwise
    oracle._validate_embedding(rows)
    stretched = rows.copy()
    stretched[0] *= 1.0 + 1e-9
    with pytest.raises(oracle.InvalidEmbedding, match="expected 1.0"):
        oracle._validate_embedding(stretched)


def test_embedding_edge_lengths():
    for v, w in itertools.combinations(topo.VERTICES, 2):
        d = float(np.linalg.norm(COORDS[v] - COORDS[w]))
        if v & w:  # vertices sharing a face are joined by an edge
            assert d == pytest.approx(1.0, abs=1e-12)
        else:  # antipodal pair
            assert d == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_embedding_face_triangles_are_unit_equilateral():
    for f in topo.FACE_INDICES:
        a, b, c = (COORDS[v] for v in topo.face_vertices(f))
        for p, q in ((a, b), (b, c), (c, a)):
            assert float(np.linalg.norm(p - q)) == pytest.approx(1.0, abs=1e-12)


def test_embedding_chirality_is_outward_ccw():
    for f in topo.FACE_INDICES:
        a, b, c = (COORDS[v] for v in topo.face_vertices(f))
        normal = np.cross(b - a, c - a)
        centroid = (a + b + c) / 3.0
        assert float(normal @ centroid) > 0.0


def test_embedding_adjacency_matches_topology():
    # faces are neighbors exactly when their embedded triangles share two
    # points, one edge (length 1) apart, and each triangle's corner order
    # turns counter-clockwise seen from outside the solid
    triangles = {f: oracle._VERTEX_ROWS[row] for f, row in zip(topo.FACE_INDICES, oracle._FACE_ROWS)}
    for a, corners in triangles.items():
        p, q, r = corners
        assert np.dot(np.cross(q - p, r - p), p + q + r) > 0.0
        for b in topo.FACE_INDICES:
            shared = [point for point in corners if (point == triangles[b]).all(axis=1).any()]
            adjacent = b != a and len(shared) == 2
            assert adjacent == (b in topo.neighbors(a)) == (a in topo.neighbors(b))
            if adjacent:
                assert math.dist(*shared) == pytest.approx(1.0, abs=1e-12)


def test_embed_3d_vertex_and_centroid():
    vertex = frozenset({1, 2, 3, 4})
    pos = oracle.embed_3d(Representation(1, 2, 0.0, 0.0))
    assert np.allclose(pos, COORDS[vertex], atol=1e-15)

    centroid = oracle.embed_3d(Representation(1, 2, 0.5, math.sqrt(3.0) / 6.0))
    mean = sum(COORDS[v] for v in topo.face_vertices(1)) / 3.0
    assert np.allclose(centroid, mean, atol=1e-14)


@given(st.sampled_from(topo.FACE_INDICES), units)
def test_embed_3d_flip_well_defined(home, x):
    rep = Representation(home, topo.neighbors(home)[1], x, 0.0)
    assert np.allclose(
        oracle.embed_3d(rep), oracle.embed_3d(flip_home_face(rep)), atol=1e-12
    )


@given(interior_reps)
def test_embed_3d_rotation_invariant(rep):
    base = oracle.embed_3d(rep)
    out = rep
    for _ in range(3):
        out = rotate_once(out)
        assert np.allclose(oracle.embed_3d(out), base, atol=1e-12)


def test_vertex_charts_all_embed_to_one_point():
    for v in topo.VERTICES:
        positions = [oracle.embed_3d(r) for r in vertex_representations(v)]
        for p in positions[1:]:
            assert np.allclose(p, positions[0], atol=1e-15)
        assert np.allclose(positions[0], COORDS[v], atol=1e-15)


def _embed_by_coordinate(rep):
    """The embedding summed on floats, coordinate by coordinate: ls*S + lt*T + lu*U."""
    s, t, u = (COORDS[v].tolist() for v in topo.chart_corners(rep.home, rep.shared))
    ls, lt, lu = barycentric(rep.x, rep.y)
    return [ls * ps + lt * pt + lu * pu for ps, pt, pu in zip(s, t, u)]


def _hexes(rows):
    return [[c.hex() for c in row] for row in rows]


def test_embedding_has_the_bits_of_the_per_coordinate_sum():
    points = sample_uniform(5, 600) + boundary_points()
    reps = [chart for p in points for chart in every_chart(p.canonical)]
    assert len(reps) >= 3 * len(points)
    expected = _hexes(map(_embed_by_coordinate, reps))
    assert _hexes(oracle.embed_3d(rep).tolist() for rep in reps) == expected
    assert _hexes(oracle._embed(reps).tolist()) == expected
    pairs = [(canonicalize(a), canonicalize(b)) for a, b in zip(reps[0::2], reps[1::2])]
    ends = [None] * len(pairs)
    for _homes, block, a3, b3, _chords in oracle._blocks(pairs):
        for i, pa3, pb3 in zip(block, a3.tolist(), b3.tolist()):
            ends[i] = pa3, pb3
    assert _hexes(pa3 for pa3, _pb3 in ends) == _hexes(_embed_by_coordinate(a.canonical) for a, _b in pairs)
    assert _hexes(pb3 for _pa3, pb3 in ends) == _hexes(_embed_by_coordinate(b.canonical) for _a, b in pairs)


def _stacks():
    for start in topo.FACE_INDICES:
        for goal in topo.FACE_INDICES:
            if goal != start:
                yield oracle._unfoldings()[start, goal]


def _chains():
    """Every flattened path as (path, triangles, hinges), read from its stack row.

    `triangles` are its plane triangles without padding, each keyed by
    vertex label in `face_vertices` order, and `hinges` its real (S, T)
    hinge points.
    """
    for stack in _stacks():
        for path, corners, hinges in zip(stack.paths, stack.corners.tolist(), stack.hinges.tolist()):
            triangles = [dict(zip(topo.face_vertices(f), map(tuple, tri))) for f, tri in zip(path, corners)]
            yield path, triangles, hinges[: len(path) - 1]


def test_flatten_chain_triangles_are_unit():
    for path, triangles, _hinges in _chains():
        assert len(triangles) == len(path)
        for tri in triangles:
            pts = list(tri.values())
            for p, q in itertools.combinations(pts, 2):
                assert math.dist(p, q) == pytest.approx(1.0, abs=1e-12)


def test_flatten_chain_hinges_are_shared():
    # each hinge is the shared corners of the face before it, bit for bit,
    # and occupies the same segment in the face after it
    for path, triangles, hinges in _chains():
        assert len(hinges) == len(path) - 1
        for i, (ps, pt) in enumerate(hinges):
            s, t = topo.shared_edge(path[i], path[i + 1])
            before, after = triangles[i], triangles[i + 1]
            assert _bits([before[s], before[t]]) == _bits([ps, pt])
            assert math.dist(after[s], ps) < 1e-12
            assert math.dist(after[t], pt) < 1e-12


def test_chain_tables_are_padded_with_their_last_entry_and_read_only():
    count = 0
    for stack in _stacks():
        k = len(stack.paths)
        arrays = (stack.origin, stack.axes, stack.tail_matrix, stack.tail_offset, stack.corners, stack.hinges)
        assert [array.shape for array in arrays] == [
            (k, 3), (k, 3, 2), (k, 3, 3), (k, 3), (k, 8, 3, 2), (k, 7, 2, 2)
        ]
        assert not any(array.flags.writeable for array in arrays)
        rows = set()
        for path, corners, hinges in zip(stack.paths, stack.corners, stack.hinges):
            n = len(path)
            assert _bits(corners[n:]) == _bits([corners[n - 1]] * (8 - n))
            assert _bits(hinges[n - 1 :]) == _bits([hinges[n - 2]] * (8 - n))
            rows.add(hinges[: n - 1].tobytes())
        # no two chains of a stack have the same real hinges
        assert len(rows) == k
        count += k
    assert count == 888


def test_flatten_chain_looks_up_chains_built_once():
    oracle._unfoldings.cache_clear()
    paths = [
        path
        for start in topo.FACE_INDICES
        for goal in topo.FACE_INDICES
        if goal != start
        for path in topo.enumerate_dual_paths(start, goal)
    ]
    assert len(set(paths)) == len(paths) == 888
    # each face pair's stack rows are its paths', in enumerate_dual_paths order
    for start in topo.FACE_INDICES:
        for goal in topo.FACE_INDICES:
            if goal != start:
                stack = oracle._unfoldings()[start, goal]
                assert stack.paths == tuple(topo.enumerate_dual_paths(start, goal))
    for path in paths:
        if len(path) == 2:
            continue
        # a chain extends the chain of its prefix: same frame, same 2D geometry
        (stack, i), (prefix, j), n = chain_row(path), chain_row(path[:-1]), len(path)
        assert _bits(stack.origin[i]) == _bits(prefix.origin[j])
        assert _bits(stack.axes[i]) == _bits(prefix.axes[j])
        assert _bits(stack.corners[i, : n - 1]) == _bits(prefix.corners[j, : n - 1])
        assert _bits(stack.hinges[i, : n - 2]) == _bits(prefix.hinges[j, : n - 2])
    assert oracle._unfoldings.cache_info().misses == 1


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _flatten_uncached(faces):
    """Every hinge of the path composed anew, with np.cross and no cache."""
    coords = COORDS

    def normal(face):
        a, b, c = (coords[v] for v in topo.face_vertices(face))
        n = (a + b + c) / 3.0
        return n / np.linalg.norm(n)

    def rodrigues(axis, angle):
        x, y, z = axis
        k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)

    first = faces[0]
    n0 = normal(first)
    s0, t0, _ = topo.chart_corners(first, faces[1])
    origin = coords[s0]
    ex = coords[t0] - origin
    ex = ex / np.linalg.norm(ex)
    ey = np.cross(n0, ex)

    def project(p):
        rel = p - origin
        return float(rel @ ex), float(rel @ ey)

    matrix = np.eye(3)
    offset = np.zeros(3)
    triangles = [{v: project(coords[v]) for v in topo.face_vertices(first)}]
    hinges = []
    for prev, cur in zip(faces, faces[1:]):
        edge = topo.shared_edge(prev, cur)
        pa = matrix @ coords[edge[0]] + offset
        pb = matrix @ coords[edge[1]] + offset
        hinges.append((project(pa), project(pb)))
        axis = pb - pa
        axis = axis / np.linalg.norm(axis)
        m = matrix @ normal(cur)
        angle = math.atan2(float(axis @ np.cross(m, n0)), float(m @ n0))
        rot = rodrigues(axis, angle)
        matrix = rot @ matrix
        offset = rot @ (offset - pa) + pa
        triangles.append({v: project(matrix @ coords[v] + offset) for v in topo.face_vertices(cur)})
    return (origin, ex, ey), triangles, hinges, matrix, offset


def test_flatten_chain_equals_uncached_flattening_bit_for_bit():
    paths = {
        path
        for start in topo.FACE_INDICES
        for goal in topo.FACE_INDICES
        if goal != start
        for path in topo.enumerate_dual_paths(start, goal)
    }
    assert max(map(len, paths)) == 8
    oracle._unfoldings.cache_clear()
    # longest first: the first lookup builds every chain at once
    for path in sorted(paths, key=len, reverse=True):
        stack, i = chain_row(path)
        (origin, ex, ey), triangles, hinges, matrix, offset = _flatten_uncached(path)
        n = len(path)
        # each triangle's corners in face_vertices order
        assert [list(tri) for tri in triangles] == [list(topo.face_vertices(f)) for f in path]
        assert _bits(stack.corners[i, :n]) == _bits([list(tri.values()) for tri in triangles])
        assert _bits(stack.hinges[i, : n - 1]) == _bits(hinges)
        assert _bits(stack.tail_matrix[i]) == _bits(matrix)
        assert _bits(stack.tail_offset[i]) == _bits(offset)
        assert _bits(stack.origin[i]) == _bits(origin)
        assert _bits(stack.axes[i]) == _bits(np.stack([ex, ey], axis=1))


def _distinct_face_pairs():
    """Seeded pairs, boundary-point pairs and vertex pairs on distinct faces."""
    points = sample_uniform(2718, 300)
    pairs = list(zip(points[0::2], points[1::2]))
    pairs += list(itertools.permutations(boundary_points(), 2))
    vertices = {
        canonicalize(r).canonical: canonicalize(r)
        for v in topo.VERTICES
        for r in vertex_representations(v)
    }
    pairs += list(itertools.permutations(vertices.values(), 2))
    pairs += list(zip(vertices.values(), points))
    return [(a, b) for a, b in pairs if a.canonical.home != b.canonical.home]


def test_chord_order_search_equals_exhaustive_loop_bit_for_bit():
    pairs = _distinct_face_pairs()
    assert len(pairs) > 900
    for a, b in pairs:
        want, _ = best_chord_loop(a, b)
        assert oracle.unfold_geodesic(a, b).hex() == want.hex(), (a, b)


def test_search_tries_each_chain_on_its_real_hinges(monkeypatch):
    calls = []
    contained = oracle._chord_in_chain

    def recording(hinges, a, b):
        params = contained(hinges, a, b)
        calls.append((hinges, params))
        return params

    monkeypatch.setattr(oracle, "_chord_in_chain", recording)
    pairs = _distinct_face_pairs()[::5]
    assert len(pairs) > 150
    for a, b in pairs:
        _length, winner = best_chord_loop(a, b)
        calls.clear()
        oracle.unfold_geodesic(a, b)
        stack = oracle._unfoldings()[a.canonical.home, b.canonical.home]
        rows = [stack.hinges[i, : len(p) - 1].tolist() for i, p in enumerate(stack.paths)]
        assert all(hinges in rows for hinges, _params in calls)
        # every chain before the winner fails; the winner's chord meets each of its hinges
        assert all(params is None for _hinges, params in calls[:-1])
        path, _pa, _pb = winner
        hinges, params = calls[-1]
        assert hinges == rows[stack.paths.index(path)]
        assert len(params) == len(path) - 1


def test_failing_sampled_containment_is_raised_on_the_winner(monkeypatch):
    checked = []

    def failing(corners, a, b):
        checked.append((corners.tolist(), a.tolist(), b.tolist()))
        return np.zeros(len(a), dtype=bool)

    def assert_winner_checked(a, b):
        length, winner = best_chord_loop(a, b)
        checked.clear()
        if winner is None:
            assert oracle.unfold_geodesic(a, b) == length == math.inf
            assert checked == []
            return None
        path, pa, pb = winner
        with pytest.raises(AssertionError, match=re.escape(f"sampled containment check failed on {path}")):
            oracle.unfold_geodesic(a, b)
        stack, i = chain_row(path)
        assert checked == [([stack.corners[i].tolist()], [list(pa)], [list(pb)])]
        return real_hinges(path)

    monkeypatch.setattr(oracle, "_samples_contained", failing)
    contained = oracle._chord_in_chain
    points = sample_uniform(1618, 60)
    pairs = list(zip(points[0::2], points[1::2]))
    pairs += list(itertools.permutations(boundary_points(), 2))
    for a, b in pairs:
        if a.canonical.home == b.canonical.home:
            continue
        monkeypatch.setattr(oracle, "_chord_in_chain", contained)
        winner = assert_winner_checked(a, b)
        # declared uncontained, the winner's chain is passed over
        monkeypatch.setattr(
            oracle,
            "_chord_in_chain",
            lambda hinges, p, q: None if hinges == winner else contained(hinges, p, q),
        )
        assert_winner_checked(a, b)


def _centroid(triangle):
    xs, ys = zip(*triangle)
    return sum(xs) / 3.0, sum(ys) / 3.0


def test_chord_in_chain_degenerate_and_collinear_chords():
    hinges = real_hinges((1, 2))
    ((ps, pt),) = hinges
    ex, ey = pt[0] - ps[0], pt[1] - ps[1]

    def along(s, off=0.0):  # s along the hinge, off across it
        return ps[0] + s * ex - off * ey, ps[1] + s * ey + off * ex

    # a zero-length chord is contained only where it lies on the hinge
    ((s, t),) = oracle._chord_in_chain(hinges, along(0.25), along(0.25))
    assert s == pytest.approx(0.25, abs=1e-12) and t == 0.0
    assert oracle._chord_in_chain(hinges, along(0.25, 0.1), along(0.25, 0.1)) is None
    # a chord along the hinge's line is contained where it overlaps the segment
    ((s, t),) = oracle._chord_in_chain(hinges, along(-0.5), along(0.5))
    assert s == pytest.approx(0.25, abs=1e-12) and t == 0.5
    assert oracle._chord_in_chain(hinges, along(0.0, 0.1), along(1.0, 0.1)) is None
    assert oracle._chord_in_chain(hinges, along(1.5), along(2.5)) is None


def test_chord_in_chain_rejects_hinges_met_out_of_order():
    stack, i = chain_row((1, 2, 3))
    first, last = _centroid(stack.corners[i, 0].tolist()), _centroid(stack.corners[i, 2].tolist())
    params = oracle._chord_in_chain(real_hinges((1, 2, 3)), first, last)
    assert params is not None and params[0][1] < params[1][1]
    assert oracle._chord_in_chain(real_hinges((1, 2, 3)), last, first) is None


def test_a_hinge_within_eps_in_of_a_chord_end_is_met_at_that_end():
    # the chord starts on the F1-F4 hinge, to rounding, and runs nearly along
    # it to a point 1.001 x EPS_IN inside F4: its crossing parameter with the
    # hinge's line lands near -1e-8, yet the hinge is met where the chord starts
    a = surface_point(4, 1, 0.125, 0.0)
    b = surface_point(4, 7, 0.2500000008660254, 0.4330127013922193)
    assert abs(oracle.unfold_geodesic(a, b) - 0.375) <= 1e-9
    assert abs(oracle.unfold_geodesic(b, a) - 0.375) <= 1e-9
    hinges = real_hinges((1, 4))
    ((ps, pt),) = hinges
    ex, ey = pt[0] - ps[0], pt[1] - ps[1]
    near, far = (ps[0] + 0.5 * ex, ps[1] + 0.5 * ey), (ps[0] + 0.75 * ex, ps[1] + 0.75 * ey)
    off = (far[0] - 2 * EPS_IN * ey, far[1] + 2 * EPS_IN * ex)  # 2 x EPS_IN off the hinge
    assert oracle._chord_in_chain(hinges, near, off) == [(0.5, 0.0)]
    assert oracle._chord_in_chain(hinges, off, near) == [(0.5, 1.0)]


@pytest.mark.parametrize("k", [1.001, 2.0, 10.0])
def test_an_edge_point_and_a_point_just_inside_that_edge_are_their_chord_apart(k):
    # (t1, 0) and (t2, k x EPS_IN) in one chart lie in one face, so the
    # geodesic is their chord, whichever charts they are written in
    for chart, t1, t2, times in itertools.product(CHARTS, (0.125, 0.5, 0.9), (0.25, 0.7), range(3)):
        p = in_every_chart(*chart, t1, 0.0)[times]
        q = in_every_chart(*chart, t2, k * EPS_IN)[(times + 1) % 3]
        a, b = canonicalize(Representation(*p)), canonicalize(Representation(*q))
        expected = math.hypot(t2 - t1, k * EPS_IN)
        assert abs(oracle.unfold_geodesic(a, b) - expected) <= 1e-9, (p, q)
        assert abs(oracle.unfold_geodesic(b, a) - expected) <= 1e-9, (q, p)


def test_sampled_containment_rejects_a_chord_leaving_the_chain():
    stack, i = chain_row((1, 2))
    first, last = _centroid(stack.corners[i, 0].tolist()), _centroid(stack.corners[i, 1].tolist())
    assert sampled_containment((1, 2), first, last)
    assert not sampled_containment((1, 2), first, (first[0] + 3.0, first[1]))


def _point_in_triangle(p, tri, tol: float) -> bool:
    (ax, ay), (bx, by), (cx, cy) = tri
    d1 = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
    d2 = (cx - bx) * (p[1] - by) - (cy - by) * (p[0] - bx)
    d3 = (ax - cx) * (p[1] - cy) - (ay - cy) * (p[0] - cx)
    return min(d1, d2, d3) >= -tol


def _sampled_containment_scan(triangles, a, b):
    """The sampled containment check as a scalar scan of every triangle."""
    tris = [tuple(tri.values()) for tri in triangles]
    for i in range(1, 17):
        t = i / 17.0
        p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        if not any(_point_in_triangle(p, tri, 1e-7) for tri in tris):
            return False
    return True


def test_sampled_containment_blocks_equal_exhaustive_scan():
    rng = random.Random(31337)
    chains = list(_chains())
    rows = []

    def in_triangle(tri):
        u, v = rng.random(), rng.random()
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        (ax, ay), (bx, by), (cx, cy) = tri.values()
        return ax + u * (bx - ax) + v * (cx - ax), ay + u * (by - ay) + v * (cy - ay)

    sample = rng.sample(chains, 300)
    assert any(len(path) == 2 for path, _tris, _hinges in sample)
    for path, tris, _hinges in sample:
        xs, ys = zip(*(p for tri in tris for p in tri.values()))
        chords = [
            # from the first face to the last, to a middle one and back
            (in_triangle(tris[0]), in_triangle(tris[-1])),
            (in_triangle(tris[-1]), in_triangle(tris[0])),
            (in_triangle(tris[len(tris) // 2]), in_triangle(tris[0])),
            # anywhere near the chain: most of these leave it
            tuple(
                (rng.uniform(min(xs) - 0.5, max(xs) + 0.5), rng.uniform(min(ys) - 0.5, max(ys) + 0.5))
                for _ in range(2)
            ),
        ]
        rows += [(path, tris, a, b) for a, b in chords]
    # whole blocks of padded table rows from many face pairs at once, as the
    # search checks its winners, against a scan of the real triangles
    verdicts = []
    for lo in range(0, len(rows), oracle._BLOCK_ROWS):
        block = rows[lo : lo + oracle._BLOCK_ROWS]
        corners = np.array([stack.corners[i] for stack, i in (chain_row(row[0]) for row in block)])
        starts, ends = (np.array([row[side] for row in block]) for side in (2, 3))
        for (path, tris, a, b), got in zip(block, oracle._samples_contained(corners, starts, ends).tolist()):
            want = _sampled_containment_scan(tris, a, b)
            assert got == want, (path, a, b)
            assert sampled_containment(path, a, b) == want, (path, a, b)
            verdicts.append(want)
    assert 200 < sum(verdicts) < len(verdicts) - 200


def test_unfold_same_face_is_planar_distance():
    a = canonicalize(Representation(4, 1, 0.2, 0.1))
    b = canonicalize(Representation(4, 1, 0.7, 0.15))
    expected = math.hypot(0.5, 0.05)
    assert oracle.unfold_geodesic(a, b) == pytest.approx(expected, abs=1e-12)


def test_unfold_witness_row_one():
    a = canonicalize(VALIDITY_WITNESSES[1][0])
    b = canonicalize(VALIDITY_WITNESSES[1][1])
    assert oracle.unfold_geodesic(a, b) == pytest.approx(0.4, abs=1e-12)


def test_unfold_four_faces_suffice():
    points = sample_uniform(6021, 600)
    for a, b in zip(points[0::2], points[1::2]):
        if a.canonical.home == b.canonical.home:
            continue
        d4, winner = best_chord_loop(a, b, 2, 4)
        assert winner is not None and sampled_containment(*winner)
        d8 = oracle.unfold_geodesic(a, b)
        assert d4 == pytest.approx(d8, abs=1e-12)


def test_mesh_zero_for_coincident_points():
    a = canonicalize(Representation(2, 1, 0.4, 0.2))
    assert oracle.mesh_upper_bound(a, a, 4) == pytest.approx(0.0, abs=1e-12)


def test_mesh_rejects_bad_subdivisions():
    a = canonicalize(Representation(2, 1, 0.4, 0.2))
    with pytest.raises(ValueError):
        oracle.mesh_upper_bound(a, a, 0)
    with pytest.raises(ValueError):
        oracle.compare_pairs([(a, a)], subdivisions=-1)
    with pytest.raises(ValueError):
        oracle.compare(a, a, subdivisions=-1)


def test_mesh_bounds_unfold_from_above():
    points = sample_uniform(777, 60)
    for a, b in zip(points[0::2], points[1::2]):
        mesh = oracle.mesh_upper_bound(a, b, 16)
        assert mesh >= oracle.unfold_geodesic(a, b) - 1e-12
    pairs = list(itertools.product(boundary_points(), repeat=2))
    for n in (4, 16):
        for (a, b), report in zip(pairs, oracle.compare_pairs(pairs, subdivisions=n)):
            assert report.mesh >= oracle.unfold_geodesic(a, b) - 1e-12, (a, b, n)


def test_mesh_decreases_under_doubling():
    points = sample_uniform(31, 12)
    for a, b in zip(points[0::2], points[1::2]):
        values = [oracle.mesh_upper_bound(a, b, n) for n in (8, 16, 32)]
        assert values[1] <= values[0] + 1e-12
        assert values[2] <= values[1] + 1e-12


@functools.lru_cache(maxsize=None)
def _reference_lattice(n):
    """The lattice built anew from the vertex positions and the face corners.

    Returns the node coordinates (a node met from two faces keeps the
    first face's), each face's node ids, and the lattice as a symmetric
    CSR matrix of weight 1/n per segment.
    """
    key_of, coords, face_ids, edges = {}, [], {}, set()
    for face in topo.FACE_INDICES:
        pa, pb, pc = (COORDS[v] for v in topo.face_vertices(face))
        grid = {}
        for i in range(n + 1):
            for j in range(n + 1 - i):
                point = (i * pa + j * pb + (n - i - j) * pc) / n
                key = tuple(np.round(point * 1e9).astype(np.int64).tolist())
                if key not in key_of:
                    key_of[key] = len(coords)
                    coords.append(point)
                grid[i, j] = key_of[key]
        face_ids[face] = sorted(set(grid.values()))
        for (i, j), node in grid.items():
            for di, dj in ((1, 0), (0, 1), (1, -1)):
                other = grid.get((i + di, j + dj))
                if other is not None:
                    edges.add((min(node, other), max(node, other)))
    rows, cols = np.array(sorted(edges)).T
    upper = csr_matrix((np.full(len(rows), 1.0 / n), (rows, cols)), shape=(len(coords),) * 2)
    return np.array(coords), face_ids, (upper + upper.T).tocsr()


@pytest.mark.parametrize("n", [1, 4, 16])
def test_mesh_graph_hop_tables_match_scipy_hop_counts(n):
    mesh = oracle._mesh_graph(n)
    coords, face_ids, lattice = _reference_lattice(n)
    for value in mesh._asdict().values():
        for array in value.values() if isinstance(value, dict) else [value]:
            assert not array.flags.writeable
    # a node met from two faces may differ only in the sign of a zero
    node_of = {tuple((point + 0.0).tolist()): v for v, point in enumerate(coords)}
    assert len(node_of) == len(coords) == 4 * n * n + 2

    skeleton = {}
    for face, points in mesh.face_points.items():
        nodes = [node_of[tuple((point + 0.0).tolist())] for point in points]
        assert np.array_equal(points, coords[nodes])
        # the 3n edge nodes are exactly what the face shares with the others
        shared = {v for f, ids in face_ids.items() if f != face for v in ids}
        assert len(set(nodes)) == 3 * n
        assert set(nodes) == shared & set(face_ids[face])
        assert len(mesh.skeleton[face]) == 3 * n
        for index, node in zip(mesh.skeleton[face].tolist(), nodes):
            assert skeleton.setdefault(index, node) == node
    assert sorted(skeleton) == list(range(len(mesh.closure))) == list(range(12 * n - 6))
    nodes = [skeleton[i] for i in range(len(skeleton))]
    hops = shortest_path(lattice, unweighted=True, indices=nodes)[:, nodes]
    assert np.array_equal(mesh.closure, hops)


def _mesh_with_graph_per_call(a, b, n, full_lattice=False):
    """The mesh bound as scipy's Dijkstra finds it on the reference lattice.

    Each endpoint is joined to the nodes its home face shares with
    another face (its edge nodes), or with `full_lattice` to every node
    of its home face.
    """
    coords, face_ids, lattice = _reference_lattice(n)
    n_nodes = len(coords)
    ra, rb = a.canonical, b.canonical
    pa, pb = oracle.embed_3d(ra), oracle.embed_3d(rb)
    direct = float(np.linalg.norm(pa - pb)) if ra.home == rb.home else math.inf

    def joined(home):
        ids = face_ids[home]
        if not full_lattice:
            shared = set().union(*(face_ids[f] for f in face_ids if f != home))
            ids = [v for v in ids if v in shared]
        return np.array(ids)

    src_ids, dst_ids = joined(ra.home), joined(rb.home)
    src_w = np.linalg.norm(coords[src_ids] - pa, axis=1)
    dst_w = np.linalg.norm(coords[dst_ids] - pb, axis=1)
    segments = lattice.tocoo()
    graph = csr_matrix(
        (
            np.concatenate([segments.data, src_w]),
            (
                np.concatenate([segments.row, np.full(len(src_ids), n_nodes)]),
                np.concatenate([segments.col, src_ids]),
            ),
        ),
        shape=(n_nodes + 1, n_nodes + 1),
    )
    dist = dijkstra(graph, directed=True, indices=n_nodes)
    return float(min(direct, np.min(dist[dst_ids] + dst_w)))


# at n = 16, the mesh bound of the first pair (an edge point and a lattice
# node) and that of the second (a vertex and an edge point) lie an ulp
# above the search over the full lattice; the second's is exactly the
# geodesic sqrt(3)/2, which the full lattice undershoots
PINNED_MESH_PAIRS = (
    (
        canonicalize(Representation(1, 4, 0.375, 0.0)),
        canonicalize(Representation(1, 4, 0.5, math.sqrt(3.0) / 8)),
    ),
    (canonicalize(Representation(1, 6, 0.0, 0.0)), canonicalize(Representation(1, 4, 0.5, 0.0))),
)

# pairs of inner lattice nodes whose full-lattice search value is decided
# at an inner node of the target face, each with its subdivision count
INNER_NODE_MESH_PAIRS = (
    (
        canonicalize(Representation(3, 8, 0.4375, 0.10825317547305482)),
        canonicalize(Representation(1, 4, 0.4375, 0.3247595264191645)),
        8,
    ),
    (
        canonicalize(Representation(2, 3, 0.34375, 0.27063293868263705)),
        canonicalize(Representation(1, 4, 0.6875, 0.4330127018922193)),
        16,
    ),
)


def test_mesh_bound_is_bracketed_by_the_full_lattice_search():
    # joining the endpoints to their faces' inner nodes as well gives no
    # shorter path in exact arithmetic, so only rounding separates the two
    cases = [(a, b, n) for a, b in PINNED_MESH_PAIRS for n in (4, 8, 16)]
    cases += INNER_NODE_MESH_PAIRS
    above = 0
    for a, b, n in cases:
        got = oracle.mesh_upper_bound(a, b, n)
        full = _mesh_with_graph_per_call(a, b, n, full_lattice=True)
        assert full <= got <= full + 8 * math.ulp(full), (a, b, n)
        above += got > full
    assert above == 4  # both pinned pairs at n = 16, and both inner-node pairs


def test_mesh_upper_bound_equals_graph_built_per_call():
    points = sample_uniform(4242, 60)
    pairs = list(zip(points[0::2], points[1::2]))
    # same-face pairs, and every vertex against a random point and a vertex
    pairs += [
        (p, canonicalize(interior_rep(p.canonical.home, p.canonical.shared, 0.3, 0.2)))
        for p in points[:10]
    ]
    vertices = [canonicalize(vertex_representations(v)[0]) for v in topo.VERTICES]
    pairs += list(zip(vertices, points))
    pairs += list(itertools.combinations(vertices, 2))
    pairs += PINNED_MESH_PAIRS
    for n in (1, 2, 4, 8, 16):
        for a, b in pairs:
            got = oracle.mesh_upper_bound(a, b, n)
            assert got.hex() == _mesh_with_graph_per_call(a, b, n).hex(), (a, b, n)
    for n in (32, 64):
        for a, b in pairs[:4] + pairs[-6:]:
            got = oracle.mesh_upper_bound(a, b, n)
            assert got.hex() == _mesh_with_graph_per_call(a, b, n).hex(), (a, b, n)


def _every_face_pair_rows(seed):
    """Every ordered face pair, plus coincident, same-face, vertex and edge pairs."""
    rng = random.Random(seed)

    def point(face):
        shared = rng.choice(topo.neighbors(face))
        return canonicalize(interior_rep(face, shared, rng.random(), rng.random()))

    pairs = [(point(f), point(g)) for f in topo.FACE_INDICES for g in topo.FACE_INDICES]
    pairs += [(a, a) for a, _ in pairs[::9]]
    vertices = [canonicalize(vertex_representations(v)[0]) for v in topo.VERTICES]
    pairs += list(itertools.product(vertices, repeat=2))
    pairs += [(v, point(f)) for v, f in zip(vertices, topo.FACE_INDICES)]
    edges = [canonicalize(Representation(f, g, 0.375, 0.0)) for f in (1, 8) for g in topo.neighbors(f)]
    pairs += list(zip(edges, edges[1:] + vertices[:1]))
    pairs += PINNED_MESH_PAIRS
    return pairs


def _references(reports):
    return [(r.oracle.hex(), r.mesh.hex()) for r in reports]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
def test_compare_pairs_do_not_depend_on_the_batch(n, monkeypatch):
    pairs = _every_face_pair_rows(n)
    homes = collections.Counter((a.canonical.home, b.canonical.home) for a, b in pairs)
    assert len(homes) == 64 and max(homes.values()) > 5
    if n >= 32:
        pairs = pairs[::7] + pairs[64:70] + pairs[-4:]
    single = [(oracle.unfold_geodesic(a, b).hex(), oracle.mesh_upper_bound(a, b, n).hex()) for a, b in pairs]
    assert _references(oracle.compare_pairs(pairs, subdivisions=n)) == single
    if n == 3:  # the only odd n: held to the graph search as well
        assert [m for _u, m in single] == [_mesh_with_graph_per_call(a, b, n).hex() for a, b in pairs]
    rng = random.Random(n)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    shuffled = oracle.compare_pairs([pairs[i] for i in order], subdivisions=n)
    assert [single[i] for i in order] == _references(shuffled)
    # split into blocks of a few rows, and into separate calls
    for rows in (1, 2, 5):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
        assert _references(oracle.compare_pairs(pairs, subdivisions=n)) == single
    cuts = sorted(rng.sample(range(1, len(pairs)), 4))
    split = []
    for lo, hi in zip([0, *cuts], [*cuts, len(pairs)]):
        split += oracle.compare_pairs(pairs[lo:hi], subdivisions=n)
    assert _references(split) == single
    assert oracle.compare_pairs([], subdivisions=n) == []
    # with containment inverted, the winners leave their chains and fail
    # the sampled check; the error names the same chain however blocks fall
    contained = oracle._chord_in_chain
    monkeypatch.setattr(
        oracle, "_chord_in_chain", lambda hinges, a, b: [] if contained(hinges, a, b) is None else None
    )
    errors = set()
    for rows in (1, 2, 5, 32):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", rows)
        with pytest.raises(AssertionError, match="sampled containment check failed on") as failure:
            oracle.compare_pairs(pairs, subdivisions=n)
        errors.add(str(failure.value))
    assert len(errors) == 1, errors


def test_mesh_witness_row_one_tight_at_64():
    a = canonicalize(VALIDITY_WITNESSES[1][0])
    b = canonicalize(VALIDITY_WITNESSES[1][1])
    mesh = oracle.mesh_upper_bound(a, b, 64)
    assert mesh >= 0.4 - 1e-12
    assert abs(mesh - 0.4) <= 0.008  # within 2 percent at this resolution


def test_compare_coincident_points_pass():
    a = canonicalize(Representation(6, 1, 0.25, 0.1))
    report = oracle.compare(a, a, subdivisions=8)
    assert report.passed
    assert report.distance == 0.0
    assert report.oracle == 0.0
    assert report.mesh == pytest.approx(0.0, abs=1e-12)


def test_compare_witness_rows_pass(witness_points):
    for _index, (a, b) in witness_points.items():
        report = oracle.compare(a, b, subdivisions=16)
        assert report.passed, report.to_dict()
        assert report.chord <= report.distance + 1e-12
        assert report.distance <= report.mesh + 1e-12


def test_compare_random_sweep_passes():
    points = sample_uniform(90210, 200)
    for a, b in zip(points[0::2], points[1::2]):
        report = oracle.compare(a, b)
        assert report.passed, report.to_dict()
        assert report.mesh is None and report.mesh_ok is None


def test_compare_report_serializes():
    a = canonicalize(Representation(1, 2, 0.2, 0.1))
    b = canonicalize(Representation(7, 4, 0.3, 0.2))
    obj = oracle.compare(a, b, subdivisions=8).to_dict()
    assert set(obj) == {
        "distance", "oracle", "chord", "mesh", "argmin", "fallback",
        "distance_ok", "chord_ok", "mesh_ok", "passed",
    }
    assert obj["passed"] is True
    # a non-finite value is written null, whatever produced it
    report = oracle.CompareReport(
        distance=0.5, oracle=math.inf, chord=0.25, mesh=math.inf, argmin=(1,),
        fallback=False, distance_ok=False, chord_ok=True, mesh_ok=False,
    )
    obj = report.to_dict()
    assert obj["oracle"] is None and obj["mesh"] is None
    assert json.loads(dumps(obj)) == obj


def test_compare_pairs_equals_the_public_one_pair_functions():
    points = sample_uniform(6174, 80)
    pairs = list(zip(points[0::2], points[1::2]))
    pairs += [(p, canonicalize(interior_rep(p.canonical.home, p.canonical.shared, 0.3, 0.2))) for p in points[:6]]
    pairs += list(itertools.permutations(boundary_points()[::3], 2))
    pairs += [(points[0], points[0])]
    for n, tolerance in ((0, 1e-9), (4, 1e-9), (16, 0.0)):
        reports = oracle.compare_pairs(pairs, tolerance=tolerance, subdivisions=n)
        assert len(reports) == len(pairs)
        for (a, b), report in zip(pairs, reports):
            result = surface_distance(a, b)
            oracle_value = oracle.unfold_geodesic(a, b)
            chord = float(np.linalg.norm(oracle.embed_3d(a.canonical) - oracle.embed_3d(b.canonical)))
            mesh = oracle.mesh_upper_bound(a, b, n) if n else None
            assert report.distance.hex() == result.distance.hex()
            assert report.oracle.hex() == oracle_value.hex()
            assert report.chord.hex() == chord.hex()
            if n:
                assert report.mesh.hex() == mesh.hex()
            else:
                assert report.mesh is None
            assert (report.argmin, report.fallback) == (result.argmin, result.fallback)
            assert report.distance_ok is (abs(result.distance - oracle_value) <= tolerance)
            assert report.chord_ok is (chord <= result.distance + 1e-12)
            assert report.mesh_ok is (None if mesh is None else result.distance <= mesh + 1e-12)


def test_compare_pairs_equals_compare_per_pair():
    points = sample_uniform(8080, 60)
    pairs = list(zip(points[0::2], points[1::2])) + [(points[0], points[0])]
    for n in (0, 4):
        reports = oracle.compare_pairs(pairs, subdivisions=n)
        assert reports == [oracle.compare(a, b, subdivisions=n) for a, b in pairs]


def test_dominance_of_short_landscapes_sample():
    # no 5..8-face chain ever offers a strictly shorter contained chord
    points = sample_uniform(5150, 400)
    for a, b in zip(points[0::2], points[1::2]):
        if a.canonical.home == b.canonical.home:
            continue
        d = surface_distance(a, b).distance
        long_best, winner = best_chord_loop(a, b, 5, 8)
        if winner is not None:
            assert sampled_containment(*winner)
        assert long_best >= d - 1e-9
