"""Independent ground truth for the landscape formulas.

Everything here deliberately avoids the closed forms and the planar
chart algebra of the landscape module: the octahedron is embedded in 3D,
face chains are flattened by composing hinge rotations in space, and an
exhaustive search over all simple dual paths yields the geodesic
distance.  A lattice-graph shortest path supplies a one-sided upper
bound.  `compare_pairs` bundles the checks the validation sweep runs on
its pairs, and `compare` on one pair.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import topology as topo
from .coords import EPS_IN, Representation, SurfacePoint, barycentric
from .landscape import surface_distance

_HALF_DIAG = 1.0 / math.sqrt(2.0)


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the last axis, row by row, as a 1-D `u @ v` forms each."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """matrix @ vector, row by row, as a 2-D `M @ v` forms each."""
    return np.matmul(matrix, vectors[..., None])[..., 0]


class InvalidEmbedding(AssertionError):
    """The derived vertex coordinates failed a self-check."""


#: Each vertex's row of `_VERTEX_ROWS` (`topology.VERTICES` order), and
#: each face's corner rows in `face_vertices` order.
_VERTEX_ROW: dict[topo.VertexLabel, int] = {v: i for i, v in enumerate(topo.VERTICES)}
_FACE_ROWS = np.array([[_VERTEX_ROW[v] for v in topo.face_vertices(f)] for f in topo.FACE_INDICES])


def _chirality_ok(rows: np.ndarray) -> bool:
    # every face's stored corner order must be counter-clockwise from
    # outside: its normal points the way of its corner sum, on all faces
    a, b, c = rows[_FACE_ROWS].transpose(1, 0, 2)
    return min(sum((np.cross(b - a, c - a) * (a + b + c)).T).tolist()) > 0.0


def _derive_vertex_rows() -> np.ndarray:
    """Place the six vertices on the coordinate axes and fix chirality.

    Vertices sharing no face are antipodal; the three antipodal pairs go
    on the three axes at distance 1/sqrt(2), and the sign of the last
    pair is chosen so that every face's corner order reads
    counter-clockwise from outside.  The result is validated, not
    assumed.
    """
    ordered = sorted(topo.VERTICES, key=sorted)
    pairs = [(v, w) for v, w in itertools.combinations(ordered, 2) if not (v & w)]
    axes = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    for last_sign in (1.0, -1.0):
        rows = np.empty((len(topo.VERTICES), 3))
        for (v, w), axis, sign in zip(pairs, axes, (1.0, 1.0, last_sign)):
            rows[_VERTEX_ROW[v]] = sign * _HALF_DIAG * axis
            rows[_VERTEX_ROW[w]] = -sign * _HALF_DIAG * axis
        if _chirality_ok(rows):
            _validate_embedding(rows)
            rows.setflags(write=False)
            return rows
    raise InvalidEmbedding("no chirality-consistent axis assignment exists")


def _validate_embedding(rows: np.ndarray) -> None:
    # the 15 distances between rows in `topology.VERTICES` order: 1 along an
    # edge, sqrt(2) across the solid; `_chirality_ok` checks the faces' turn
    i, j = np.array(list(itertools.combinations(range(len(rows)), 2))).T
    lengths = map(math.hypot, *(rows[i] - rows[j]).T.tolist())
    for (v, w), d in zip(itertools.combinations(topo.VERTICES, 2), lengths):
        expect = 1.0 if (v & w) else math.sqrt(2.0)
        if abs(d - expect) > 1e-12:
            raise InvalidEmbedding(f"|{sorted(v)} - {sorted(w)}| = {d}, expected {expect}")


#: 3D coordinates of the six vertices (unit edge length), one read-only
#: row each, indexed through `_VERTEX_ROW`.
_VERTEX_ROWS: np.ndarray = _derive_vertex_rows()


def _points(labels) -> np.ndarray:
    """The 3D points of vertex labels: one row per entry of `labels`, one point per label."""
    return _VERTEX_ROWS[[[_VERTEX_ROW[v] for v in row] for row in labels]]


def _embed(reps: Sequence[Representation]) -> np.ndarray:
    """3D positions of represented points, one row each.

    A point's row is its barycentric weights times its chart's corners,
    summed in the order S, T, U.
    """
    bary = np.array([barycentric(r.x, r.y) for r in reps]).reshape(-1, 3)
    corners = _points([topo.chart_corners(r.home, r.shared) for r in reps]).reshape(-1, 3, 3)
    ls, lt, lu = bary.T[:, :, None]
    return ls * corners[:, 0] + lt * corners[:, 1] + lu * corners[:, 2]


def embed_3d(rep: Representation) -> np.ndarray:
    """3D position of a represented point (barycentric over its chart): `_embed` of one point."""
    return _embed([rep])[0]


def _hinge(
    matrix: np.ndarray,
    offset: np.ndarray,
    n0: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    normal: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's tail map after unfolding its next face about the edge S-T.

    Row r's last face is carried into the plane by `matrix[r]`,
    `offset[r]`; `n0[r]` is the unit normal of its first face, `s[r]` and
    `t[r]` are the corners its last face shares with the next one, and
    `normal[r]` the next face's unit normal.  The rotation about the
    carried edge takes the carried normal onto `n0[r]` (Rodrigues'
    formula); the angle is taken per row with `math.atan2`.
    """
    pa = _apply(matrix, s) + offset
    pb = _apply(matrix, t) + offset
    axis = pb - pa
    axis = axis / np.sqrt(_dots(axis, axis))[:, None]
    m = _apply(matrix, normal)
    angles = list(map(math.atan2, _dots(axis, np.cross(m, n0)).tolist(), _dots(m, n0).tolist()))
    sin, versin = np.array(list(map(math.sin, angles))), 1.0 - np.array(list(map(math.cos, angles)))
    x, y, z = axis.T
    zero = np.zeros_like(x)
    k = np.stack((zero, -z, y, z, zero, -x, -y, x, zero), axis=1).reshape(-1, 3, 3)
    rot = np.eye(3) + sin[:, None, None] * k + versin[:, None, None] * (k @ k)
    return rot @ matrix, _apply(rot, offset - pa) + pa


class PairChains(NamedTuple):
    """Every simple dual path between two faces, flattened and stacked.

    `paths` are the face paths of `enumerate_dual_paths`, in its (length,
    face sequence) order, and row i of each table is path i's.  The path
    is flattened into the plane of its first face: `origin` (k x 3) and
    `axes` (k x 3 x 2, columns ex and ey) frame that plane in 3D, and
    `tail_matrix` (k x 3 x 3) and `tail_offset` (k x 3) are the rigid map
    that carries 3D points of its last face into it.  `corners`
    (k x 8 x 3 x 2) holds each face's plane corners in `face_vertices`
    order, and `hinges` (k x 7 x 2 x 2) each interior shared edge's
    (S, T) plane points in path order, read from the triangle of the face
    before the edge.  Both are padded with copies of their last entry.
    The arrays are read-only.
    """

    paths: tuple[tuple[int, ...], ...]
    origin: np.ndarray
    axes: np.ndarray
    tail_matrix: np.ndarray
    tail_offset: np.ndarray
    corners: np.ndarray
    hinges: np.ndarray


@lru_cache(maxsize=None)
def _unfoldings() -> dict[tuple[int, int], PairChains]:
    """The chain stack of each ordered pair of distinct faces.

    A path's plane is its first face's chart towards its second face:
    the origin is the chart's S corner, ex points along S-T and ey is
    n0 x ex.  The paths are unfolded depth by depth: the tail maps of
    all paths of one length come from those of their prefixes in one
    `_hinge` step, the two-face paths' from the identity.  Each face's
    plane corners are its corners carried by the tail map of the path
    that ends on it, projected on ex and ey.  Every row is formed by the
    operations a chain-by-chain composition would use, so it has the
    same bits.  The rows of one face pair are contiguous, so its stack
    is a slice of the tables.
    """
    stacks = {
        (start, goal): topo.enumerate_dual_paths(start, goal)
        for start in topo.FACE_INDICES
        for goal in topo.FACE_INDICES
        if goal != start
    }
    paths = [p for ps in stacks.values() for p in ps]
    row = {path: i for i, path in enumerate(paths)}
    levels: dict[int, list[int]] = {}
    for i, path in enumerate(paths):
        levels.setdefault(len(path), []).append(i)
    edges = {(f, g): topo.shared_edge(f, g) for f in topo.FACE_INDICES for g in topo.neighbors(f)}
    # each face's unit outward normal (the solid is centered at the origin)
    a, b, c = _VERTEX_ROWS[_FACE_ROWS].transpose(1, 0, 2)
    centroids = (a + b + c) / 3.0
    normal_rows = centroids / np.sqrt(_dots(centroids, centroids))[:, None]

    def normals(faces):
        return normal_rows[[topo.FACE_INDICES.index(f) for f in faces]]

    def plane(points, rows):
        # each row's three points on its plane, as 3 x 2 (x, y) rows
        rel = points - origin[rows, None]
        return np.stack((_dots(rel, ex[rows, None]), _dots(rel, ey[rows, None])), axis=2)

    origin, t0 = _points([edges[p[:2]] for p in paths]).transpose(1, 0, 2)
    ex = t0 - origin
    ex = ex / np.sqrt(_dots(ex, ex))[:, None]
    n0 = normals([p[0] for p in paths])
    ey = np.cross(n0, ex)

    # plane corners by row: row i is path i's last face, row first[i] the
    # first face of two-face path i.  Row i of `faces` lists the rows of
    # path i's triangles (its first face, then the last face of each
    # prefix and its own), padded with its last.  Row i of `hinge_at`
    # lists where each hinge's S and T sit among the corners of those
    # rows (3 per row, in `face_vertices` order), padded the same way.
    roots = levels[2]
    first = {i: len(paths) + j for j, i in enumerate(roots)}
    faces = np.empty((len(paths), max(levels)), dtype=np.intp)
    hinge_at = np.empty((len(paths), max(levels) - 1, 2), dtype=np.intp)
    matrix, offset = np.empty((len(paths), 3, 3)), np.empty((len(paths), 3))
    for depth in sorted(levels):
        rows = levels[depth]
        last = [paths[i][-2:] for i in rows]
        if depth == 2:
            before = np.tile(np.eye(3), (len(rows), 1, 1)), np.zeros((len(rows), 3))
            faces[rows, 0] = [first[i] for i in rows]
        else:
            parents = [row[paths[i][:-1]] for i in rows]
            before = matrix[parents], offset[parents]
            faces[rows, : depth - 1] = faces[parents, : depth - 1]
            hinge_at[rows, : depth - 2] = hinge_at[parents, : depth - 2]
        faces[rows, depth - 1 :] = np.array(rows)[:, None]
        places = [[topo.face_vertices(f).index(v) for v in edges[f, g]] for f, g in last]
        hinge_at[rows, depth - 2 :] = 3 * faces[rows, depth - 2][:, None, None] + np.array(places)[:, None]
        s, t = _points([edges[p] for p in last]).transpose(1, 0, 2)
        normal = normals([g for _f, g in last])
        matrix[rows], offset[rows] = _hinge(*before, n0[rows], s, t, normal)

    carried = _apply(matrix[:, None], _points([topo.face_vertices(p[-1]) for p in paths]))
    first_faces = _points([topo.face_vertices(paths[i][0]) for i in roots])
    plane_xy = np.concatenate((plane(carried + offset[:, None], slice(None)), plane(first_faces, roots)))
    corner_table, hinge_table = plane_xy[faces], plane_xy.reshape(-1, 2)[hinge_at]
    axes = np.stack((ex, ey), axis=2)
    for array in (origin, axes, matrix, offset, corner_table, hinge_table):
        array.setflags(write=False)

    pair_chains, lo = {}, 0
    for homes, ps in stacks.items():
        rows = slice(lo, lo + len(ps))
        pair_chains[homes] = PairChains(
            tuple(ps), origin[rows], axes[rows], matrix[rows], offset[rows], corner_table[rows],
            hinge_table[rows],
        )
        lo = rows.stop
    return pair_chains


def _nearest_on_segment(p, ps, ex, ey, ee):
    """Parameter of the point of segment ps + s (ex, ey) nearest p, if within EPS_IN of p; else None."""
    s = ((p[0] - ps[0]) * ex + (p[1] - ps[1]) * ey) / ee
    s = min(1.0, max(0.0, s))
    if math.hypot(p[0] - ps[0] - s * ex, p[1] - ps[1] - s * ey) > EPS_IN:
        return None
    return s


def _chord_in_chain(hinges, a, b):
    """Crossing parameters of the chord with the hinge edges, or None.

    `hinges` are one chain's (S, T) hinge points in path order, as
    floats.  Contained means: every hinge is met within its segment, in
    path order.  A hinge that passes within EPS_IN of a chord end is met
    at that end, whatever the chord's direction there, and a chord along
    a hinge's line meets it where they overlap.  Implemented
    independently of the landscape module's intersection routine.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    chord_len = math.hypot(dx, dy)
    params = []
    prev_t = -EPS_IN
    for ps, pt in hinges:
        ex, ey = pt[0] - ps[0], pt[1] - ps[1]
        ee = ex * ex + ey * ey
        denom = dx * ey - dy * ex
        fx, fy = ps[0] - a[0], ps[1] - a[1]
        if chord_len >= 1e-12 and abs(denom) < 1e-14:
            if abs(fx * ey - fy * ex) / math.hypot(ex, ey) > EPS_IN:
                return None
            sa = (-fx * ex - fy * ey) / ee
            sb = ((b[0] - ps[0]) * ex + (b[1] - ps[1]) * ey) / ee
            lo, hi = max(min(sa, sb), 0.0), min(max(sa, sb), 1.0)
            if lo > hi + EPS_IN:
                return None
            params.append(((lo + hi) / 2.0, 0.5))
            continue
        s, t = _nearest_on_segment(a, ps, ex, ey, ee), 0.0
        if s is None:
            s, t = _nearest_on_segment(b, ps, ex, ey, ee), 1.0
        if s is None:
            if chord_len < 1e-12:
                return None
            t = (fx * ey - fy * ex) / denom
            s = (fx * dy - fy * dx) / denom
            if not (-EPS_IN <= s <= 1.0 + EPS_IN) or not (-EPS_IN <= t <= 1.0 + EPS_IN):
                return None
        if t < prev_t - EPS_IN:
            return None
        prev_t = max(prev_t, t)
        params.append((s, t))
    return params


def _samples_contained(corners: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row r, whether 16 points along the chord a[r] -> b[r] each lie in a triangle of corners[r].

    The cross-check of a winning chain: interior chord samples must land
    in some triangle of it.  `corners` is rows x triangles x 3 x 2, `a`
    and `b` are rows x 2.  Every sample is tested against every triangle,
    so a repeated triangle changes nothing.  Each sample a + t (b - a)
    and each edge product (B - A) x (p - A) of a triangle ABC, for the
    edges AB, BC and CA, is formed elementwise with the float operations
    of a scalar test; the sample lies in the triangle when the least of
    the three is at least -1e-7.
    """
    samples = 16
    t = np.arange(1, samples + 1) / (samples + 1.0)
    # sample i of row r at [xy, r, 0, i]; corner k of triangle j at [k, xy, r, j, 0]
    px, py = (a.T[:, :, None] + t * (b - a).T[:, :, None])[:, :, None]
    corner = np.ascontiguousarray(corners.transpose(2, 3, 0, 1))[..., None]
    edge = corner[[1, 2, 0]] - corner
    d = edge[:, 0] * (py - corner[:, 1]) - edge[:, 1] * (px - corner[:, 0])
    return (d.min(axis=0) >= -1e-7).any(axis=1).all(axis=1)


#: Pairs a block holds at most.  Per row, the unfolding kernel's
#: temporaries hold about 15 floats per chain of its stack (at most 18
#: chains) and 384 (3 edges x 8 triangles x 16 samples) per array of its
#: containment check, and the mesh kernel's about 9 n^2 floats, so a block
#: stays bounded however many pairs share a face pair.
_BLOCK_ROWS = 32


def _blocks(pairs: Sequence[tuple[SurfacePoint, SurfacePoint]]):
    """The pairs in blocks of at most `_BLOCK_ROWS` with the same two home faces.

    Each endpoint is embedded once (`_embed`).  Yields the home faces,
    the block's pair indices, its rows of both ends in 3D, and their 3D
    chord lengths.
    """
    reps, groups = [], {}
    for i, (a, b) in enumerate(pairs):
        ra, rb = a.canonical, b.canonical
        reps += (ra, rb)
        groups.setdefault((ra.home, rb.home), []).append(i)
    points = _embed(reps)
    for homes, rows in groups.items():
        for lo in range(0, len(rows), _BLOCK_ROWS):
            block = rows[lo : lo + _BLOCK_ROWS]
            a3, b3 = points[0::2][block], points[1::2][block]
            d = a3 - b3
            yield homes, block, a3, b3, np.sqrt(_dots(d, d)).tolist()


def _shortest_contained(
    stack: PairChains, starts: list, ends: list, dxs: list, dys: list
) -> tuple[float, int] | None:
    """The shortest chord starts[i] -> ends[i] that chain i contains, with i; None if none does.

    (dxs[i], dys[i]) is ends[i] - starts[i].  Equal lengths are tried in
    chain order, each on its real hinges.
    """
    lengths = list(map(math.hypot, dxs, dys))
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        hinges = stack.hinges[i, : len(stack.paths[i]) - 1].tolist()
        if _chord_in_chain(hinges, starts[i], ends[i]) is not None:
            return lengths[i], i
    return None


def _unfold_block(homes: tuple[int, int], a3: np.ndarray, b3: np.ndarray, chords: list) -> list[float]:
    """`unfold_geodesic` of each row of a block from `_blocks`.

    The rows are projected into their face pair's chain stack together,
    and their winners get their sampled containment check together; a
    row's value does not depend on the rows it goes with.
    """
    if homes[0] == homes[1]:
        return chords
    stack = _unfoldings()[homes]
    b3_tail = _apply(stack.tail_matrix, b3[:, None]) + stack.tail_offset
    starts = ((a3[:, None] - stack.origin)[:, :, None] @ stack.axes)[:, :, 0]
    ends = ((b3_tail - stack.origin)[:, :, None] @ stack.axes)[:, :, 0]
    dxs, dys = (ends - starts).transpose(2, 0, 1).tolist()
    values, rows, winners = [math.inf] * len(a3), [], []
    for r, row in enumerate(zip(starts.tolist(), ends.tolist(), dxs, dys)):
        found = _shortest_contained(stack, *row)
        if found is not None:
            values[r], winner = found
            rows.append(r)
            winners.append(winner)
    if rows:
        ok = _samples_contained(stack.corners[winners], starts[rows, winners], ends[rows, winners])
        if not ok.all():
            failed = stack.paths[winners[int(ok.argmin())]]
            raise AssertionError(f"sampled containment check failed on {failed}")
    return values


def unfold_geodesic(a: SurfacePoint, b: SurfacePoint) -> float:
    """Exhaustive unfolding geodesic; the reference the formulas are held to.

    Same-face pairs reduce to the 3D chord (the face is flat).  Otherwise
    both endpoints are projected at once into every flattened simple
    dual path between the two faces; chains are then tried in (chord
    length, path index) order, so the first one that contains its chord
    is the shortest contained one.  Returns inf when no chain contains
    its chord.
    """
    ((homes, _block, a3, b3, chords),) = _blocks([(a, b)])
    return _unfold_block(homes, a3, b3, chords)[0]


# ---------------------------------------------------------------------------
# lattice-graph upper bound


class MeshGraph(NamedTuple):
    """The lattice of one subdivision count n, as hop counts.

    Every face holds the same local lattice: node (i, j, k), i + j + k = n,
    sits at (i A + j B + k C) / n over the face's corners A, B, C.  Only
    the 3n nodes on the face's edges (a count of zero) are kept:
    `face_points[face]` holds their positions on that face.  The edge
    nodes of all faces form the skeleton: `skeleton[face][r]` is the
    skeleton index of edge node r, and `closure` holds the lattice hop
    count between two skeleton nodes, through inner nodes too.  Every
    array is read-only.
    """

    face_points: dict[int, np.ndarray]
    skeleton: dict[int, np.ndarray]
    closure: np.ndarray


@lru_cache(maxsize=None)
def _mesh_graph(subdivisions: int) -> MeshGraph:
    """Shared lattice, unit edges split n-fold: each face's edge nodes and the skeleton's hop counts."""
    if subdivisions < 1:
        raise ValueError("subdivisions must be at least 1")
    n = subdivisions
    rim = [
        (i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i) if 0 in (i, j, n - i - j)
    ]
    ijk = np.array(rim)
    # in-face hops between two nodes: the largest change of one count
    hops = np.abs(ijk[:, None, :] - ijk[None, :, :]).max(axis=2)

    # a skeleton node is named by its corners and their non-zero counts, so
    # both faces of an edge give each of its nodes the same name
    names, face_points, skeleton = {}, {}, {}
    for face in topo.FACE_INDICES:
        corners = topo.face_vertices(face)
        pa, pb, pc = _points([corners])[0]
        face_points[face] = (ijk[:, :1] * pa + ijk[:, 1:2] * pb + ijk[:, 2:] * pc) / n
        skeleton[face] = np.array([
            names.setdefault(frozenset((v, c) for v, c in zip(corners, counts) if c), len(names))
            for counts in rim
        ])

    # every lattice path between skeleton nodes is a chain of in-face legs;
    # 4n + 1 exceeds every hop count (at most 2n), and the dtype holds twice it
    unreached = 4 * n + 1
    closure = np.full((len(names),) * 2, unreached, dtype=np.min_scalar_type(2 * unreached))
    for ids in skeleton.values():
        legs = np.ix_(ids, ids)
        closure[legs] = np.minimum(closure[legs], hops)
    for k in range(len(names)):
        np.minimum(closure, closure[:, k, None] + closure[k], out=closure)

    for array in (closure, *face_points.values(), *skeleton.values()):
        array.setflags(write=False)
    return MeshGraph(face_points, skeleton, closure)


def _replay(start: np.ndarray, index: np.ndarray, width: int, step: float) -> np.ndarray:
    """Per row of `start`, column minima of F(start[r], h) at the places r * width + h in `index`.

    F(x, h) is x with `step` added h times, rounded after each add: the
    sum a shortest-path search forms along h edges of weight `step`.
    Row r of a row's table is F(start[r], 0), F(start[r], 1), ...
    """
    table = np.full((*start.shape, width), step)
    table[:, :, 0] = start
    np.add.accumulate(table, axis=2, out=table)
    return table.reshape(len(start), -1)[:, index].min(axis=1)


def _mesh_block(
    mesh: MeshGraph, n: int, homes: tuple[int, int], a3: np.ndarray, b3: np.ndarray, chords: list
) -> list[float]:
    """`mesh_upper_bound` of each row of a block from `_blocks`, on the lattice `mesh` of n.

    The rows go through the lattice together; a row's value does not
    depend on the rows it goes with.
    """
    home_a, home_b = homes
    src_w = np.linalg.norm(mesh.face_points[home_a] - a3[:, None, :], axis=2)
    legs = mesh.closure[mesh.skeleton[home_a]][:, mesh.skeleton[home_b]]
    width = int(legs.max()) + 1
    rows = np.arange(3 * n)[:, None] * width
    dist = _replay(src_w, legs + rows, width, 1.0 / n)
    dst_w = np.linalg.norm(mesh.face_points[home_b] - b3[:, None, :], axis=2)
    values = (dist + dst_w).min(axis=1).tolist()
    return list(map(min, chords, values)) if home_a == home_b else values


def mesh_upper_bound(a: SurfacePoint, b: SurfacePoint, subdivisions: int) -> float:
    """Shortest path in the face-lattice graph; always >= the geodesic.

    Each endpoint is joined straight to the 3n lattice nodes on its home
    face's edges; a same-face pair also takes the straight chord.  Every
    graph hop and every join is a straight segment inside a single face,
    so any graph path is a valid surface path.  Joining an endpoint to
    the inner nodes too would give no shorter path in exact arithmetic:
    a path from a through an inner node u and h hops to the first edge
    node r has length |a - u| + h/n >= |a - u| + |u - r| >= |a - r|.

    The value is the one Dijkstra's search on that graph finds, bit for
    bit.  Every lattice edge weighs 1/n, so the search's distance at an
    edge node of b's face is the join weight of some edge node of a's
    face with 1/n added once per hop, rounded after each add.  Rounded
    addition is monotone, so only the fewest hops between the two nodes
    count, and the search is replayed from the skeleton's hop counts.
    """
    mesh = _mesh_graph(subdivisions)
    ((homes, _block, a3, b3, chords),) = _blocks([(a, b)])
    return _mesh_block(mesh, subdivisions, homes, a3, b3, chords)[0]


# ---------------------------------------------------------------------------
# per-pair comparison record


class CompareReport(NamedTuple):
    """One pair's distance, the independent references, and pass flags."""

    distance: float
    oracle: float
    chord: float
    mesh: float | None
    argmin: tuple[int, ...]
    fallback: bool
    distance_ok: bool
    chord_ok: bool
    mesh_ok: bool | None

    @property
    def passed(self) -> bool:
        return self.distance_ok and self.chord_ok and self.mesh_ok is not False

    def to_dict(self) -> dict:
        """The report as a wire object; a non-finite value is written as null."""

        def number(value):
            return value if value is not None and math.isfinite(value) else None

        return {
            "distance": number(self.distance),
            "oracle": number(self.oracle),
            "chord": number(self.chord),
            "mesh": number(self.mesh),
            "argmin": [f"L{i}" for i in self.argmin],
            "fallback": self.fallback,
            "distance_ok": self.distance_ok,
            "chord_ok": self.chord_ok,
            "mesh_ok": self.mesh_ok,
            "passed": self.passed,
        }


def compare_pairs(
    pairs: Sequence[tuple[SurfacePoint, SurfacePoint]],
    tolerance: float = 1e-9,
    subdivisions: int = 0,
) -> list[CompareReport]:
    """Check each pair, in order: formula vs unfolding, chord and mesh brackets.

    The pairs go through both searches in the blocks of `_blocks`, each
    endpoint embedded once, and every value is the one `unfold_geodesic`
    and `mesh_upper_bound` give for its pair alone.  subdivisions = 0
    skips the mesh bound (it is by far the slowest reference and
    one-sided anyway).
    """
    mesh = _mesh_graph(subdivisions) if subdivisions else None
    refs: list = [None] * len(pairs)
    for homes, block, a3, b3, chords in _blocks(pairs):
        bounds = [None] * len(block)
        if subdivisions:
            bounds = _mesh_block(mesh, subdivisions, homes, a3, b3, chords)
        for i, ref in zip(block, zip(chords, _unfold_block(homes, a3, b3, chords), bounds)):
            refs[i] = ref
    reports = []
    for (a, b), (chord, oracle_value, bound) in zip(pairs, refs):
        result = surface_distance(a, b)
        reports.append(CompareReport(
            distance=result.distance,
            oracle=oracle_value,
            chord=chord,
            mesh=bound,
            argmin=result.argmin,
            fallback=result.fallback,
            distance_ok=abs(result.distance - oracle_value) <= tolerance,
            chord_ok=chord <= result.distance + 1e-12,
            mesh_ok=None if bound is None else result.distance <= bound + 1e-12,
        ))
    return reports


def compare(
    a: SurfacePoint,
    b: SurfacePoint,
    tolerance: float = 1e-9,
    subdivisions: int = 0,
) -> CompareReport:
    """Check one pair: `compare_pairs` of that pair alone."""
    return compare_pairs([(a, b)], tolerance, subdivisions)[0]
