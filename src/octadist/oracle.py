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

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import topology as topo
from .coords import EPS_IN, Representation, SurfacePoint, barycentric
from .landscape import surface_distance

_HALF_DIAG = 1.0 / math.sqrt(2.0)


class InvalidEmbedding(AssertionError):
    """The derived vertex coordinates failed a self-check."""


def _chirality_ok(coords: dict[topo.VertexLabel, np.ndarray]) -> bool:
    # every face's stored corner order must be counter-clockwise from outside
    for face in topo.FACE_INDICES:
        a, b, c = (coords[v] for v in topo.face_vertices(face))
        normal = np.cross(b - a, c - a)
        centroid = (a + b + c) / 3.0
        if float(np.dot(normal, centroid)) <= 0.0:
            return False
    return True


def _derive_vertex_coords() -> dict[topo.VertexLabel, np.ndarray]:
    """Place the six vertices on the coordinate axes and fix chirality.

    Vertices sharing no face are antipodal; the three antipodal pairs go
    on the three axes at distance 1/sqrt(2), and the sign of the last
    pair is chosen so that every face's corner order reads
    counter-clockwise from outside.  The result is validated, not
    assumed.
    """
    ordered = sorted(topo.VERTICES, key=sorted)
    remaining = list(ordered)
    pairs = []
    while remaining:
        v = remaining.pop(0)
        (partner,) = [w for w in remaining if not (v & w)]
        remaining.remove(partner)
        pairs.append((v, partner))
    axes = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    for last_sign in (1.0, -1.0):
        signs = (1.0, 1.0, last_sign)
        coords = {}
        for (v, w), axis, sign in zip(pairs, axes, signs):
            coords[v] = sign * _HALF_DIAG * axis
            coords[w] = -sign * _HALF_DIAG * axis
        if _chirality_ok(coords):
            _validate_embedding(coords)
            return coords
    raise InvalidEmbedding("no chirality-consistent axis assignment exists")


def _validate_embedding(coords: dict[topo.VertexLabel, np.ndarray]) -> None:
    for i, v in enumerate(topo.VERTICES):
        for w in topo.VERTICES[i + 1 :]:
            d = float(np.linalg.norm(coords[v] - coords[w]))
            expect = 1.0 if (v & w) else math.sqrt(2.0)
            if abs(d - expect) > 1e-12:
                raise InvalidEmbedding(f"|{sorted(v)} - {sorted(w)}| = {d}, expected {expect}")
    for a in topo.FACE_INDICES:
        derived = {b for b in topo.FACE_INDICES if b != a and len(
            set(topo.face_vertices(a)) & set(topo.face_vertices(b))) == 2}
        if derived != set(topo.neighbors(a)):
            raise InvalidEmbedding(f"adjacency mismatch at F{a}")


#: 3D coordinates of the six vertices (unit edge length).
VERTEX_COORDS: dict[topo.VertexLabel, np.ndarray] = _derive_vertex_coords()


def _face_normal(face: int) -> np.ndarray:
    """Unit outward normal (the solid is centered at the origin)."""
    a, b, c = (VERTEX_COORDS[v] for v in topo.face_vertices(face))
    n = (a + b + c) / 3.0
    n = n / np.linalg.norm(n)
    n.setflags(write=False)
    return n


#: Unit outward normal of each face.
FACE_NORMALS: dict[int, np.ndarray] = {face: _face_normal(face) for face in topo.FACE_INDICES}


#: The same coordinates as tuples of floats.
_VERTEX_TUPLES: dict[topo.VertexLabel, tuple[float, ...]] = {
    v: tuple(c.tolist()) for v, c in VERTEX_COORDS.items()
}


def embed_3d(rep: Representation) -> np.ndarray:
    """3D position of a represented point (barycentric over its chart).

    Summed on floats, coordinate by coordinate, in the order the vector
    sum ls*S + lt*T + lu*U would take.
    """
    s, t, u = topo.chart_corners(rep.home, rep.shared)
    ls, lt, lu = barycentric(rep.x, rep.y)
    return np.array([
        ls * ps + lt * pt + lu * pu
        for ps, pt, pu in zip(_VERTEX_TUPLES[s], _VERTEX_TUPLES[t], _VERTEX_TUPLES[u])
    ])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v for 3-vectors: np.cross's products and differences, without its overhead."""
    u0, u1, u2 = u.tolist()
    v0, v1, v2 = v.tolist()
    return np.array((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0))


def _rodrigues(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


@dataclass(frozen=True)
class UnfoldChain:
    """A dual path flattened into the plane of its first face.

    `tail_matrix`/`tail_offset` is the rigid map that carries 3D points
    of the last face into the flattening plane, and `parent` the chain
    of the path without its last face (None for the one-face root).  The
    2D geometry is built from the parent the first time it is read:
    `triangles` holds each face's corner positions keyed by vertex label,
    `corners` the same positions as tuples, and `hinges` the interior
    shared edges as ((S, T), 2D S, 2D T) in path order, read from the
    triangle of the face before each edge.
    """

    faces: tuple[int, ...]
    origin: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    tail_matrix: np.ndarray
    tail_offset: np.ndarray
    parent: UnfoldChain | None = field(default=None, repr=False)

    def project(self, point3: np.ndarray) -> tuple[float, float]:
        rel = point3 - self.origin
        return float(rel @ self.ex), float(rel @ self.ey)

    def place(self, vertex: topo.VertexLabel) -> np.ndarray:
        """Where the tail map carries a vertex of the last face."""
        return self.tail_matrix @ VERTEX_COORDS[vertex] + self.tail_offset

    @cached_property
    def triangles(self) -> tuple[dict, ...]:
        if self.parent is None:
            return ({v: self.project(VERTEX_COORDS[v]) for v in topo.face_vertices(self.faces[0])},)
        triangle = {v: self.project(self.place(v)) for v in topo.face_vertices(self.faces[-1])}
        return self.parent.triangles + (triangle,)

    @cached_property
    def corners(self) -> tuple[tuple, ...]:
        return tuple(tuple(triangle.values()) for triangle in self.triangles)

    @cached_property
    def hinges(self) -> tuple[tuple, ...]:
        hinges = []
        for before, face, nxt in zip(self.triangles, self.faces, self.faces[1:]):
            s, t = topo.shared_edge(face, nxt)
            hinges.append(((s, t), before[s], before[t]))
        return tuple(hinges)


@lru_cache(maxsize=None)
def flatten_chain(faces: tuple[int, ...]) -> UnfoldChain:
    """Flatten a simple dual path by composing hinge rotations in 3D.

    A path of three or more faces extends the (cached) flattening of
    its prefix by one hinge, so each hinge is computed once per process.
    """
    if len(faces) > 2:
        return _add_hinge(flatten_chain(faces[:-1]), faces[-1])
    first = faces[0]
    s0, t0, _ = topo.chart_corners(first, faces[1])
    origin = VERTEX_COORDS[s0]
    ex = VERTEX_COORDS[t0] - origin
    ex = ex / np.linalg.norm(ex)
    ey = _cross(FACE_NORMALS[first], ex)
    root = UnfoldChain(
        faces=(first,),
        origin=origin,
        ex=ex,
        ey=ey,
        tail_matrix=np.eye(3),
        tail_offset=np.zeros(3),
    )
    return _add_hinge(root, faces[1])


def _add_hinge(chain: UnfoldChain, cur: int) -> UnfoldChain:
    """Unfold face `cur` about its edge with the chain's last face."""
    n0 = FACE_NORMALS[chain.faces[0]]
    pa, pb = (chain.place(v) for v in topo.shared_edge(chain.faces[-1], cur))
    axis = pb - pa
    axis = axis / np.linalg.norm(axis)
    m = chain.tail_matrix @ FACE_NORMALS[cur]
    angle = math.atan2(float(axis @ _cross(m, n0)), float(m @ n0))
    rot = _rodrigues(axis, angle)
    return UnfoldChain(
        faces=chain.faces + (cur,),
        origin=chain.origin,
        ex=chain.ex,
        ey=chain.ey,
        tail_matrix=rot @ chain.tail_matrix,
        tail_offset=rot @ (chain.tail_offset - pa) + pa,
        parent=chain,
    )


def _point_in_triangle(p, tri, tol: float) -> bool:
    (ax, ay), (bx, by), (cx, cy) = tri
    d1 = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
    d2 = (cx - bx) * (p[1] - by) - (cy - by) * (p[0] - bx)
    d3 = (ax - cx) * (p[1] - cy) - (ay - cy) * (p[0] - cx)
    return min(d1, d2, d3) >= -tol


def _chord_in_chain(chain: UnfoldChain, a, b):
    """Crossing parameters of the chord with the hinge edges, or None.

    Contained means: every hinge is met within its segment, in path
    order.  Implemented independently of the landscape module's
    intersection routine.
    """
    dx, dy = b[0] - a[0], b[1] - a[1]
    chord_len = math.hypot(dx, dy)
    params = []
    prev_t = -EPS_IN
    for _edge, ps, pt in chain.hinges:
        ex, ey = pt[0] - ps[0], pt[1] - ps[1]
        if chord_len < 1e-12:
            ee = ex * ex + ey * ey
            s = ((a[0] - ps[0]) * ex + (a[1] - ps[1]) * ey) / ee
            s = min(1.0, max(0.0, s))
            if math.hypot(a[0] - ps[0] - s * ex, a[1] - ps[1] - s * ey) > EPS_IN:
                return None
            params.append((s, 0.0))
            continue
        denom = dx * ey - dy * ex
        fx, fy = ps[0] - a[0], ps[1] - a[1]
        if abs(denom) < 1e-14:
            elen = math.hypot(ex, ey)
            if abs(fx * ey - fy * ex) / elen > EPS_IN:
                return None
            ee = ex * ex + ey * ey
            sa = (-fx * ex - fy * ey) / ee
            sb = ((b[0] - ps[0]) * ex + (b[1] - ps[1]) * ey) / ee
            lo, hi = max(min(sa, sb), 0.0), min(max(sa, sb), 1.0)
            if lo > hi + EPS_IN:
                return None
            params.append(((lo + hi) / 2.0, 0.5))
            continue
        t = (fx * ey - fy * ex) / denom
        s = (fx * dy - fy * dx) / denom
        if not (-EPS_IN <= s <= 1.0 + EPS_IN) or not (-EPS_IN <= t <= 1.0 + EPS_IN):
            return None
        if t < prev_t - EPS_IN:
            return None
        prev_t = max(prev_t, t)
        params.append((s, t))
    return params


def _sampled_containment(chain: UnfoldChain, a, b) -> bool:
    # cross-check: interior chord samples must land in some triangle.  Each
    # sample tries the triangles in path order from the last one hit, and
    # all of them before it counts as a miss.
    samples = 16
    corners = chain.corners
    count = len(corners)
    last = 0
    for i in range(1, samples + 1):
        t = i / (samples + 1.0)
        p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        for k in range(last, last + count):
            if _point_in_triangle(p, corners[k % count], 1e-7):
                last = k % count
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PairChains:
    """Every flattened dual path between two faces, stacked for projection.

    `chains` are the `flatten_chain` results of `enumerate_dual_paths`
    in its (length, face sequence) order.
    Row i of `origin` (k x 3), `axes` (k x 3 x 2, columns ex and ey),
    `tail_matrix` (k x 3 x 3) and `tail_offset` (k x 3) is chain i's;
    the arrays are read-only.
    """

    chains: tuple[UnfoldChain, ...]
    origin: np.ndarray
    axes: np.ndarray
    tail_matrix: np.ndarray
    tail_offset: np.ndarray


@lru_cache(maxsize=None)
def _pair_chains(start: int, goal: int) -> PairChains:
    chains = tuple(flatten_chain(p) for p in topo.enumerate_dual_paths(start, goal))
    arrays = (
        np.array([c.origin for c in chains]),
        np.array([np.stack([c.ex, c.ey], axis=1) for c in chains]),
        np.array([c.tail_matrix for c in chains]),
        np.array([c.tail_offset for c in chains]),
    )
    for array in arrays:
        array.setflags(write=False)
    return PairChains(chains, *arrays)


def unfold_geodesic(a: SurfacePoint, b: SurfacePoint) -> float:
    """Exhaustive unfolding geodesic; the reference the formulas are held to.

    Same-face pairs reduce to the 3D chord (the face is flat).  Otherwise
    both endpoints are projected at once into every flattened simple
    dual path between the two faces; chains are then tried in (chord
    length, path index) order, so the first one that contains its chord
    is the shortest contained one.  Returns inf when no chain contains
    its chord.
    """
    ra, rb = a.canonical, b.canonical
    pa3, pb3 = embed_3d(ra), embed_3d(rb)
    if ra.home == rb.home:
        return float(np.linalg.norm(pa3 - pb3))
    pairs = _pair_chains(ra.home, rb.home)
    pb3_tail = pairs.tail_matrix @ pb3 + pairs.tail_offset
    starts = ((pa3 - pairs.origin)[:, None, :] @ pairs.axes)[:, 0, :].tolist()
    ends = ((pb3_tail - pairs.origin)[:, None, :] @ pairs.axes)[:, 0, :].tolist()
    order = sorted(
        (math.hypot(bx - ax, by - ay), i)
        for i, ((ax, ay), (bx, by)) in enumerate(zip(starts, ends))
    )
    for length, i in order:
        chain, pa, pb = pairs.chains[i], tuple(starts[i]), tuple(ends[i])
        if _chord_in_chain(chain, pa, pb) is None:
            continue
        if not _sampled_containment(chain, pa, pb):
            raise AssertionError(f"sampled containment check failed on {chain.faces}")
        return length
    return math.inf


# ---------------------------------------------------------------------------
# lattice-graph upper bound


#: Rows a mesh-bound step stacks at most.  A row's temporaries hold about
#: 9 n^2 floats, so a step stays bounded however many pairs share a face pair.
_MESH_ROWS = 32


@dataclass(frozen=True)
class MeshGraph:
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
        pa, pb, pc = (VERTEX_COORDS[v] for v in corners)
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


def _mesh_rows(
    mesh: MeshGraph, n: int, homes: tuple[int, int], pa3: np.ndarray, pb3: np.ndarray
) -> np.ndarray:
    """Lattice path values of rows that share a face pair, without the direct chord."""
    home_a, home_b = homes
    src_w = np.linalg.norm(mesh.face_points[home_a] - pa3[:, None, :], axis=2)
    legs = mesh.closure[mesh.skeleton[home_a]][:, mesh.skeleton[home_b]]
    width = int(legs.max()) + 1
    rows = np.arange(3 * n)[:, None] * width
    dist = _replay(src_w, legs + rows, width, 1.0 / n)
    dst_w = np.linalg.norm(mesh.face_points[home_b] - pb3[:, None, :], axis=2)
    return (dist + dst_w).min(axis=1)


def mesh_upper_bounds(
    pairs: Sequence[tuple[SurfacePoint, SurfacePoint]], subdivisions: int
) -> list[float]:
    """`mesh_upper_bound` of each pair, in order.

    Pairs with the same two home faces go through the lattice together,
    up to `_MESH_ROWS` at a time; a row's value does not depend on the
    rows it goes with.
    """
    if subdivisions < 1:
        raise ValueError("subdivisions must be at least 1")
    mesh = _mesh_graph(subdivisions)
    ends, groups = [], {}
    for i, (a, b) in enumerate(pairs):
        ra, rb = a.canonical, b.canonical
        ends.append((embed_3d(ra), embed_3d(rb)))
        groups.setdefault((ra.home, rb.home), []).append(i)
    bounds = [math.inf] * len(ends)
    for homes, rows in groups.items():
        for lo in range(0, len(rows), _MESH_ROWS):
            block = rows[lo : lo + _MESH_ROWS]
            pa3 = np.array([ends[i][0] for i in block])
            pb3 = np.array([ends[i][1] for i in block])
            for i, value in zip(block, _mesh_rows(mesh, subdivisions, homes, pa3, pb3).tolist()):
                if homes[0] == homes[1]:
                    value = min(float(np.linalg.norm(ends[i][0] - ends[i][1])), value)
                bounds[i] = value
    return bounds


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
    return mesh_upper_bounds([(a, b)], subdivisions)[0]


# ---------------------------------------------------------------------------
# per-pair comparison record


@dataclass(frozen=True)
class CompareReport:
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
        flags = [self.distance_ok, self.chord_ok]
        if self.mesh_ok is not None:
            flags.append(self.mesh_ok)
        return all(flags)

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

    subdivisions = 0 skips the mesh bound (it is by far the slowest
    reference and one-sided anyway); otherwise `mesh_upper_bounds` takes
    all the pairs at once.
    """
    meshes = mesh_upper_bounds(pairs, subdivisions) if subdivisions else [None] * len(pairs)
    reports = []
    for (a, b), mesh in zip(pairs, meshes):
        result = surface_distance(a, b)
        oracle_value = unfold_geodesic(a, b)
        chord = float(np.linalg.norm(embed_3d(a.canonical) - embed_3d(b.canonical)))
        reports.append(CompareReport(
            distance=result.distance,
            oracle=oracle_value,
            chord=chord,
            mesh=mesh,
            argmin=result.argmin,
            fallback=result.fallback,
            distance_ok=abs(result.distance - oracle_value) <= tolerance,
            chord_ok=chord <= result.distance + 1e-12,
            mesh_ok=None if mesh is None else result.distance <= mesh + 1e-12,
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
