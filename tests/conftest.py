import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from octadist import oracle, topology as topo
from octadist.coords import (
    EPS_IN,
    Representation,
    canonicalize,
    flip_home_face,
    rotate_once,
    turn,
    vertex_representations,
)

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SQRT3 = math.sqrt(3.0)

#: The 24 charts (home, shared): each face with each of its three neighbors.
CHARTS = [(home, shared) for home in topo.FACE_INDICES for shared in topo.neighbors(home)]
#: The 24 frames, one anchored at each chart, in the order of CHARTS.
FRAMES = [topo.Frame.from_anchor(*chart) for chart in CHARTS]


def run_cli(args, stdin="", env=None):
    """Run `python -m octadist.cli` with `args`; text in and out when `stdin` is text, else bytes."""
    return subprocess.run(
        [sys.executable, "-m", "octadist.cli", *args],
        input=stdin,
        capture_output=True,
        text=isinstance(stdin, str),
        env=env,
        timeout=60,
    )


def triangle_point(u: float, v: float, margin: float = 1e-6) -> tuple[float, float]:
    """Map (u, v) in [0, 1]^2 to a point of the base triangle.

    `margin` keeps a barycentric distance from the boundary so tests that
    need strictly interior points never trip the edge snapping.
    """
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    span = 1.0 - 3.0 * margin
    ls = margin + span * (1.0 - u - v)
    lt = margin + span * u
    lu = margin + span * v
    x = lt + 0.5 * lu
    y = (SQRT3 / 2.0) * lu
    return x, y


def interior_rep(home: int, shared: int, u: float, v: float) -> Representation:
    x, y = triangle_point(u, v)
    return Representation(home, shared, x, y)


def point_to_obj(rep) -> dict:
    """The wire literal of a representation or any (home, shared, x, y) tuple, as records spell it."""
    home, shared, x, y = rep
    return {"home": f"F{home}", "shared": f"F{shared}", "x": x, "y": y}


def in_every_chart(home, shared, x, y):
    """(home, shared, x, y) written in each of home's three charts, unchecked."""
    quadruples = []
    for _ in range(3):
        quadruples.append((home, shared, x, y))
        shared = topo.next_shared_ccw(home, shared)
        x, y = turn(x, y, 1)
    return quadruples


def every_chart(rep: Representation) -> list[Representation]:
    """rep in every chart of its point, each start below turned 0, 1 and 2 times by rotate_once.

    The starts are rep; for a point within EPS_IN of its shared edge, its
    flip; and for a vertex at rep's S corner, its four vertex_representations
    and then their flips.  So a face point has 3 forms, an edge point 6 and
    a vertex 30: its 12 charts, most of them more than once, with the
    rounding of different moves.
    """
    starts = [rep]
    if abs(rep.y) <= EPS_IN:
        starts.append(flip_home_face(rep))
    if rep.x == 0.0 and rep.y == 0.0:
        vertex = vertex_representations(topo.chart_corners(rep.home, rep.shared)[0])
        starts += vertex + [flip_home_face(r) for r in vertex]
    charts = []
    for start in starts:
        once = rotate_once(start)
        charts += [start, once, rotate_once(once)]
    return charts


def edge_point(chart, t, flip, times):
    """(t, 0) on the base of `chart`, written from either home face, in its chart `times` turns on."""
    home, shared = chart
    if flip:
        home, shared, t = shared, home, 1.0 - t
    return in_every_chart(home, shared, t, 0.0)[times]


def near_edge_point(chart, t, k, times):
    """(t, k x EPS_IN) near the base of `chart`, in its chart `times` turns on."""
    return in_every_chart(*chart, t, k * EPS_IN)[times]


def near_corner_point(chart, d, e, times):
    """d, e x EPS_IN inside (outside if negative) the base and left edge of `chart`, `times` turns on."""
    x, y = (2.0 * e + d) * EPS_IN / SQRT3, d * EPS_IN
    return in_every_chart(*chart, x, y)[times]


def rotate_to_shared(r: Representation, shared: int) -> Representation:
    """Rotate r's chart with rotate_once (0 to 2 times) until its shared face is `shared`."""
    out = r
    for _ in range(3):
        if out.shared == shared:
            return out
        out = rotate_once(out)
    raise ValueError(f"F{shared} is not adjacent to F{r.home}")


def vertex_charts(vertices=topo.VERTICES):
    """Every chart of the vertices: each of a vertex's four faces in that face's three charts."""
    corner_xy = ((0.0, 0.0), (1.0, 0.0), (0.5, SQRT3 / 2.0))
    return [
        Representation(home, shared, *corner_xy[topo.chart_corners(home, shared).index(v)])
        for v in vertices
        for home in sorted(v)
        for shared in topo.neighbors(home)
    ]


def boundary_points():
    """Every vertex, two points on every edge, and two interior points."""
    special = [canonicalize(vertex_representations(v)[0]) for v in topo.VERTICES]
    special += [canonicalize(Representation(f, g, t, 0.0)) for f, g in CHARTS if f < g for t in (0.25, 0.5)]
    special.append(canonicalize(Representation(1, 2, 0.3, 0.25)))
    special.append(canonicalize(Representation(5, 2, 0.3, 0.25)))
    return special


def best_chord_loop(a, b, min_faces=2, max_faces=8):
    """Shortest contained chord over the dual paths of min_faces..max_faces faces.

    One pass over every path, projecting through its stack row one point
    at a time, with a strict <, so the first of equal chords wins.
    Returns (length, (path, pa, pb)) for the winner, or (inf, None) when
    no chain contains its chord.
    """
    ra, rb = a.canonical, b.canonical
    pa3, pb3 = oracle.embed_3d(ra), oracle.embed_3d(rb)
    best, best_pair = math.inf, None
    for path in topo.enumerate_dual_paths(ra.home, rb.home):
        if not min_faces <= len(path) <= max_faces:
            continue
        stack, i = chain_row(path)
        origin, (ex, ey) = stack.origin[i], stack.axes[i].T

        def project(point3):
            rel = point3 - origin
            return float(rel @ ex), float(rel @ ey)

        pa = project(pa3)
        pb = project(stack.tail_matrix[i] @ pb3 + stack.tail_offset[i])
        if oracle._chord_in_chain(real_hinges(path), pa, pb) is None:
            continue
        length = math.hypot(pb[0] - pa[0], pb[1] - pa[1])
        if length < best:
            best, best_pair = length, (path, pa, pb)
    return best, best_pair


def chain_row(path):
    """The stack of a dual path's face pair, and the path's row in it."""
    stack = oracle._unfoldings()[path[0], path[-1]]
    return stack, stack.paths.index(path)


def real_hinges(path):
    """The path's hinges, without padding, as the search passes them to `_chord_in_chain`."""
    stack, i = chain_row(path)
    return stack.hinges[i, : len(path) - 1].tolist()


def sampled_containment(path, a, b) -> bool:
    """The oracle's sampled containment check of one chord in one path's chain."""
    stack, i = chain_row(path)
    return bool(oracle._samples_contained(stack.corners[i : i + 1], np.array([a]), np.array([b]))[0])


units = st.floats(min_value=0.0, max_value=1.0)
turns = st.integers(min_value=0, max_value=2)
charts = st.sampled_from(CHARTS)
interior_reps = st.builds(lambda chart, u, v: interior_rep(*chart, u, v), charts, units, units)


# (home, shared, x, y) of every chart kind: interior, on an edge in each of
# the three charts of either home face, a vertex in every chart, within
# EPS_IN of an edge on either side, which snaps onto it, and 1.001 to 10 x
# EPS_IN inside an edge, which stays where it is
chart_kind_points = st.one_of(
    interior_reps.map(tuple),
    st.builds(edge_point, charts, units, st.booleans(), turns),
    st.sampled_from([tuple(r) for r in vertex_charts()]),
    st.builds(
        near_edge_point,
        charts,
        st.floats(min_value=0.001, max_value=0.999),
        st.one_of(st.floats(min_value=-0.99, max_value=0.99), st.floats(min_value=1.001, max_value=10.0)),
        turns,
    ),
)

# -0.99 to 3 x EPS_IN from each edge at a corner, in any chart: points
# that snap onto the vertex, onto one edge, or stay where they are.  A
# point up to EPS_IN outside one edge and 1 to 1.5 x EPS_IN from the other
# comes within EPS_IN of the other once it is dropped onto the first
corner_factors = st.sampled_from((-0.99, -0.75, -0.5, -0.25, 0.0, 0.5, 0.99, 1.01, 1.1, 1.2, 1.3, 1.4, 1.49, 2.0, 3.0))
near_corner_points = st.builds(near_corner_point, charts, corner_factors, corner_factors, turns)


@st.composite
def near_edge_pairs(draw):
    """An edge point and a point 0.5 to 10 x EPS_IN from the same edge, each in any chart.

    The second point lies inside either face of the edge, or up to
    0.99 x EPS_IN outside it, where it snaps onto the edge.
    """
    chart = draw(charts)
    p = edge_point(chart, draw(units), draw(st.booleans()), draw(turns))
    if draw(st.booleans()):
        chart = chart[::-1]
    k = draw(st.one_of(st.floats(min_value=0.5, max_value=10.0), st.floats(min_value=-0.99, max_value=-0.5)))
    return p, near_edge_point(chart, draw(st.floats(min_value=0.001, max_value=0.999)), k, draw(turns))


@pytest.fixture(scope="session")
def witness_points():
    from octadist.landscape import VALIDITY_WITNESSES

    return {
        idx: (canonicalize(r1), canonicalize(r2))
        for idx, (r1, r2) in VALIDITY_WITNESSES.items()
    }
