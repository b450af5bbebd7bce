"""Combinatorial model of the unit regular octahedron.

Faces carry the labels 1..8 and every vertex is identified with the
frozenset of the four face labels incident to it.  The labelling is the
one fixed net used throughout the package: opposite faces have labels
summing to 9, and each face stores its corner order counter-clockwise
as seen from outside the solid.  That corner order is the single
transcription everything else is derived from; adjacency recovered by
shared-vertex counting is only a consistency check (see tests).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

FACE_INDICES = tuple(range(1, 9))

VertexLabel = frozenset

_V146_7 = frozenset({1, 4, 6, 7})
_V1256 = frozenset({1, 2, 5, 6})
_V1234 = frozenset({1, 2, 3, 4})
_V2358 = frozenset({2, 3, 5, 8})
_V3478 = frozenset({3, 4, 7, 8})
_V5678 = frozenset({5, 6, 7, 8})

#: The six vertices; face n is incident to a vertex iff n is in its label.
VERTICES = (_V146_7, _V1256, _V1234, _V2358, _V3478, _V5678)

#: Corner order of every face, counter-clockwise viewed from outside.
FACE_CORNERS_CCW: dict[int, tuple[VertexLabel, VertexLabel, VertexLabel]] = {
    1: (_V146_7, _V1234, _V1256),
    2: (_V1234, _V2358, _V1256),
    3: (_V3478, _V2358, _V1234),
    4: (_V3478, _V1234, _V146_7),
    5: (_V5678, _V1256, _V2358),
    6: (_V146_7, _V1256, _V5678),
    7: (_V146_7, _V5678, _V3478),
    8: (_V5678, _V2358, _V3478),
}


def opposite(face: int) -> int:
    """Opposite face; labels of opposite faces sum to 9."""
    return 9 - face


def face_vertices(face: int) -> tuple[VertexLabel, VertexLabel, VertexLabel]:
    return FACE_CORNERS_CCW[face]


def _edge_neighbor(face: int, a: VertexLabel, b: VertexLabel) -> int:
    # the edge between vertices a and b lies in exactly two faces
    both = (a & b) - {face}
    if len(both) != 1:
        raise ValueError(f"vertices {sorted(a)} and {sorted(b)} do not span an edge of F{face}")
    return next(iter(both))


def _neighbor_cycle(face: int) -> tuple[int, int, int]:
    c = FACE_CORNERS_CCW[face]
    return tuple(_edge_neighbor(face, c[i], c[(i + 1) % 3]) for i in range(3))


#: Neighbor faces in counter-clockwise order, aligned with FACE_CORNERS_CCW:
#: entry i is the face across the edge from corner i to corner i+1.
NEIGHBORS_CCW: dict[int, tuple[int, int, int]] = {f: _neighbor_cycle(f) for f in FACE_INDICES}


def neighbors(face: int) -> tuple[int, int, int]:
    return NEIGHBORS_CCW[face]


class Relation(Enum):
    """How two faces sit relative to each other."""

    SAME = "same"
    ADJACENT = "adjacent"
    NEITHER = "neither_adjacent_nor_opposite"
    OPPOSITE = "opposite"


def relation(a: int, b: int) -> Relation:
    if a == b:
        return Relation.SAME
    if b == opposite(a):
        return Relation.OPPOSITE
    if b in NEIGHBORS_CCW[a]:
        return Relation.ADJACENT
    return Relation.NEITHER


def shared_edge(a: int, b: int) -> tuple[VertexLabel, VertexLabel]:
    """Endpoints of the edge between adjacent faces a and b, in a's ccw order."""
    s, t, _ = chart_corners(a, b)
    return s, t


def chart_corners(home: int, shared: int) -> tuple[VertexLabel, VertexLabel, VertexLabel]:
    """Corner labels (S, T, U) of the coordinate chart for (home, shared).

    S is the corner a chart maps to (0, 0), T the corner mapped to (1, 0)
    and U the apex at (1/2, sqrt(3)/2).  The edge S-T is the one shared
    with `shared`, traversed in home's counter-clockwise corner order so
    the chart is orientation preserving (exterior side up).
    """
    cycle = NEIGHBORS_CCW[home]
    corners = FACE_CORNERS_CCW[home]
    try:
        i = cycle.index(shared)
    except ValueError:
        raise ValueError(f"F{shared} is not adjacent to F{home}") from None
    return corners[i], corners[(i + 1) % 3], corners[(i + 2) % 3]


def next_shared_ccw(home: int, shared: int) -> int:
    """The shared face produced by one shared-face rotation of the chart."""
    cycle = NEIGHBORS_CCW[home]
    return cycle[(cycle.index(shared) + 1) % 3]


class Frame(NamedTuple):
    """Assignment of the generic roles 1..8 to concrete faces.

    A frame is valid when the faces of roles r and 9-r are opposite and
    the role-2, role-4, role-6 faces occur around the role-1 face in the
    same cyclic order (seen from outside) as faces 2, 4, 6 occur around
    face 1.  Exactly 24 assignments qualify; they are the rotations of
    the labelled solid.
    """

    faces: tuple[int, int, int, int, int, int, int, int]

    def face(self, role: int) -> int:
        return self.faces[role - 1]

    @classmethod
    def from_anchor(cls, n1: int, n2: int) -> "Frame":
        """The unique valid frame with role 1 on n1 and role 2 on n2."""
        cycle = NEIGHBORS_CCW[n1]
        if n2 not in cycle:
            raise ValueError(f"F{n2} is not adjacent to F{n1}")
        i = cycle.index(n2)
        r6 = cycle[(i + 1) % 3]
        r4 = cycle[(i + 2) % 3]
        return cls((n1, n2, opposite(r6), r4, opposite(r4), r6, opposite(n2), opposite(n1)))


def turns(home: int, shared: int, target: int) -> int:
    """Shared-face rotations that take the chart (home, shared) to (home, target)."""
    cycle = NEIGHBORS_CCW[home]
    return (cycle.index(target) - cycle.index(shared)) % 3


def canonical_frame(a: int, b: int) -> Frame:
    """Frame placing face a in role 1 and face b in its formula role.

    Depending on relation(a, b) the frame puts b in role 2 (adjacent),
    role 5 (neither adjacent nor opposite) or role 8 (opposite); for
    opposite pairs, where three valid frames exist, the lexicographically
    smallest role tuple is chosen.  Those three share role 1 and differ
    first at role 2, so it is the one anchored on a's smallest neighbor:
    the frames anchored on a's neighbors are tried in ascending order,
    and the first that puts b in role 2, 5 or 8 is returned.
    """
    for n2 in sorted(NEIGHBORS_CCW[a]):
        frame = Frame.from_anchor(a, n2)
        if b in (frame.face(2), frame.face(5), frame.face(8)):
            return frame
    raise ValueError(f"frame anchor faces must be two different faces, got F{a} and F{b}")


def enumerate_dual_paths(start: int, goal: int) -> list[tuple[int, ...]]:
    """All simple paths from start to goal in the face-adjacency graph.

    Paths have between 2 and 8 faces and are returned sorted by
    (length, face sequence).  Paths of 2/3/4 faces are the dual paths of
    the landscapes between adjacent / neither / opposite face pairs.
    """
    paths: list[tuple[int, ...]] = []

    def extend(path: tuple[int, ...]) -> None:
        for nxt in sorted(NEIGHBORS_CCW[path[-1]]):
            if nxt in path:
                continue
            cand = path + (nxt,)
            if nxt == goal:
                paths.append(cand)
            else:
                extend(cand)

    if start != goal:
        extend((start,))
    paths.sort(key=lambda p: (len(p), p))
    return paths
