"""Exact geodesic distances on the surface of the unit regular octahedron.

The distance between any two surface points is the minimum of at most
six closed-form trail lengths, picked by how the two home faces relate
(adjacent, sharing only a vertex, or opposite).  The package ships the
coordinate charts, the nine valid landscapes with their formulas and
planar layouts, an independent brute-force unfolding oracle used to
verify every formula, and a batch CLI.
"""

from .topology import (
    FACE_INDICES,
    VERTICES,
    Frame,
    Relation,
    canonical_frame,
    enumerate_dual_paths,
    opposite,
    relation,
)
from .coords import (
    EPS_IN,
    InvalidRepresentation,
    NotOnSharedEdge,
    OrientedPoint,
    Representation,
    SurfacePoint,
    canonicalize,
    flip_home_face,
    rotate_once,
    sample_uniform,
    surface_point,
    vertex_representations,
)
from .landscape import (
    VALIDITY_WITNESSES,
    Crossing,
    DistanceResult,
    FrameMismatch,
    LandscapeInstance,
    TrailResult,
    WrongRelation,
    shortest_path,
    surface_distance,
    trail_crossings,
    trail_length,
)

__version__ = "0.1.0"

# the oracle needs numpy: load it on first use
_ORACLE_NAMES = ("compare", "embed_3d", "mesh_upper_bound", "unfold_geodesic")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES})

__all__ = [
    "EPS_IN",
    "FACE_INDICES",
    "VERTICES",
    "Crossing",
    "DistanceResult",
    "Frame",
    "FrameMismatch",
    "InvalidRepresentation",
    "LandscapeInstance",
    "NotOnSharedEdge",
    "OrientedPoint",
    "Relation",
    "Representation",
    "SurfacePoint",
    "TrailResult",
    "VALIDITY_WITNESSES",
    "WrongRelation",
    "canonical_frame",
    "canonicalize",
    "compare",
    "embed_3d",
    "enumerate_dual_paths",
    "flip_home_face",
    "mesh_upper_bound",
    "opposite",
    "relation",
    "rotate_once",
    "sample_uniform",
    "shortest_path",
    "surface_distance",
    "surface_point",
    "trail_crossings",
    "trail_length",
    "unfold_geodesic",
    "vertex_representations",
]
