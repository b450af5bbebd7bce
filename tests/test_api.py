import pytest

import octadist

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert octadist.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(octadist, name) is not None, name


ORACLE_NAMES = ["compare", "embed_3d", "mesh_upper_bound", "unfold_geodesic"]


def test_oracle_names_resolve_lazily_to_the_oracle():
    assert set(octadist.__all__) <= set(dir(octadist))
    for name in ORACLE_NAMES:
        assert getattr(octadist, name) is getattr(octadist.oracle, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from octadist import *", namespace)
    assert [name for name in PUBLIC_NAMES if name in namespace] == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 35


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        octadist.no_such_name
