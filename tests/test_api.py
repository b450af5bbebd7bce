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
    "rotate_shared_face",
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
