import json
import math

import pytest

from octadist.coords import InvalidRepresentation, Representation, canonicalize
from octadist.landscape import surface_distance
from octadist.serialize import (
    BadRecord,
    distance_result_to_obj,
    dumps,
    error_obj,
    format_float,
    load_record,
    parse_point,
    point_to_obj,
    trail_result_to_obj,
)


@pytest.mark.parametrize(
    "value",
    [0.1, 1 / 3, 1e-17, 12345678.9012345678, -0.0, 0.4, math.sqrt(3.0), 2.5e300],
)
def test_float_format_round_trips(value):
    assert float(format_float(value)) == value


def test_float_format_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(math.inf)
    with pytest.raises(ValueError):
        format_float(math.nan)


def test_dumps_matches_json_semantics():
    obj = {
        "id": "x",
        "n": 3,
        "f": 0.30000000000000004,
        "flag": True,
        "off": False,
        "none": None,
        "list": [1, 2.5, "s", {"k": -0.0}],
    }
    assert json.loads(dumps(obj)) == obj


def test_dumps_is_single_line_and_ordered():
    text = dumps({"b": 1, "a": 2})
    assert "\n" not in text
    assert text.index('"b"') < text.index('"a"')  # insertion order kept


def test_point_literal_round_trip():
    rep = Representation(3, 4, 0.4, 0.3)
    obj = point_to_obj(rep)
    assert obj == {"home": "F3", "shared": "F4", "x": 0.4, "y": 0.3}
    assert parse_point(json.loads(dumps(obj))) == rep


def test_parse_point_accepts_bare_integers():
    assert parse_point({"home": 3, "shared": 4, "x": 0.4, "y": 0.3}) == Representation(
        3, 4, 0.4, 0.3
    )


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {},
        {"home": "F0", "shared": "F2", "x": 0.1, "y": 0.0},
        {"home": "F1", "shared": "F2", "x": "wide", "y": 0.0},
        {"home": "F1", "shared": "F2", "x": True, "y": 0.0},
        {"home": "F1", "shared": "F2", "x": 0.1},
        {"home": "F1", "shared": "F2", "x": 10**400, "y": 0.0},
        {"home": "F\u00b2", "shared": "F2", "x": 0.1, "y": 0.0},
        {"home": "F\u0663", "shared": "F2", "x": 0.1, "y": 0.0},
        # more digits than int() converts
        {"home": "F" + "1" * 5000, "shared": "F2", "x": 0.1, "y": 0.0},
        {"home": "F1", "shared": "F" + "2" * 5000, "x": 0.1, "y": 0.0},
    ],
)
def test_parse_point_rejects_malformed(obj):
    with pytest.raises(BadRecord):
        parse_point(obj)


def test_parse_point_propagates_geometry_errors():
    with pytest.raises(InvalidRepresentation):
        parse_point({"home": "F1", "shared": "F2", "x": 2.0, "y": 0.0})
    with pytest.raises(InvalidRepresentation):
        parse_point({"home": "F1", "shared": "F8", "x": 0.5, "y": 0.1})


def test_load_record_shapes():
    with pytest.raises(BadRecord):
        load_record("this is not json")
    with pytest.raises(BadRecord):
        load_record("[1, 2]")
    with pytest.raises(BadRecord):
        load_record('{"id": 7, "p1": {}, "p2": {}}')
    with pytest.raises(BadRecord):  # more digits than int() converts
        load_record('{"p1": {"x": 1' + "0" * 5000 + "}}")
    assert load_record('{"id": "a"}')["id"] == "a"


def test_load_record_then_parse_point_happy_path():
    line = (
        '{"p1":{"home":"F1","shared":"F2","x":0.5,"y":0.2},'
        '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2},"id":"w"}'
    )
    record = load_record(line)
    p1, p2 = parse_point(record.get("p1")), parse_point(record.get("p2"))
    assert p1 == Representation(1, 2, 0.5, 0.2)
    assert p2 == Representation(2, 1, 0.5, 0.2)
    assert record["id"] == "w"


def test_error_obj_classification():
    assert error_obj(BadRecord("x"), "q1") == {"id": "q1", "error": "BadRecord", "detail": "x"}
    obj = error_obj(InvalidRepresentation("y"))
    assert obj["error"] == "InvalidRepresentation"
    assert "id" not in obj


def test_result_objects_shape():
    a = canonicalize(Representation(1, 2, 0.5, 0.2))
    b = canonicalize(Representation(2, 1, 0.5, 0.2))
    result = surface_distance(a, b)
    dist_obj = distance_result_to_obj(result, "w")
    assert list(dist_obj) == ["id", "distance", "argmin", "fallback"]
    assert dist_obj["argmin"] == ["L1"]
    trail_obj = trail_result_to_obj(result, "w")
    assert trail_obj["length"] == dist_obj["distance"]
    assert trail_obj["landscape"] == "L1"
    assert trail_obj["faces"] == ["F1", "F2"]
    assert trail_obj["contained"] is True
    assert len(trail_obj["crossings"]) == 1
    crossing = trail_obj["crossings"][0]
    assert crossing["edge"] == [[1, 2, 3, 4], [1, 2, 5, 6]]
    assert crossing["t"] == pytest.approx(0.5, abs=1e-12)
    # a full line survives a JSON round trip bit-for-bit on the floats
    assert json.loads(dumps(trail_obj))["length"] == trail_obj["length"]
