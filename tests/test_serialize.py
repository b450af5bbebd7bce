import enum
import json
import math

import pytest

from octadist.coords import InvalidRepresentation, Representation, canonicalize
from octadist.landscape import DistanceResult, surface_distance
from octadist.serialize import (
    BadRecord,
    _parse_face,
    distance_line,
    dumps,
    error_obj,
    format_float,
    load_record,
    parse_point,
    trail_result_to_obj,
)

from conftest import point_to_obj
from test_golden import golden_pairs


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
    obj = error_obj(BadRecord("x"))
    assert obj == {"error": "BadRecord", "detail": "x"}
    assert list(obj) == ["error", "detail"]
    assert error_obj(InvalidRepresentation("y"))["error"] == "InvalidRepresentation"


def test_result_objects_shape():
    a = canonicalize(Representation(1, 2, 0.5, 0.2))
    b = canonicalize(Representation(2, 1, 0.5, 0.2))
    result = surface_distance(a, b)
    line = distance_line(result)
    assert line == '{"distance": 0.40000000000000002, "argmin": ["L1"], "fallback": false}'
    dist_obj = json.loads(line)
    assert list(dist_obj) == ["distance", "argmin", "fallback"]
    assert dist_obj["argmin"] == ["L1"]
    trail_obj = trail_result_to_obj(result)
    assert list(trail_obj) == ["length", "landscape", "faces", "crossings", "contained", "fallback"]
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


def test_distance_line_is_dumps_of_the_distance_object():
    results = [surface_distance(canonicalize(a), canonicalize(b)) for a, b in golden_pairs()]
    # the corpus holds a tie, same-face and coincident pairs; add a fallback
    assert any(len(r.argmin) > 1 for r in results)
    assert any(r.argmin == () for r in results)
    results += [DistanceResult(1.25, (4,), True), DistanceResult(0.0, (), True)]
    for r in results:
        obj = {"distance": r.distance, "argmin": [f"L{i}" for i in r.argmin], "fallback": r.fallback}
        assert distance_line(r) == dumps(obj)


def _reference_dumps(obj):
    """dumps as it was before its fast paths: one json.dumps per string."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("keys must be str")
        items = ", ".join(f"{json.dumps(k)}: {_reference_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_reference_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


WIRE_IDS = [
    "",
    "plain",
    'quote " inside',
    "back\\slash",
    "control \x00\x01\x1f\t\n\r\x7f",
    "separators \u2028 \u2029",
    "non-ASCII é ß 漢字",
    "astral \U0001f600 \U00010348",
]


@pytest.mark.parametrize("record_id", WIRE_IDS)
def test_dumps_matches_reference_coding_for_ids(record_id):
    for obj in (
        record_id,
        {"id": record_id, "distance": 0.1, "argmin": ["L4", "L7"], "fallback": False},
        {record_id: [record_id]},
        _Str(record_id),
    ):
        assert dumps(obj) == _reference_dumps(obj)
        json.loads(dumps(obj))


@pytest.mark.parametrize(
    "obj",
    [
        True,
        False,
        None,
        0,
        -(10**30),
        _Int(7),
        _Level.LOW,
        -0.0,
        0.30000000000000004,
        _Float(0.1),
        _Float(-2.5e300),
        [[], [[1, 2.5]], [True, None, [_Float(1.0), _Int(-3)]]],
        (1, (2.0, "t")),
        {"edge": [[1, 2, 3, 4], [1, 2, 5, 6]], "point": [0.5, -0.0], "t": 1.0},
        {_Str("str-subclass key"): _Level.LOW, "level": [_Level.LOW, _Int(-4)]},
        [{"nested": {"deeper": [{"k": "v"}]}}],
    ],
)
def test_dumps_matches_reference_coding_for_values(obj):
    text = dumps(obj)
    assert text == _reference_dumps(obj)
    json.loads(text)


def test_dumps_still_rejects_what_it_rejected():
    for obj in (math.nan, _Float(math.inf), {"x": [math.inf]}):
        with pytest.raises(ValueError):
            dumps(obj)
    for obj in ({1, 2}, b"bytes", object()):
        with pytest.raises(TypeError):
            dumps(obj)
    # JSON keys are strings: any other key is refused, not written bare
    for key in (1, 2.5, True, None, _Level.LOW, ("t",)):
        with pytest.raises(TypeError, match="keys must be str"):
            dumps({"ok": 1, key: "value"})


def _reference_parse_face(value, field):
    """_parse_face as it was before its lookup table."""
    if isinstance(value, str) and value.startswith("F"):
        value = value[1:]
        if value.isascii() and value.isdigit():
            try:
                value = int(value)
            except ValueError:
                pass
    if isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= 8:
        return value
    raise BadRecord(f"{field} must be a face label 'F1'..'F8'")


@pytest.mark.parametrize(
    "value",
    ["F1", "F8", "F01", "F0", "F9", "f1", " F1", "F1 ", "F²", "F", "", 1, 8, 9, True, 1.5,
     None, ["F1"], {"F1": 1}, _Str("F3")],
)
def test_parse_face_matches_reference(value):
    try:
        want = _reference_parse_face(value, "home")
    except BadRecord as exc:
        with pytest.raises(BadRecord) as got:
            _parse_face(value, "home")
        assert str(got.value) == str(exc)
    else:
        got = _parse_face(value, "home")
        assert got == want and type(got) is int
