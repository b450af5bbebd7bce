"""Wire formats shared by the library and the CLI.

Points travel as {"home": "F3", "shared": "F4", "x": 0.4, "y": 0.3};
query records as {"p1": <point>, "p2": <point>, "id": <optional str>}.
`home` and `shared` are "F1".."F8" or an integer 1..8; anything else
("F01" included) is a BadRecord.
All numbers are emitted with 17 significant digits so that doubles
round-trip exactly and output is byte-deterministic.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .coords import Representation
from .landscape import DistanceResult, TrailResult


class BadRecord(ValueError):
    """A query record is structurally malformed."""


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError("non-finite numbers have no wire representation")
    return format(value, ".17g")


#: What json.dumps(s, ensure_ascii=False) calls, without a new encoder per call.
_encode_str = json.encoder.encode_basestring
#: What json.dumps(key) calls: keys are written ASCII-escaped.
_encode_ascii = json.encoder.encode_basestring_ascii


def dumps(obj: Any) -> str:
    """Deterministic single-line JSON with 17-significant-digit floats.

    Only the exact JSON types are written: str, float, None, True, False,
    int, a dict with str keys and a list.  Any other type, a subclass of
    one of these included, raises TypeError.
    """
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is float:
        return format_float(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if kind is int:
        return repr(obj)
    if kind is dict:
        if any(type(key) is not str for key in obj):
            raise TypeError("keys must be str")
        return "{" + ", ".join([_encode_ascii(k) + ": " + dumps(v) for k, v in obj.items()]) + "}"
    if kind is list:
        return "[" + ", ".join([dumps(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {kind.__name__}")


#: Face labels as the wire spells them.
_FACE_LABELS = {f"F{face}": face for face in range(1, 9)}


def _parse_face(value: Any, field: str) -> int:
    if type(value) is str:
        face = _FACE_LABELS.get(value)
        if face is not None:
            return face
    elif type(value) is int and 1 <= value <= 8:
        return value
    raise BadRecord(f"{field} must be a face label 'F1'..'F8'")


def parse_point(obj: Any) -> Representation:
    """Parse a point literal into a validated representation."""
    if not isinstance(obj, dict):
        raise BadRecord("point literal must be an object")
    home = _parse_face(obj.get("home"), "home")
    shared = _parse_face(obj.get("shared"), "shared")
    x = obj.get("x")
    y = obj.get("y")
    if type(x) not in (int, float):
        raise BadRecord("x must be a number")
    if type(y) not in (int, float):
        raise BadRecord("y must be a number")
    try:
        x, y = float(x), float(y)
    except OverflowError:
        raise BadRecord("x and y must be within the range of a double") from None
    return Representation(home, shared, x, y)


def load_record(line: str) -> dict:
    """Parse one query line into a record object, validating only its shape."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise BadRecord(f"invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise BadRecord("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer literal longer than int() converts
        raise BadRecord(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise BadRecord("record must be a JSON object")
    record_id = obj.get("id")
    if record_id is not None:
        if not isinstance(record_id, str):
            raise BadRecord("id must be a string")
        try:
            record_id.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate escape such as "\ud800"
            raise BadRecord("id must be valid Unicode text") from None
    return obj


def error_obj(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "detail": str(exc)}


def _crossings_obj(trail: TrailResult) -> list:
    return [
        {
            "edge": [sorted(c.edge[0]), sorted(c.edge[1])],
            "point": [c.point.x, c.point.y],
            "t": c.parameter,
        }
        for c in trail.crossings
    ]


#: The nine landscape ids as `dumps` writes their names, "L1" to "L9".
_LANDSCAPE_NAMES = {i: f'"L{i}"' for i in range(1, 10)}


def distance_line(result: tuple) -> str:
    """`dumps`'s text of a DistanceResult, read by position so `_distance`'s tuple serves too."""
    return (
        '{"distance": ' + format_float(result[0])
        + ', "argmin": [' + ", ".join([_LANDSCAPE_NAMES[i] for i in result[1]])
        + ('], "fallback": true}' if result[2] else '], "fallback": false}')
    )


def trail_result_to_obj(result: DistanceResult) -> dict:
    """Path output: the minimizing trail, reporting the distance as its length."""
    trail = result.trail
    landscape = trail.landscape
    return {
        "length": result.distance,
        "landscape": None if landscape is None else landscape.name,
        "faces": None if landscape is None else [f"F{f}" for f in landscape.faces],
        "crossings": _crossings_obj(trail),
        "contained": trail.contained,
        "fallback": result.fallback,
    }
