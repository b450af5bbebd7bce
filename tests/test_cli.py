import io
import json
import math
import os
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octadist import cli, landscape
from octadist.coords import (
    EPS_IN,
    Representation,
    canonicalize,
    rotate_once,
    sample_uniform,
)
from octadist.oracle import unfold_geodesic
from octadist.serialize import (
    distance_line,
    dumps,
    error_obj,
    load_record,
    parse_point,
    trail_result_to_obj,
)

from conftest import (
    CHARTS,
    chart_kind_points,
    in_every_chart,
    interior_rep,
    near_edge_pairs,
    point_to_obj,
    run_cli,
    vertex_charts,
)

WITNESS_L1 = (
    '{"p1":{"home":"F1","shared":"F2","x":0.5,"y":0.2},'
    '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2}}'
)


def corpus_lines(seed=404, count=50):
    points = sample_uniform(seed, 2 * count)
    lines = []
    for i, (a, b) in enumerate(zip(points[0::2], points[1::2])):
        record = {
            "p1": point_to_obj(a.canonical),
            "p2": point_to_obj(b.canonical),
            "id": f"q{i}",
        }
        lines.append(dumps(record))
    return "\n".join(lines) + "\n"


def test_distance_golden_line():
    proc = run_cli(["distance"], WITNESS_L1)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout.strip())
    assert obj["argmin"] == ["L1"]
    assert obj["fallback"] is False
    assert abs(obj["distance"] - 0.4) < 1e-12


def test_empty_input_is_empty_output():
    proc = run_cli(["distance"], "")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_malformed_lines_are_isolated():
    lines = [
        WITNESS_L1,
        "not json at all",
        '{"p1":{"home":"F1","shared":"F2","x":2.0,"y":0.0},'
        '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2},"id":"bad"}',
        WITNESS_L1,
        # a coordinate beyond the range of a double
        '{"p1":{"home":"F1","shared":"F2","x":1' + "0" * 399 + ',"y":0.1},'
        '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2},"id":"huge"}',
        # nesting deeper than the JSON parser recurses
        "[" * 200000 + "]" * 200000,
        WITNESS_L1,
        # a coordinate and a face label with more digits than int() converts
        '{"p1":{"home":"F1","shared":"F2","x":1' + "0" * 5000 + ',"y":0.1},'
        '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2},"id":"long"}',
        '{"p1":{"home":"F' + "1" * 5000 + '","shared":"F2","x":0.5,"y":0.1},'
        '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2},"id":"label"}',
        WITNESS_L1,
    ]
    proc = run_cli(["distance"], "\n".join(lines) + "\n")
    assert proc.returncode == 2
    out = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(out) == 10
    for i in (0, 3, 6, 9):
        assert "distance" in out[i]
    assert out[1]["error"] == "BadRecord"
    assert out[2]["error"] == "InvalidRepresentation"
    assert out[2]["id"] == "bad"
    assert out[4]["error"] == "BadRecord"
    assert out[4]["id"] == "huge"
    assert out[5]["error"] == "BadRecord"
    # the record is not parsed, so its id is unknown
    assert out[7] == {"error": "BadRecord", "detail": out[7]["detail"]}
    assert out[8]["error"] == "BadRecord"
    assert out[8]["id"] == "label"


# an id made of a lone surrogate escape: valid JSON, but no UTF-8 text
SURROGATE_ID = (
    '{"id": "\\ud800", "p1": {"home": "F1", "shared": "F2", "x": 0.5, "y": 0.2},'
    ' "p2": {"home": "F2", "shared": "F1", "x": 0.5, "y": 0.2}}'
)


def test_lone_surrogate_id_is_isolated():
    proc = run_cli(["distance"], "\n".join([WITNESS_L1, SURROGATE_ID, WITNESS_L1]) + "\n")
    assert proc.returncode == 2, proc.stderr
    out = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(out) == 3
    assert "distance" in out[0] and "distance" in out[2]
    assert out[1] == {"error": "BadRecord", "detail": out[1]["detail"]}


@pytest.mark.parametrize("command", ["distance", "path"])
@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_stream_is_utf8_whatever_the_locale(command, encoding):
    # a good line, an id with an undecodable byte, and a non-ASCII id
    body = WITNESS_L1[1:].encode()
    stdin = b"\n".join([b'{"id": "a", ' + body, b'{"id": "b\xff", ' + body,
                         '{"id": "\u00e9\u2603", '.encode() + body]) + b"\n"
    proc = run_cli([command], stdin, env={**os.environ, "PYTHONIOENCODING": encoding})
    assert proc.returncode == 2, proc.stderr
    out = [json.loads(line) for line in proc.stdout.decode("utf-8").splitlines()]
    assert len(out) == 3
    assert out[0]["id"] == "a" and "error" not in out[0]
    assert out[1] == {"error": "BadRecord", "detail": "id must be valid Unicode text"}
    assert out[2]["id"] == "\u00e9\u2603" and "error" not in out[2]


def test_render_reads_utf8_stdin_whatever_the_locale(tmp_path):
    out = tmp_path / "q.svg"
    proc = run_cli(
        ["render", "--out", str(out)],
        '{"id": "\u00e9", '.encode() + WITNESS_L1[1:].encode() + b"\n",
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "width=" in out.read_text()


def run_stream(command, text):
    """Run `distance`/`path` in process over strict UTF-8 stdin and stdout."""
    stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
    with mock.patch.object(sys, "stdin", stdin), mock.patch.object(sys, "stdout", stdout):
        code = cli.main([command])
        stdout.flush()
    return code, raw.getvalue().decode("utf-8")


def test_distance_stream_builds_no_trail(monkeypatch):
    text = corpus_lines(seed=505, count=200) + WITNESS_L1 + "\n" + SURROGATE_ID + "\n"
    expected = run_stream("distance", text)
    assert expected[0] == 2

    def no_trail(*args):
        raise AssertionError("the distance stream built a trail")

    monkeypatch.setattr(landscape, "_trail", no_trail)
    assert run_stream("distance", text) == expected
    with pytest.raises(AssertionError):
        run_stream("path", WITNESS_L1 + "\n")


@pytest.mark.parametrize("command", ["distance", "path"])
def test_stream_writes_the_id_first_on_results_and_errors(command):
    # the id leads a result and an error line alike; a null id and an
    # unparsed line give none
    p2 = '"p2": {"home": "F2", "shared": "F1", "x": 0.5, "y": 0.2}'
    lines = [
        '{"id": "a", "p1": {"home": "F1", "shared": "F2", "x": 0.5, "y": 0.2}, ' + p2 + "}",
        '{"id": null, "p1": {"home": "F1", "shared": "F2", "x": 0.5, "y": 0.2}, ' + p2 + "}",
        '{"id": "b", "p1": {"home": "F1", "shared": "F3", "x": 0.5, "y": 0.2}, ' + p2 + "}",
        "not json",
    ]
    code, out = run_stream(command, "\n".join(lines) + "\n")
    assert code == 2
    a, null, b, bad = out.splitlines()
    assert a.startswith('{"id": "a", ')
    assert b.startswith('{"id": "b", "error": ')
    assert "id" not in json.loads(null) and "error" not in json.loads(null)
    assert json.loads(bad) == {"error": "BadRecord", "detail": "invalid JSON: Expecting value"}


@pytest.mark.parametrize("command", ["distance", "path"])
def test_stream_id_splice_is_dumps_of_the_merged_object(command):
    # the id is written in front of the object text; the bytes are those of
    # dumps({"id": record_id, **obj}) for ids that need escaping or are not ASCII
    good = json.loads(WITNESS_L1)
    bad = {**good, "p1": {**good["p1"], "shared": "F3"}}
    result = landscape.surface_distance(*(canonicalize(parse_point(good[k])) for k in ("p1", "p2")))
    objs = {
        "distance": {"distance": result.distance, "argmin": ["L1"], "fallback": False},
        "path": trail_result_to_obj(result),
    }
    error = {"error": "InvalidRepresentation", "detail": "F3 is not adjacent to F1"}
    ids = ['quote "', "back\\slash", "control \x01\x1f", "é", "astral \U0001f600"]
    lines = [json.dumps({"id": i, **record}) for i in ids for record in (good, bad)]
    code, out = run_stream(command, "\n".join(lines) + "\n")
    assert code == 2
    expected = [dumps({"id": i, **obj}) for i in ids for obj in (objs[command], error)]
    assert out.splitlines() == expected


def public_line(p1, p2) -> str:
    """The distance line of two point literals through the public functions, or their error."""
    try:
        a, b = canonicalize(parse_point(p1)), canonicalize(parse_point(p2))
        return distance_line(landscape.surface_distance(a, b))
    except ValueError as exc:
        return dumps(error_obj(exc))


def test_distance_stream_matches_the_public_path_on_boundary_points():
    # the stream runs its own record path over plain tuples: edge points
    # written in a chart that must turn to reach the edge, vertices in every
    # chart and points just inside and outside an edge give what the public
    # functions give, bit for bit, and so do their errors
    edges = [in_every_chart(*chart, t, 0.0) for chart in CHARTS for t in (0.25, 0.6)]
    near = [
        in_every_chart(*chart, 0.3, k * EPS_IN)
        for chart in CHARTS
        for k in (0.4, 0.9, 1.1, -0.4, -0.9, -1.1)
    ]
    boundary = [q for triple in edges + near for q in triple]
    boundary += vertex_charts()
    uniform = [p.canonical for p in sample_uniform(30, 400)]
    # the antipodal vertices tie L2 and L3, here in every pair of charts
    top, bottom = (vertex_charts([frozenset(v)]) for v in ((1, 2, 3, 4), (5, 6, 7, 8)))
    pairs = [(p, q) for p in top for q in bottom]
    pairs += zip(boundary, boundary[7:] + boundary[:7])
    pairs += zip(boundary, boundary[::-1])
    pairs += [(p, q) for p in boundary for q in uniform[:4]]
    # coincident: one literal twice, one edge point in two charts of a face
    # and in a chart of the face across the edge
    pairs += [(p, p) for p in boundary]
    pairs += [(a, b) for a, b, _ in edges]
    pairs += [(a, (a[1], a[0], 1.0 - a[2], 0.0)) for a, _, _ in edges]
    # a point of the same home face, in the next chart
    pairs += [(p, rotate_once(interior_rep(*p[:2], 0.3, 0.4))) for p in boundary]
    pairs += zip(uniform[0::2], uniform[1::2])
    literals = [tuple(point_to_obj(q) for q in pair) for pair in pairs]
    good = {"home": "F1", "shared": "F2", "x": 0.5, "y": 0.2}
    malformed = [
        {**good, "home": True},
        {**good, "shared": 1.0},
        {**good, "home": "F9"},
        {**good, "shared": "F8"},  # not adjacent to F1
        {**good, "x": math.nan},
        {**good, "y": math.inf},
        {**good, "y": -0.5},  # outside the face triangle
        {**good, "x": "0.5"},
    ]
    literals += [(m, good) for m in malformed] + [(good, m) for m in malformed]

    lines = [json.dumps({"id": f"r{i}", "p1": p1, "p2": p2}) for i, (p1, p2) in enumerate(literals)]
    code, out = run_stream("distance", "\n".join(lines) + "\n")
    assert code == 2
    expected = [
        f'{{"id": "r{i}", ' + public_line(p1, p2)[1:] for i, (p1, p2) in enumerate(literals)
    ]
    assert out.splitlines() == expected
    # most lines are answers; the errors are the malformed points and the
    # points more than the tolerance outside an edge
    assert sum('"error": ' in line for line in expected) < len(expected) // 4


# surrogates included: json.dumps writes them as \uXXXX escapes
any_text = st.text(st.characters(exclude_categories=()), max_size=6)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),
    any_text,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(any_text, inner, max_size=3)
    ),
    max_leaves=6,
)
faces = st.one_of(st.sampled_from([f"F{i}" for i in range(10)]), json_scalars)
coords = st.one_of(st.floats(min_value=-0.1, max_value=1.1), json_scalars)
point_objs = st.one_of(
    st.fixed_dictionaries({"home": faces, "shared": faces, "x": coords, "y": coords}),
    json_values,
)
records = st.fixed_dictionaries(
    {"p1": point_objs, "p2": point_objs}, optional={"id": st.one_of(any_text, json_scalars)}
)
# valid queries: points of every chart kind
valid_points = chart_kind_points.map(point_to_obj)
queries = st.fixed_dictionaries(
    {"p1": valid_points, "p2": valid_points}, optional={"id": st.text(max_size=6)}
)
# a line is read up to "\n" or "\r"; stdin itself is valid UTF-8
raw_lines = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=20)
lines = st.one_of(
    raw_lines, records.map(json.dumps), queries.map(json.dumps), json_values.map(json.dumps)
)


def test_the_fuzzed_lines_often_hold_a_valid_query():
    # the two tests that feed `lines` to the CLI reach its success path
    # only on a line that solves, and their draws are derandomized
    solved = []

    @settings(max_examples=300)
    @given(lines)
    def draw(line):
        try:
            cli._solve(load_record(line))
        except (ValueError, KeyError):
            return
        solved.append(line)

    draw()
    assert len(solved) >= 30


@given(st.sampled_from(["distance", "path"]), st.lists(lines, max_size=6))
@example("distance", [WITNESS_L1, SURROGATE_ID, WITNESS_L1])
@example("path", ['{"id": "\\udfff\\ud800"}', "", "   ", SURROGATE_ID])
def test_stream_answers_every_line_of_any_input(command, input_lines):
    code, out = run_stream(command, "".join(line + "\n" for line in input_lines))
    expected = [line for line in input_lines if line.strip()]
    got = out.split("\n")
    assert got.pop() == ""
    assert len(got) == len(expected)
    objs = [json.loads(line) for line in got]
    errors = sum("error" in obj for obj in objs)
    assert code == (2 if errors else 0)


@settings(max_examples=100)
@given(st.lists(st.one_of(st.tuples(chart_kind_points, chart_kind_points), near_edge_pairs()), min_size=1, max_size=8))
# an edge point and a point 1.001 x EPS_IN inside that edge, whose chord runs along it
@example([((4, 1, 0.125, 0.0), (4, 7, 0.2500000008660254, 0.4330127013922193))])
def test_distance_lines_match_the_oracle_on_points_of_every_chart_kind(pairs):
    # the stream's own record path over plain tuples, held to the unfolding
    # oracle; the oracle takes each point in its canonical chart, where an
    # edge point lies on its edge exactly
    lines = [
        json.dumps({"id": f"r{i}", "p1": point_to_obj(p), "p2": point_to_obj(q)})
        for i, (p, q) in enumerate(pairs)
    ]
    code, out = run_stream("distance", "".join(line + "\n" for line in lines))
    assert code == 0, out
    got = [json.loads(line) for line in out.splitlines()]
    assert [obj["id"] for obj in got] == [f"r{i}" for i in range(len(pairs))]
    for obj, (p, q) in zip(got, pairs):
        expected = unfold_geodesic(canonicalize(Representation(*p)), canonicalize(Representation(*q)))
        assert abs(obj["distance"] - expected) <= 1e-9, (p, q, obj)


def test_distance_and_path_agree_and_are_deterministic():
    stdin = corpus_lines()
    d1 = run_cli(["distance"], stdin)
    d2 = run_cli(["distance"], stdin)
    p1 = run_cli(["path"], stdin)
    p2 = run_cli(["path"], stdin)
    assert d1.returncode == p1.returncode == 0
    assert d1.stdout == d2.stdout  # byte determinism
    assert p1.stdout == p2.stdout
    distances = [json.loads(line) for line in d1.stdout.splitlines()]
    paths = [json.loads(line) for line in p1.stdout.splitlines()]
    assert len(distances) == len(paths) == 50
    for dist_obj, path_obj in zip(distances, paths):
        assert dist_obj["id"] == path_obj["id"]
        assert dist_obj["distance"] == path_obj["length"]
        if path_obj["landscape"] is not None:
            assert len(path_obj["crossings"]) == len(path_obj["faces"]) - 1
            for crossing in path_obj["crossings"]:
                assert 0.0 <= crossing["t"] <= 1.0


def test_path_reports_crossings_for_witness_rows():
    stdin = (
        '{"p1":{"home":"F1","shared":"F2","x":0.1,"y":0.16666666666666666},'
        '"p2":{"home":"F8","shared":"F7","x":0.1,"y":0.16666666666666666}}\n'
    )
    proc = run_cli(["path"], stdin)
    obj = json.loads(proc.stdout.strip())
    assert obj["landscape"] == "L9"
    assert len(obj["crossings"]) == 3
    assert obj["contained"] is True
    edge = obj["crossings"][0]["edge"]
    assert sorted(map(tuple, edge)) == [(1, 2, 3, 4), (1, 4, 6, 7)]


def test_path_same_face_record():
    stdin = (
        '{"p1":{"home":"F5","shared":"F2","x":0.3,"y":0.1},'
        '"p2":{"home":"F5","shared":"F2","x":0.7,"y":0.1}}\n'
    )
    proc = run_cli(["path"], stdin)
    obj = json.loads(proc.stdout.strip())
    assert obj["landscape"] is None
    assert obj["crossings"] == []
    assert abs(obj["length"] - 0.4) < 1e-12


def test_render_determinism_and_shape(tmp_path):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run_cli(["render", "--out", str(out1)], WITNESS_L1 + "\n").returncode == 0
    assert run_cli(["render", "--out", str(out2)], WITNESS_L1 + "\n").returncode == 0
    svg = out1.read_bytes()
    assert svg == out2.read_bytes()
    text = svg.decode()
    assert text.startswith("<?xml")
    assert text.count("<circle") == 2
    polylines = [seg for seg in text.split("<polyline")[1:]]
    assert len(polylines) == 1
    points = polylines[0].split('points="')[1].split('"')[0].split()
    assert len(points) == 3  # two segments across the shared edge


def test_render_same_face_single_segment(tmp_path):
    out = tmp_path / "same.svg"
    stdin = (
        '{"p1":{"home":"F5","shared":"F2","x":0.3,"y":0.1},'
        '"p2":{"home":"F5","shared":"F2","x":0.7,"y":0.1}}\n'
    )
    assert run_cli(["render", "--out", str(out)], stdin).returncode == 0
    text = out.read_text()
    points = text.split("<polyline")[1].split('points="')[1].split('"')[0].split()
    assert len(points) == 2


def test_render_query_flag_and_scale(tmp_path):
    out = tmp_path / "q.svg"
    proc = run_cli(["render", "--out", str(out), "--scale", "50", "--query", WITNESS_L1])
    assert proc.returncode == 0
    assert "width=" in out.read_text()


def test_render_malformed_record_writes_nothing(tmp_path):
    out = tmp_path / "never.svg"
    proc = run_cli(["render", "--out", str(out)], "garbage\n")
    assert proc.returncode == 2
    assert not out.exists()


def test_validate_small_run_passes():
    proc = run_cli(["validate", "--count", "100", "--seed", "7"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failed" in proc.stdout


def test_validate_strict_tolerance_fails():
    proc = run_cli(["validate", "--count", "50", "--seed", "7", "--tolerance", "0"])
    assert proc.returncode == 1
    assert "failed" in proc.stdout


def test_validate_rejects_count_below_one_as_usage_error():
    proc = run_cli(["validate", "--count", "0"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--count" in proc.stderr


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["validate", "--count", "-1"], "--count"),
        (["validate", "--subdivisions", "-1"], "--subdivisions"),
        (["validate", "--tolerance", "-1"], "--tolerance"),
        (["validate", "--tolerance", "nan"], "--tolerance"),
        (["validate", "--tolerance", "inf"], "--tolerance"),
        (["render", "--scale", "nan"], "--scale"),
        (["render", "--scale", "-5"], "--scale"),
        (["render", "--scale", "0"], "--scale"),
        (["render", "--scale", "1e308"], "--scale"),
    ],
)
def test_out_of_range_numbers_are_usage_errors(tmp_path, capsys, argv, flag):
    out = tmp_path / "never.svg"
    if argv[0] == "render":
        argv = [*argv, "--out", str(out), "--query", WITNESS_L1]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err
    assert not out.exists()


@pytest.mark.parametrize("value", ["129", "2000"])
def test_validate_caps_subdivisions_at_128(capsys, value):
    # the lattice cache builds in O(n^3) steps: above 128 is a usage error, before any work
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["validate", "--count", "1", "--subdivisions", value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--subdivisions" in captured.err and "128" in captured.err
    assert cli.build_parser().parse_args(["validate", "--subdivisions", "128"]).subdivisions == 128


def test_validate_has_no_max_faces_flag(capsys):
    # the unfolding search always spans every simple dual path
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["validate", "--max-faces", "8"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-faces" in captured.err


def test_boundary_numbers_are_accepted():
    parser = cli.build_parser()
    args = parser.parse_args(
        ["validate", "--count", "1", "--subdivisions", "0", "--tolerance", "0"]
    )
    assert (args.count, args.subdivisions, args.tolerance) == (1, 0, 0.0)
    assert parser.parse_args(["render", "--out", "x.svg", "--scale", "1e-3"]).scale == 1e-3


def test_validate_with_mesh_subdivisions():
    proc = run_cli(["validate", "--count", "5", "--seed", "3", "--subdivisions", "8"])
    assert proc.returncode == 0, proc.stdout + proc.stderr


class RefusingStdout(io.StringIO):
    """A stdout whose `write`, or with `refuse="flush"` its `flush`, raises `error`.

    A refusing `write` keeps the first text it refused in `refused`; a
    refusing `flush` takes every write.
    """

    def __init__(self, error, refuse="write"):
        super().__init__()
        self.error, self.refuse, self.refused = error, refuse, None

    def write(self, text):
        if self.refuse != "write":
            return super().write(text)
        if self.refused is None:
            self.refused = text
        raise self.error

    def flush(self):
        if self.refuse == "flush":
            raise self.error


@pytest.mark.parametrize(
    "error",
    [OSError(28, "No space left on device"), BrokenPipeError(32, "Broken pipe")],
    ids=["OSError", "BrokenPipeError"],
)
@pytest.mark.parametrize(
    "argv, line",
    [
        (["distance"], "{"),
        (["path"], "{"),
        (["validate", "--count", "1", "--tolerance", "0"], "{"),  # a failing pair's report
        (["validate", "--count", "1"], "checked "),  # the summary
    ],
    ids=["distance", "path", "validate-report", "validate-summary"],
)
def test_stdout_write_failure_is_an_io_error(capsys, error, argv, line):
    stdout = RefusingStdout(error)
    with mock.patch.object(sys, "stdin", io.StringIO(WITNESS_L1 + "\n")), \
            mock.patch.object(sys, "stdout", stdout):
        code = cli.main(argv)
    assert code == 1
    assert stdout.refused.startswith(line)
    assert capsys.readouterr().err == f"I/O error: {error}\n"


@pytest.mark.parametrize(
    "error",
    [OSError(28, "No space left on device"), BrokenPipeError(32, "Broken pipe")],
    ids=["OSError", "BrokenPipeError"],
)
@pytest.mark.parametrize(
    "argv, line",
    [
        (["distance"], '{"distance": '),
        (["path"], '{"length": '),
        (["validate", "--count", "1"], "checked "),
    ],
    ids=["distance", "path", "validate"],
)
def test_stdout_flush_failure_is_an_io_error(capsys, error, argv, line):
    stdout = RefusingStdout(error, refuse="flush")
    with mock.patch.object(sys, "stdin", io.StringIO(WITNESS_L1 + "\n")), \
            mock.patch.object(sys, "stdout", stdout):
        code = cli.main(argv)
    assert code == 1
    assert stdout.getvalue().startswith(line)
    assert capsys.readouterr().err == f"I/O error: {error}\n"


class FailingStdin(io.StringIO):
    """A stdin whose `readline` and iteration raise `error`."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def readline(self, size=-1):
        raise self.error

    def __next__(self):
        raise self.error


@pytest.mark.parametrize(
    "error",
    [OSError(9, "Bad file descriptor"),
     UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")],
    ids=["OSError", "UnicodeDecodeError"],
)
@pytest.mark.parametrize("command", ["distance", "path", "render"])
def test_stdin_read_failure_is_an_io_error(tmp_path, capsys, error, command):
    out = tmp_path / "never.svg"
    argv = [command, "--out", str(out)] if command == "render" else [command]
    stdout = io.StringIO()
    with mock.patch.object(sys, "stdin", FailingStdin(error)), \
            mock.patch.object(sys, "stdout", stdout):
        code = cli.main(argv)
    assert code == 1
    assert capsys.readouterr().err == f"I/O error: {error}\n"
    assert stdout.getvalue() == ""
    assert not out.exists()


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_render_unopenable_out_is_an_io_error(tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "q.svg"
    stdout = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO()), mock.patch.object(sys, "stdout", stdout):
        code = cli.main(["render", "--out", str(out), "--query", WITNESS_L1])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1
    assert stdout.getvalue() == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("closed", ["stdin", "stdout"])
@pytest.mark.parametrize(
    "argv, uses",
    [
        (["distance"], {"stdin", "stdout"}),
        (["path"], {"stdin", "stdout"}),
        (["validate", "--count", "1"], {"stdout"}),
        (["render"], {"stdin"}),
        (["render", "--query", WITNESS_L1], set()),
    ],
    ids=["distance", "path", "validate", "render-stdin", "render-query"],
)
def test_a_closed_standard_stream_fails_only_when_used(tmp_path, capsys, closed, argv, uses):
    # Python sets sys.stdin or sys.stdout to None when it starts with that descriptor closed
    out = tmp_path / "q.svg"
    if argv[0] == "render":
        argv = [*argv, "--out", str(out)]
    streams = {"stdin": io.StringIO(WITNESS_L1 + "\n"), "stdout": io.StringIO(), closed: None}
    with mock.patch.object(sys, "stdin", streams["stdin"]), \
            mock.patch.object(sys, "stdout", streams["stdout"]):
        code = cli.main(argv)
    err = capsys.readouterr().err
    if closed in uses:
        assert (code, err) == (1, "I/O error: [Errno 9] Bad file descriptor\n")
        assert not out.exists()
    else:
        assert (code, err) == (0, "")
        assert out.exists() == (argv[0] == "render")


@settings(max_examples=300)
@given(lines)
@example(WITNESS_L1)
@example('{"p1":{"home":"F5","shared":"F2","x":0.3,"y":0.1},'
         '"p2":{"home":"F5","shared":"F2","x":0.7,"y":0.1}}')
def test_render_query_answers_any_line(line):
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "q.svg")
        with mock.patch.object(sys, "stdin", io.StringIO()), \
                mock.patch.object(sys, "stdout", io.StringIO()), \
                mock.patch.object(sys, "stderr", stderr):
            code = cli.main(["render", "--out", out, f"--query={line}"])
        if code == 0:
            assert stderr.getvalue() == ""
            with open(out, encoding="utf-8") as handle:
                assert handle.read().startswith("<?xml")
        else:
            assert code == 2
            assert not os.path.exists(out)
            err = stderr.getvalue()
            assert err.count("\n") == 1 and err.endswith("\n")
            assert "error" in json.loads(err)


def test_help_runs():
    proc = run_cli(["--help"])
    assert proc.returncode == 0
    for sub in ("distance", "path", "validate", "render"):
        assert sub in proc.stdout
