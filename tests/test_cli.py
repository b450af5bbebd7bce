import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from octadist import cli, landscape
from octadist.coords import sample_uniform
from octadist.serialize import dumps

from conftest import point_to_obj

WITNESS_L1 = (
    '{"p1":{"home":"F1","shared":"F2","x":0.5,"y":0.2},'
    '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2}}'
)


def run_cli(args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "octadist.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
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
    proc = subprocess.run(
        [sys.executable, "-m", "octadist.cli", command],
        input=stdin,
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": encoding},
    )
    assert proc.returncode == 2, proc.stderr
    out = [json.loads(line) for line in proc.stdout.decode("utf-8").splitlines()]
    assert len(out) == 3
    assert out[0]["id"] == "a" and "error" not in out[0]
    assert out[1] == {"error": "BadRecord", "detail": "id must be valid Unicode text"}
    assert out[2]["id"] == "\u00e9\u2603" and "error" not in out[2]


def test_render_reads_utf8_stdin_whatever_the_locale(tmp_path):
    out = tmp_path / "q.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "octadist.cli", "render", "--out", str(out)],
        input='{"id": "\u00e9", '.encode() + WITNESS_L1[1:].encode() + b"\n",
        capture_output=True,
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
# a line is read up to "\n" or "\r"; stdin itself is valid UTF-8
raw_lines = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=20)
lines = st.one_of(raw_lines, records.map(json.dumps), json_values.map(json.dumps))


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
    """A stdout whose `write` raises `error`, keeping the first text it refused."""

    def __init__(self, error):
        super().__init__()
        self.error, self.refused = error, None

    def write(self, text):
        if self.refused is None:
            self.refused = text
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


def test_help_runs():
    proc = run_cli(["--help"])
    assert proc.returncode == 0
    for sub in ("distance", "path", "validate", "render"):
        assert sub in proc.stdout
