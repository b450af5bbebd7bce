"""Byte identity of `distance` and `path` output, and of the oracle's bits.

The CLI digests below were recorded before the minimizer-only layout
path existed; any change to the numbers, the argmin, the trail or the
wire format shows up here as a different SHA-256.  The oracle digests
pin every bit of `unfold_geodesic` and `mesh_upper_bound` on the pairs
that `validate --seed 0 --count 700` checks.  The byte pins of the CI
workflow and the benchmark's stored seed-0 digests of all four workloads
are checked here too.
"""

import hashlib
import itertools
import json
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from octadist import oracle, topology as topo
from octadist.coords import (
    Representation,
    canonicalize,
    rotate_once,
    sample_uniform,
    vertex_representations,
)
from octadist.landscape import VALIDITY_WITNESSES
from octadist.serialize import dumps

from conftest import point_to_obj, run_cli

DIGESTS = {
    "distance": "f3fb0b3f7cb10ea109a787856aae3214e2fb31e9ddd5564a99344764d31344a5",
    "path": "a03a11ea766ed56bfbb63d3f8072c69b494d018b758eb765d3af0f559056dc53",
}

ORACLE_DIGESTS = {
    "unfold_geodesic": "e28aec5708be9373932fb12e69e13353055e845528af58df3b183965e898ebda",
    "mesh_upper_bound_4": "7b10fde89172238c4f107f35a7fd090c00d2f00888097e1d1e4371ad0f824c92",
    "mesh_upper_bound_8": "0a2cc48139debfe73f91609d461b391e296c2574e8f7d1744c161fccf0cc0bd3",
    "mesh_upper_bound_16": "e3c7b0d783ed6e175bcc46b8fa48c4cca5471dd7fcc5fc3b9c3b7c9d6091db82",
}


def _random_chart(rep: Representation, rng: random.Random) -> Representation:
    for _ in range(rng.randrange(3)):
        rep = rotate_once(rep)
    return rep


def golden_pairs(seed: int = 2024, count: int = 300) -> list[tuple[Representation, Representation]]:
    """Random pairs in random charts, plus boundary points and the tie pair."""
    rng = random.Random(seed)
    points = [_random_chart(p.canonical, rng) for p in sample_uniform(seed, 2 * count)]
    pairs = list(zip(points[0::2], points[1::2]))
    # same-face and coincident pairs
    pairs += [(points[0], _random_chart(points[0], rng))]
    pairs += [(p, _random_chart(Representation(p.home, p.shared, 0.5, 0.25), rng)) for p in points[:8]]
    # vertices in every chart, and edge points in both of their charts
    special = [rep for v in topo.VERTICES for rep in vertex_representations(v)]
    for f in topo.FACE_INDICES:
        for g in topo.neighbors(f):
            special.append(Representation(f, g, 0.3, 0.0))
    pairs += [(a, b) for a, b in itertools.combinations(special, 2) if rng.random() < 0.15]
    # antipodal vertices: a tie between the two mirror strips L2 and L3
    pairs.append(
        (
            vertex_representations(frozenset({1, 2, 3, 4}))[0],
            vertex_representations(frozenset({5, 6, 7, 8}))[0],
        )
    )
    return pairs


def golden_stdin() -> str:
    lines = [
        dumps({"id": f"g{i}", "p1": point_to_obj(a), "p2": point_to_obj(b)})
        for i, (a, b) in enumerate(golden_pairs())
    ]
    return "\n".join(lines) + "\n"


def test_golden_corpus_covers_every_relation():
    seen = {topo.relation(a.home, b.home) for a, b in golden_pairs()}
    assert seen == set(topo.Relation)


def test_cli_output_is_byte_identical_to_recorded_digests():
    stdin = golden_stdin().encode()
    procs = {
        cmd: subprocess.Popen(
            [sys.executable, "-m", "octadist.cli", cmd],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for cmd in DIGESTS
    }
    outputs = {cmd: proc.communicate(stdin, timeout=60) for cmd, proc in procs.items()}
    for cmd, proc in procs.items():
        stdout, stderr = outputs[cmd]
        assert proc.returncode == 0, stderr.decode()
        assert hashlib.sha256(stdout).hexdigest() == DIGESTS[cmd], cmd


def test_oracle_values_match_recorded_digests():
    # the pairs `validate --seed 0 --count 700` checks, in its order
    pairs = [(canonicalize(r1), canonicalize(r2)) for r1, r2 in VALIDITY_WITNESSES.values()]
    points = sample_uniform(0, 1400)
    pairs += list(zip(points[0::2], points[1::2]))

    def digest(values):
        return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()

    got = {"unfold_geodesic": digest([oracle.unfold_geodesic(a, b) for a, b in pairs])}
    for n in (4, 8, 16):
        got[f"mesh_upper_bound_{n}"] = digest([oracle.mesh_upper_bound(a, b, n) for a, b in pairs])
    assert got == ORACLE_DIGESTS


# The byte pins the CI workflow checks on an installed package, with the
# same data and hashes, so a local run checks them too.
CI_QUERY = (
    '{"p1":{"home":"F1","shared":"F2","x":0.5,"y":0.2},'
    '"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2}}'
)
# an id with a quote, a backslash, a control escape, a non-ASCII and an
# astral character, a bad point and an unparsed line
CI_IDS_JSONL = "".join(
    line + "\n"
    for line in (
        r'{"id":"a","p1":{"home":"F1","shared":"F2","x":0.5,"y":0.2},"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2}}',
        r'{"id":"b","p1":{"home":"F1","shared":"F3","x":0.5,"y":0.2},"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2}}',
        "not json",
        r'{"id":"q\"b\\c\u0001dé\ud83d\ude00","p1":{"home":"F1","shared":"F2","x":0.5,"y":0.2},"p2":{"home":"F2","shared":"F1","x":0.5,"y":0.2}}',
    )
)
CI_IDS_DIGESTS = {
    "distance": "c539449e485ce983ceaeed4a857c474e22ab39d6dadabd917acc31562eab91dd",
    "path": "df241e7ef121135b090cb5c9858ce56f9db8d322c8b940406ff6710f79cb57ac",
}
CI_SVGS = {
    "q": (CI_QUERY, "ea6b59984447ca8048aacc0bd5e52072cbeb350275fabe197b93ca4c0d3904ba"),
    # p1 written in its non-canonical chart draws as (F1, F2, 0.25, 0) does
    "edge": (
        '{"p1":{"home":"F2","shared":"F1","x":0.75,"y":0},"p2":{"home":"F8","shared":"F7","x":0.3,"y":0.2}}',
        "99577373af57a28e04b8bae515bd597ae09668a19f97c6e8b63cadf6e20456db",
    ),
}


@pytest.mark.parametrize("command", sorted(CI_IDS_DIGESTS))
def test_ci_pin_of_the_id_splice(command):
    proc = run_cli([command], CI_IDS_JSONL.encode())
    assert proc.returncode == 2
    assert hashlib.sha256(proc.stdout).hexdigest() == CI_IDS_DIGESTS[command]


@pytest.mark.parametrize("name", sorted(CI_SVGS))
def test_ci_pin_of_render(tmp_path, name):
    query, digest = CI_SVGS[name]
    out = tmp_path / f"{name}.svg"
    assert run_cli(["render", "--out", str(out), "--query", query], b"").returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_ci_pin_of_the_validate_summary():
    proc = run_cli(["validate", "--count", "20", "--subdivisions", "4"], b"")
    assert proc.returncode == 0
    assert proc.stdout == b"checked 29 pairs (9 witness rows + 20 random): 29 passed, 0 failed\n"


@pytest.mark.parametrize("workload", ["distance-boundary", "distance-uniform", "path-opposite", "validate-mesh"])
def test_benchmark_digest_at_seed_0(workload):
    # the stored stdout digest of every benchmark workload; the corpus lines
    # are written with the standard json module, not with octadist.serialize,
    # and a stream with malformed lines exits 2
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench))
    corpus = workloads.WORKLOADS[workload](0)
    proc = run_cli(corpus.argv, corpus.stdin)
    assert proc.returncode == (2 if corpus.malformed else 0), proc.stderr.decode()
    digests = json.loads((bench / "digests.json").read_text())
    assert hashlib.sha256(proc.stdout).hexdigest() == digests[workload]
