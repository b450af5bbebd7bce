"""Byte identity of `distance` and `path` output on a fixed corpus.

The digests below were recorded from the CLI before the minimizer-only
layout path existed; any change to the numbers, the argmin, the trail or
the wire format shows up here as a different SHA-256.
"""

import hashlib
import itertools
import random
import subprocess
import sys

from octadist import topology as topo
from octadist.coords import Representation, rotate_once, sample_uniform, vertex_representations
from octadist.serialize import dumps

from conftest import point_to_obj

DIGESTS = {
    "distance": "f3fb0b3f7cb10ea109a787856aae3214e2fb31e9ddd5564a99344764d31344a5",
    "path": "a03a11ea766ed56bfbb63d3f8072c69b494d018b758eb765d3af0f559056dc53",
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
