"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
pinned here; the seeds make each sweep reproducible.
"""

import itertools
import json
import math
import time

import numpy as np

from octadist import oracle, topology as topo
from octadist.coords import (
    Representation,
    canonicalize,
    flip_home_face,
    rotate_once,
    sample_uniform,
    vertex_representations,
)
from octadist.landscape import VALIDITY_WITNESSES, surface_distance
from octadist.serialize import dumps

from conftest import best_chord_loop, point_to_obj, run_cli, sampled_containment

# Geodesic between the two vertices not incident to a common face,
# recorded from the first verified run of the unfolding oracle
# (analytically sqrt(3); the oracle value is authoritative).
ANTIPODAL_VERTEX_DISTANCE = 1.7320508075688767

SEED_SWEEP = 20240611
SEED_ROUNDTRIP = 31415
SEED_DOMINANCE = 27182
SEED_METRIC_PAIRS = 16180
SEED_METRIC_TRIPLES = 14142
SEED_CORPUS = 404


def _report(name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"ACCEPTANCE {name}: {status}{' — ' + detail if detail else ''}")
    assert not failures, failures[:5]


def _pairs(seed: int, count: int):
    points = sample_uniform(seed, 2 * count)
    return list(zip(points[0::2], points[1::2]))


def test_criterion_1_witness_table():
    failures = []
    start = time.perf_counter()
    for index, (r1, r2) in VALIDITY_WITNESSES.items():
        a, b = canonicalize(r1), canonicalize(r2)
        result = surface_distance(a, b)
        reference = oracle.unfold_geodesic(a, b)
        if index not in result.argmin:
            failures.append(f"L{index}: argmin {result.argmin}")
        if abs(result.distance - reference) > 1e-9:
            failures.append(f"L{index}: |{result.distance} - {reference}| > 1e-9")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _report("1 witness-table reproduction", failures, f"9 rows in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence_sweep():
    failures = []
    start = time.perf_counter()
    pairs = _pairs(SEED_SWEEP, 10_000)
    for a, b in pairs:
        result = surface_distance(a, b)
        reference = oracle.unfold_geodesic(a, b)
        if abs(result.distance - reference) > 1e-9:
            failures.append(f"{a} {b}: {result.distance} vs {reference}")
        if result.fallback:
            failures.append(f"fallback flagged for interior pair {a} {b}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report("2 oracle equivalence sweep", failures, f"10000 pairs in {elapsed:.1f}s")


def test_criterion_3_rotation_round_trip():
    failures = []
    points = sample_uniform(SEED_ROUNDTRIP, 1000)
    for sp in points:
        rep = sp.canonical
        out = rep
        for _ in range(3):
            out = rotate_once(out)
        if abs(out.x - rep.x) > 1e-12 or abs(out.y - rep.y) > 1e-12:
            failures.append(f"triple rotation moved {rep}")
        base = oracle.embed_3d(rep)
        cur = rep
        for _ in range(2):
            cur = rotate_once(cur)
            if np.linalg.norm(oracle.embed_3d(cur) - base) > 1e-12:
                failures.append(f"embedding moved under rotation of {rep}")
    # flips need edge points; reuse the seeds for deterministic abscissae
    import random

    rng = random.Random(SEED_ROUNDTRIP)
    for _ in range(1000):
        home = rng.randrange(1, 9)
        shared = topo.neighbors(home)[rng.randrange(3)]
        rep = Representation(home, shared, rng.random(), 0.0)
        if np.linalg.norm(oracle.embed_3d(rep) - oracle.embed_3d(flip_home_face(rep))) > 1e-12:
            failures.append(f"embedding moved under flip of {rep}")
    _report("3 rotation/flip round-trips", failures, "1000 interior + 1000 edge points")


def test_criterion_4_landscape_count_census():
    failures = []
    class_counts = {topo.Relation.ADJACENT: 0, topo.Relation.NEITHER: 0, topo.Relation.OPPOSITE: 0}
    expected = {
        topo.Relation.ADJACENT: (2, 1),
        topo.Relation.NEITHER: (3, 2),
        topo.Relation.OPPOSITE: (4, 6),
    }
    for a, b in itertools.combinations(topo.FACE_INDICES, 2):
        rel = topo.relation(a, b)
        class_counts[rel] += 1
        length, count = expected[rel]
        for src, dst in ((a, b), (b, a)):
            paths = topo.enumerate_dual_paths(src, dst)
            minimal = [p for p in paths if len(p) == length]
            shorter = [p for p in paths if len(p) < length]
            if len(minimal) != count or shorter:
                failures.append(f"({src},{dst}): {len(minimal)} paths of {length} faces")
    if class_counts != {
        topo.Relation.ADJACENT: 12,
        topo.Relation.NEITHER: 12,
        topo.Relation.OPPOSITE: 4,
    }:
        failures.append(f"class sizes {class_counts}")
    _report("4 landscape-count census", failures, "1/2/6 over 12+12+4 unordered classes")


def test_criterion_5_long_landscape_dominance():
    failures = []
    pairs = _pairs(SEED_DOMINANCE, 2000)
    for a, b in pairs:
        if a.canonical.home == b.canonical.home:
            continue
        d = surface_distance(a, b).distance
        long_best, winner = best_chord_loop(a, b, 5, 8)
        if winner is not None and not sampled_containment(*winner):
            failures.append(f"{a} {b}: sampled containment fails on {winner[0]}")
        if long_best < d - 1e-9:
            failures.append(f"{a} {b}: 5..8-face chord {long_best} < {d}")
    _report("5 long-landscape dominance", failures, "2000 pairs, chains of 5-8 faces")


def test_criterion_6_metric_axioms_and_brackets():
    failures = []
    pairs = _pairs(SEED_METRIC_PAIRS, 2000)
    distances = []
    for a, b in pairs:
        d_ab = surface_distance(a, b).distance
        d_ba = surface_distance(b, a).distance
        if abs(d_ab - d_ba) > 1e-12:
            failures.append(f"symmetry: {d_ab} vs {d_ba}")
        distances.append((a, b, d_ab))
    triples_pts = sample_uniform(SEED_METRIC_TRIPLES, 3000)
    for a, b, c in zip(triples_pts[0::3], triples_pts[1::3], triples_pts[2::3]):
        d_ab = surface_distance(a, b).distance
        d_bc = surface_distance(b, c).distance
        d_ac = surface_distance(a, c).distance
        if d_ac > d_ab + d_bc + 1e-9:
            failures.append(f"triangle: {d_ac} > {d_ab} + {d_bc}")
        distances.extend([(a, b, d_ab), (b, c, d_bc), (a, c, d_ac)])
    for a, b, d in distances:
        chord = float(np.linalg.norm(oracle.embed_3d(a.canonical) - oracle.embed_3d(b.canonical)))
        if chord > d + 1e-12:
            failures.append(f"chord {chord} > distance {d}")
        mesh = oracle.mesh_upper_bound(a, b, 64)
        if d > mesh + 1e-12:
            failures.append(f"distance {d} > mesh(64) {mesh}")
    _report(
        "6 metric axioms + chord/mesh brackets",
        failures,
        f"{len(pairs)} pairs, 1000 triples, {len(distances)} bracketed distances",
    )


def test_criterion_7_antipodal_vertex_regression():
    failures = []
    a = canonicalize(vertex_representations(frozenset({1, 2, 3, 4}))[0])
    b = canonicalize(vertex_representations(frozenset({5, 6, 7, 8}))[0])
    d = surface_distance(a, b).distance
    reference = oracle.unfold_geodesic(a, b)
    if abs(d - ANTIPODAL_VERTEX_DISTANCE) > 1e-12:
        failures.append(f"distance {d!r} vs recorded {ANTIPODAL_VERTEX_DISTANCE!r}")
    if abs(reference - ANTIPODAL_VERTEX_DISTANCE) > 1e-12:
        failures.append(f"oracle {reference!r} vs recorded {ANTIPODAL_VERTEX_DISTANCE!r}")
    if abs(d - math.sqrt(3.0)) > 1e-12:
        failures.append(f"distance {d!r} far from sqrt(3)")
    _report("7 antipodal-vertex regression", failures, f"d = {d!r}")


def test_criterion_8_cli_contract(tmp_path):
    failures = []
    points = sample_uniform(SEED_CORPUS, 100)
    corpus = "\n".join(
        dumps(
            {
                "p1": point_to_obj(a.canonical),
                "p2": point_to_obj(b.canonical),
                "id": f"q{i}",
            }
        )
        for i, (a, b) in enumerate(zip(points[0::2], points[1::2]))
    ) + "\n"

    for command in ("distance", "path"):
        first = run_cli([command], corpus)
        second = run_cli([command], corpus)
        if first.returncode != 0 or first.stdout != second.stdout:
            failures.append(f"{command}: nondeterministic or failing")
        if len(first.stdout.splitlines()) != 50:
            failures.append(f"{command}: wrong line count")

    record = corpus.splitlines()[0]
    out1, out2 = tmp_path / "r1.svg", tmp_path / "r2.svg"
    r1 = run_cli(["render", "--out", str(out1)], record + "\n")
    r2 = run_cli(["render", "--out", str(out2)], record + "\n")
    if r1.returncode != 0 or out1.read_bytes() != out2.read_bytes():
        failures.append("render: nondeterministic or failing")

    broken = corpus.splitlines()
    broken[10] = "NOT JSON"
    mangled = run_cli(["distance"], "\n".join(broken) + "\n")
    lines = mangled.stdout.splitlines()
    if mangled.returncode != 2 or len(lines) != 50:
        failures.append("malformed-line isolation broken")
    else:
        objs = [json.loads(line) for line in lines]
        if "error" not in objs[10] or any("error" in o for i, o in enumerate(objs) if i != 10):
            failures.append("error object misplaced")

    validate = run_cli(["validate"])
    if validate.returncode != 0:
        failures.append(f"validate default run exited {validate.returncode}")
    _report("8 CLI contract", failures, "determinism, isolation, validate exit 0")
