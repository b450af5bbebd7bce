"""Seeded inputs for the four benchmark workloads.

Every workload is built from `--seed` alone: the same seed gives the
same argv and the same stdin bytes.  The CLI sees only those; what the
benchmark keeps besides (the points behind each line, the error kind a
malformed line must yield) is used to check the output afterwards.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from octadist import (
    VALIDITY_WITNESSES,
    VERTICES,
    canonicalize,
    opposite,
    relation,
    sample_uniform,
    vertex_representations,
)
from octadist.coords import EPS_IN, Representation
from octadist.topology import neighbors

SQRT3 = math.sqrt(3.0)

#: Records per corpus: one CLI pass takes about 1.2-1.5 s on a 2-core
#: Xeon VM, start-up included, so a 50 s run holds about 20 passes.
DISTANCE_UNIFORM_RECORDS = 6000
PATH_OPPOSITE_RECORDS = 2500
DISTANCE_BOUNDARY_RECORDS = 6000
VALIDATE_PAIRS = 700
VALIDATE_SUBDIVISIONS = 16

#: Share of malformed lines in distance-uniform.
MALFORMED_SHARE = 0.02


@dataclass
class Corpus:
    """One workload's generated input and what its output must be."""

    name: str
    argv: list[str]  # CLI arguments after `python -m octadist.cli`
    setup_argv: list[str]  # the same subcommand with nothing to do
    lines: list[str] = field(default_factory=list)
    # per line: ("ok", id, p1, p2) or ("error", id or None, expected kind)
    expect: list[tuple] = field(default_factory=list)
    pairs: list[tuple[Representation, Representation]] = field(default_factory=list)

    @property
    def records(self) -> int:
        """Records one pass handles: stdin lines, or validate's pairs."""
        return len(self.lines) if self.lines else len(self.pairs)

    @property
    def stdin(self) -> bytes:
        return "".join(line + "\n" for line in self.lines).encode()

    @property
    def malformed(self) -> int:
        return sum(1 for e in self.expect if e[0] == "error")


# Lines are written with the standard json module and charts are turned
# here, not with octadist.serialize or coords.rotate_once: a change to the
# program must not change the bytes it is fed.
def _point_obj(rep: Representation) -> dict:
    return {"home": f"F{rep.home}", "shared": f"F{rep.shared}", "x": rep.x, "y": rep.y}


def _record_line(record_id: str, p1: Representation, p2: Representation) -> str:
    return json.dumps({"id": record_id, "p1": _point_obj(p1), "p2": _point_obj(p2)})


def _turn(rep: Representation, times: int) -> Representation:
    """Re-express rep in the chart `times` shared-face rotations further on."""
    home, shared, x, y = rep.home, rep.shared, rep.x, rep.y
    for _ in range(times % 3):
        cycle = neighbors(home)
        shared = cycle[(cycle.index(shared) + 1) % 3]
        x, y = (1.0 - x + SQRT3 * y) / 2.0, (SQRT3 - SQRT3 * x - y) / 2.0
    return Representation(home, shared, x, y)


def _triangle_point(rng: random.Random) -> tuple[float, float]:
    u, v = rng.random(), rng.random()
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return u + 0.5 * v, SQRT3 / 2.0 * v


def _uniform_point(rng: random.Random, face: int) -> Representation:
    """A point uniform over `face`, written in a randomly chosen chart."""
    x, y = _triangle_point(rng)
    return Representation(face, rng.choice(neighbors(face)), x, y)


def _boundary_point(rng: random.Random) -> Representation:
    """A vertex, edge, near-edge or near-vertex point in a non-canonical chart."""
    kind = rng.random()
    if kind < 0.25:  # a vertex, in one of its four charts
        rep = rng.choice(vertex_representations(rng.choice(VERTICES)))
    elif kind < 0.40:  # within EPS_IN of a vertex
        rep = rng.choice(vertex_representations(rng.choice(VERTICES)))
        d = 0.4 * EPS_IN * rng.random()
        rep = Representation(rep.home, rep.shared, d, 0.5 * d * rng.random())
    elif kind < 0.75:  # on an edge, from either side
        face = rng.randrange(1, 9)
        rep = Representation(face, rng.choice(neighbors(face)), rng.uniform(0.02, 0.98), 0.0)
        if rng.random() < 0.5:
            rep = Representation(rep.shared, rep.home, 1.0 - rep.x, 0.0)
    elif kind < 0.90:  # within EPS_IN of an edge, inside or just outside
        # outside by at most EPS_IN / 2: a turned chart sees that offset
        # doubled in y, and the representation must stay valid there too
        face = rng.randrange(1, 9)
        y = rng.uniform(-0.45, 0.9) * EPS_IN
        rep = Representation(face, rng.choice(neighbors(face)), rng.uniform(0.02, 0.98), y)
    else:  # interior
        return _uniform_point(rng, rng.randrange(1, 9))
    return _turn(rep, rng.randrange(3))


def _malformed(rng: random.Random, i: int, good: str) -> tuple[str, str | None, str]:
    """A line README promises to isolate: (line, id it reports, error kind)."""
    rid = f"r{i}"
    obj = json.loads(good)
    choice = rng.randrange(8)
    if choice == 0:
        return good[: len(good) // 2], None, "BadRecord"  # truncated JSON
    if choice == 1:
        return json.dumps([obj["p1"], obj["p2"]]), None, "BadRecord"  # not an object
    if choice == 2:
        obj["id"] = i  # id must be a string
        return json.dumps(obj), None, "BadRecord"
    if choice == 3:
        del obj["p2"]
        return json.dumps(obj), rid, "BadRecord"
    if choice == 4:
        obj["p1"]["home"] = "F9"
        return json.dumps(obj), rid, "BadRecord"
    if choice == 5:
        obj["p2"]["x"] = str(obj["p2"]["x"])
        return json.dumps(obj), rid, "BadRecord"
    if choice == 6:  # shared face not adjacent to home
        home = int(obj["p1"]["home"][1:])
        obj["p1"]["shared"] = f"F{opposite(home)}"
        return json.dumps(obj), rid, "InvalidRepresentation"
    obj["p2"]["y"] = -0.5  # outside the face triangle
    return json.dumps(obj), rid, "InvalidRepresentation"


def _stream_corpus(name, command, count, seed, make_pair, malformed_share=0.0) -> Corpus:
    rng = random.Random(f"{name}:{seed}")
    corpus = Corpus(name, [command], [command])
    for i in range(count):
        p1, p2 = make_pair(rng)
        rid = f"r{i}"
        line = _record_line(rid, p1, p2)
        if rng.random() < malformed_share:
            line, bad_id, kind = _malformed(rng, i, line)
            corpus.expect.append(("error", bad_id, kind))
        else:
            corpus.expect.append(("ok", rid, p1, p2))
            corpus.pairs.append((p1, p2))
        corpus.lines.append(line)
    return corpus


def distance_uniform(seed: int) -> Corpus:
    def pair(rng):
        return _uniform_point(rng, rng.randrange(1, 9)), _uniform_point(rng, rng.randrange(1, 9))

    return _stream_corpus(
        "distance-uniform", "distance", DISTANCE_UNIFORM_RECORDS, seed, pair, MALFORMED_SHARE
    )


def path_opposite(seed: int) -> Corpus:
    def pair(rng):
        face = rng.randrange(1, 9)
        return _uniform_point(rng, face), _uniform_point(rng, opposite(face))

    return _stream_corpus("path-opposite", "path", PATH_OPPOSITE_RECORDS, seed, pair)


def distance_boundary(seed: int) -> Corpus:
    def pair(rng):
        return _boundary_point(rng), _boundary_point(rng)

    return _stream_corpus(
        "distance-boundary", "distance", DISTANCE_BOUNDARY_RECORDS, seed, pair
    )


def validate_mesh(seed: int) -> Corpus:
    args = ["validate", "--seed", str(seed), "--subdivisions", str(VALIDATE_SUBDIVISIONS)]
    corpus = Corpus("validate-mesh", args + ["--count", str(VALIDATE_PAIRS)], args + ["--count", "1"])
    # the pairs validate checks (witness rows, then its own draw), for the
    # record count and the input properties
    points = sample_uniform(seed, 2 * VALIDATE_PAIRS)
    corpus.pairs = list(VALIDITY_WITNESSES.values())
    corpus.pairs += [(a.canonical, b.canonical) for a, b in zip(points[0::2], points[1::2])]
    return corpus


WORKLOADS = {
    "distance-uniform": distance_uniform,
    "path-opposite": path_opposite,
    "distance-boundary": distance_boundary,
    "validate-mesh": validate_mesh,
}


def input_properties(corpus: Corpus) -> dict:
    """Properties of the input that decide which branches run.

    Relation mix and boundary share are taken on the canonical forms of
    the well-formed pairs; the tie share is measured separately (see
    checks.tie_share) because it depends on the computed distances.
    """
    mix = {"same": 0, "adjacent": 0, "neither": 0, "opposite": 0}
    boundary = 0
    for p1, p2 in corpus.pairs:
        c1, c2 = canonicalize(p1).canonical, canonicalize(p2).canonical
        mix[relation(c1.home, c2.home).name.lower()] += 1
        boundary += (c1.y == 0.0) + (c2.y == 0.0)
    n = max(1, len(corpus.pairs))
    props = {f"relation_mix.{k}": v / n for k, v in mix.items()}
    props["boundary_point_frac"] = boundary / (2 * n)
    props["malformed_frac"] = corpus.malformed / corpus.records if corpus.lines else 0.0
    return props
