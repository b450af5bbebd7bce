"""Output checks; they run outside the timed interval.

A line fails when it is missing, out of order, carries the wrong `id`,
is not the error kind its malformed input calls for, or reports a
distance that differs from the unfolding oracle by more than 1e-9.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from octadist import canonicalize, surface_distance, unfold_geodesic

from workloads import Corpus

TOLERANCE = 1e-9
ORACLE_SAMPLE = 1000
DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")

_SUMMARY = re.compile(r"checked (\d+) pairs .*: (\d+) passed, (\d+) failed$")


@dataclass
class Verdict:
    failed: int = 0  # lines (validate: pairs) lost or wrong
    problems: list[str] = field(default_factory=list)
    oracle_checked: int = 0
    tie_frac: float = 0.0

    def fail(self, message: str, lines: int = 1) -> None:
        self.failed += lines
        if len(self.problems) < 10:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check_digest(corpus: Corpus, seed: int, stdout: bytes, verdict: Verdict) -> None:
    """At the default seed, stdout must match the stored SHA-256."""
    if seed != DEFAULT_SEED:
        return
    want = json.loads(DIGESTS.read_text())[corpus.name]
    if digest(stdout) != want:
        verdict.problems.append(f"stdout digest {digest(stdout)} differs from stored {want}")


def _load_obj(line: str) -> dict | None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def _oracle_distance(p1, p2) -> float:
    return unfold_geodesic(canonicalize(p1), canonicalize(p2))


def _is_number(value) -> bool:
    # 17-digit formatting writes whole numbers such as 1.0 without a point
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _ok_line(obj: dict, expect: tuple, command: str) -> str | None:
    """Why a well-formed record's output line is wrong, or None."""
    _, rid, _, _ = expect
    if obj.get("id") != rid:
        return f"id {obj.get('id')!r}, expected {rid!r}"
    if "error" in obj:
        return f"{rid}: unexpected error {obj['error']}: {obj.get('detail')}"
    value = obj.get("distance" if command == "distance" else "length")
    if not _is_number(value) or value < 0.0:
        return f"{rid}: bad distance {value!r}"
    if command == "path":
        if obj.get("contained") is not True:
            return f"{rid}: trail not contained"
        faces = obj.get("faces") or [None]
        if len(obj.get("crossings", ())) != len(faces) - 1:
            return f"{rid}: {len(obj.get('crossings', ()))} crossings for {len(faces)} faces"
    return None


def _error_line(obj: dict, expect: tuple) -> str | None:
    _, rid, kind = expect
    if obj.get("error") != kind:
        return f"malformed line {rid!r} gave {obj.get('error')!r}, expected {kind}"
    if obj.get("id") != rid:
        return f"error object id {obj.get('id')!r}, expected {rid!r}"
    return None


def tie_share(pairs, seed: int) -> float:
    """Share of a seeded sample of pairs whose argmin has a TIE_EPS tie."""
    sample = random.Random(f"ties:{seed}").sample(pairs, min(ORACLE_SAMPLE, len(pairs)))
    ties = sum(
        len(surface_distance(canonicalize(a), canonicalize(b)).argmin) > 1 for a, b in sample
    )
    return ties / max(1, len(sample))


def verify_stream(corpus: Corpus, seed: int, stdout: bytes, exit_code: int) -> Verdict:
    """Check a `distance`/`path` pass line by line, then sample the oracle."""
    command = corpus.argv[0]
    verdict = Verdict()
    want_exit = 2 if corpus.malformed else 0
    if exit_code != want_exit:
        verdict.problems.append(f"exit code {exit_code}, expected {want_exit}")
    try:
        out = stdout.decode().splitlines()
    except UnicodeDecodeError:
        verdict.fail("stdout is not UTF-8", corpus.records)
        return verdict
    if len(out) != len(corpus.expect):
        verdict.problems.append(f"{len(out)} output lines for {len(corpus.expect)} input lines")
    parsed: dict[int, dict] = {}
    for i, expect in enumerate(corpus.expect):
        if i >= len(out):
            verdict.fail(f"{len(corpus.expect) - i} lines lost from line {i}", len(corpus.expect) - i)
            break
        obj = _load_obj(out[i])
        if obj is None:
            verdict.fail(f"line {i} is not a JSON object")
            continue
        problem = _ok_line(obj, expect, command) if expect[0] == "ok" else _error_line(obj, expect)
        if problem:
            verdict.fail(problem)
        elif expect[0] == "ok":
            parsed[i] = obj
    key = "distance" if command == "distance" else "length"
    ok_lines = sorted(parsed)
    sample = random.Random(f"oracle:{seed}").sample(ok_lines, min(ORACLE_SAMPLE, len(ok_lines)))
    for i in sorted(sample):
        _, rid, p1, p2 = corpus.expect[i]
        want = _oracle_distance(p1, p2)
        if abs(parsed[i][key] - want) > TOLERANCE:
            verdict.fail(f"{rid}: {parsed[i][key]!r} differs from oracle {want!r}")
    verdict.oracle_checked = len(sample)
    verdict.tie_frac = tie_share(corpus.pairs, seed)
    return verdict


def verify_validate(corpus: Corpus, seed: int, stdout: bytes, exit_code: int) -> Verdict:
    """`validate` must print only its summary, with every pair passed."""
    total = corpus.records
    verdict = Verdict()
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}, expected 0")
    out = stdout.decode(errors="replace").splitlines()
    match = _SUMMARY.match(out[-1]) if out else None
    if match is None:
        verdict.fail("no `N passed, M failed` summary", total)
        return verdict
    checked, passed, failed = (int(g) for g in match.groups())
    if checked != total or passed + failed != total:
        verdict.problems.append(f"summary counts {checked}/{passed}/{failed}, expected {total} pairs")
    if failed:
        verdict.fail(f"{failed} pairs failed the oracle comparison", failed)
    if len(out) != 1:
        verdict.problems.append(f"{len(out) - 1} report lines before the summary")
    verdict.tie_frac = tie_share(corpus.pairs, seed)
    return verdict


def verify(corpus: Corpus, seed: int, stdout: bytes, exit_code: int) -> Verdict:
    if corpus.lines:
        verdict = verify_stream(corpus, seed, stdout, exit_code)
    else:
        verdict = verify_validate(corpus, seed, stdout, exit_code)
    check_digest(corpus, seed, stdout, verdict)
    return verdict


# ---------------------------------------------------------------------------
# known-defect probe


#: Lines that abort the whole `distance` stream today (OverflowError in
#: float() of a 400-digit integer; RecursionError in json.loads).
DEFECT_LINES = {
    "overflow": '{"id": "probe-defect", "p1": {"home": "F1", "shared": "F2", "x": 1'
    + "0" * 399
    + ', "y": 0.1}, "p2": {"home": "F2", "shared": "F1", "x": 0.5, "y": 0.2}}',
    "recursion": "[" * 200000 + "]" * 200000,
}


def probe_stream(corpus: Corpus, defect: str) -> tuple[bytes, list[tuple]]:
    """A valid-defect-valid stream and the expectation for each line."""
    ok = [i for i, e in enumerate(corpus.expect) if e[0] == "ok"]
    first, last = ok[0], ok[-1]
    lines = [corpus.lines[first], DEFECT_LINES[defect], corpus.lines[last]]
    expect = [corpus.expect[first], ("defect",), corpus.expect[last]]
    return "".join(line + "\n" for line in lines).encode(), expect


def probe_lost(stdout: bytes, expect: list[tuple]) -> int:
    """Lines of a probe stream that did not come back as they should.

    The defect line counts as answered when it yields an error object;
    the valid lines must match id and the oracle distance.
    """
    out = stdout.decode(errors="replace").splitlines()
    lost = 0
    for i, want in enumerate(expect):
        obj = _load_obj(out[i]) if i < len(out) else None
        if obj is None:
            lost += 1
        elif want[0] == "defect":
            lost += obj.get("error") not in ("BadRecord", "InvalidRepresentation")
        else:
            _, rid, p1, p2 = want
            good = obj.get("id") == rid and _is_number(obj.get("distance"))
            lost += not (good and abs(obj["distance"] - _oracle_distance(p1, p2)) <= TOLERANCE)
    return lost
