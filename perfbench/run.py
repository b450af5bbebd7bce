"""Benchmark of the octadist CLI on seeded workloads.

    python3 perfbench/run.py --workload distance-uniform --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/`, nothing needs installing.  With `--trace 0` each workload
is a closed loop with one client: one `python -m octadist.cli` child
at a time reads the whole seeded corpus from stdin as fast as it can,
again and again for `--seconds`.  With `--trace 1` the same corpus runs
in-process through `octadist.cli.main`, with spans around the calls
into each layer.  The last stdout line is the JSON result; the lines
before it name every metric with its unit, the machine and the input.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

CHILD_TIMEOUT_S = 60.0
MIN_PASSES = 3
IMPORT_REPEATS = 5

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "setup_s": "s",
    "first_output_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


@dataclass
class ChildRun:
    wall_s: float
    first_output_s: float  # spawn to first stdout bytes; the wall time if none
    peak_rss_mb: float
    stdout: bytes
    exit_code: int


#: Where the interpreter finds packages; every other PYTHON* setting is dropped.
_KEEP_PYTHON_VARS = {"PYTHONHOME", "PYTHONPATH", "PYTHONUSERBASE", "PYTHONNOUSERSITE"}


def child_env() -> dict:
    """The caller's environment without PYTHON* settings that change behaviour.

    PYTHONUNBUFFERED would turn every output line into a write call and
    PYTHONDONTWRITEBYTECODE would recompile the package on every start;
    a child runs as a plain `python -m octadist.cli` does, with the
    checkout's `src/` first on its path.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") or k in _KEEP_PYTHON_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], stdin: Path) -> ChildRun:
    """Run `python -m octadist.cli <args>` < stdin; time it and take its own peak RSS."""
    argv = [sys.executable, "-m", "octadist.cli", *args]
    with open(stdin, "rb") as fin, open(WORK / "child.stderr", "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=subprocess.PIPE, stderr=ferr,
                                env=child_env(), cwd=ROOT)
    chunks, first = [], None
    try:
        with proc.stdout, selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            deadline = start + CHILD_TIMEOUT_S
            while sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                if first is None:
                    first = time.perf_counter()
                chunks.append(chunk)
            else:
                print(f"child {args} killed after {CHILD_TIMEOUT_S:g} s", file=sys.stderr)
                proc.kill()
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=end - start,
        first_output_s=(first or end) - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        stdout=b"".join(chunks),
        exit_code=proc.returncode,
    )


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def emit(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}")


# ---------------------------------------------------------------------------
# untraced: CLI children


def run_untraced(corpus, seed: int, seconds: float):
    """End to end: CLI children, one at a time, for `seconds`."""
    import checks

    stdin = WORK / f"{corpus.name}.jsonl"
    stdin.write_bytes(corpus.stdin)
    empty = WORK / "empty.jsonl"
    empty.write_bytes(b"")

    run_child(corpus.setup_argv, empty)  # warm-up: bytecode cache, page cache
    # set-up runs alternate with the passes, so both see the same machine
    setup, passes = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        setup.append(run_child(corpus.setup_argv, empty))
        passes.append(run_child(corpus.argv, stdin))

    verdict = checks.verify(corpus, seed, passes[0].stdout, passes[0].exit_code)
    for i, p in enumerate(passes[1:], 1):
        if (p.stdout, p.exit_code) != (passes[0].stdout, passes[0].exit_code):
            verdict.problems.append(f"pass {i} output differs from pass 0")
    for i, s in enumerate(setup):
        if s.exit_code != 0:
            verdict.problems.append(f"set-up run {i} exited with {s.exit_code}")

    lost, probe_lines = 0, 0
    if corpus.name == "distance-uniform":
        lost, probe_lines = run_probe(corpus, verdict)

    failed_frac = (verdict.failed + lost) / (corpus.records + probe_lines)
    emit("passes", {"count": len(passes), "clients": 1, "loop": "closed",
                    "records_per_pass": corpus.records, "setup_runs": len(setup)})
    emit("failed_frac", {"value": failed_frac, "unit": "ratio", "corpus_lines_failed": verdict.failed,
                         "probe_lines_lost": lost, "base_lines": corpus.records + probe_lines})
    rates = [corpus.records / p.wall_s for p in passes]
    firsts = [p.first_output_s for p in passes]
    setups = [s.wall_s for s in setup]
    emit("pass_spread", {
        "records_per_s": {"best": max(rates), "median": statistics.median(rates), "worst": min(rates)},
        "first_output_s": {"best": min(firsts), "median": statistics.median(firsts), "worst": max(firsts)},
        "setup_s": {"best": min(setups), "median": statistics.median(setups), "worst": max(setups)},
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
    })
    # Passes repeat identical work, so the spread between them is interference
    # from the host, which only adds time: over a run long enough to span
    # several of the host's slow and fast phases, the best pass is the
    # steadiest figure from run to run (see README.md).  Set-up reports its median.
    metrics = {
        "records_per_s": max(rates),
        "setup_s": statistics.median(setups),
        "first_output_s": min(firsts),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "ok_frac": 1.0 - failed_frac,
    }
    return verdict, len(passes) * corpus.records, metrics, END_TO_END_UNITS


def run_probe(corpus, verdict) -> tuple[int, int]:
    """Known-defect probe: each defect line once, in a valid-defect-valid stream."""
    import checks

    lost_total, lines_total = 0, 0
    for defect in checks.DEFECT_LINES:
        stdin_bytes, expect = checks.probe_stream(corpus, defect)
        path = WORK / f"probe-{defect}.jsonl"
        path.write_bytes(stdin_bytes)
        run = run_child(["distance"], path)
        lost = checks.probe_lost(run.stdout, expect)
        emit("known_defect", {
            "probe": defect, "lines": len(expect), "lines_lost": lost, "exit_code": run.exit_code,
            "note": "lost lines count in distance-uniform failed_frac/ok_frac, outside the timed runs",
        })
        lost_total += lost
        lines_total += len(expect)
    return lost_total, lines_total


# ---------------------------------------------------------------------------
# traced: in-process through octadist.cli.main


def import_times() -> tuple[float, float]:
    """Median cumulative import time of octadist.cli and of octadist.oracle within it."""
    cli_s, oracle_s = [], []
    for _ in range(IMPORT_REPEATS):
        argv = [sys.executable, "-X", "importtime", "-c", "import octadist.cli"]
        proc = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)))
        cli_s.append(cumulative["octadist.cli"] / 1e6)
        oracle_s.append(cumulative.get("octadist.oracle", 0) / 1e6)
    return statistics.median(cli_s), statistics.median(oracle_s)


def inprocess_pass(corpus, tracer=None) -> tuple[int, bytes, float]:
    import octadist.cli
    import tracing

    tracing.reset_caches()  # as in a fresh CLI process
    main = octadist.cli.main if tracer is None else tracer.wrap("main", octadist.cli.main)
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(corpus.stdin.decode()), io.StringIO()
    try:
        start = time.perf_counter()
        code = main(list(corpus.argv))
        elapsed = time.perf_counter() - start
        out = sys.stdout.getvalue().encode()
    finally:
        sys.stdin, sys.stdout = saved
    return code, out, elapsed


def run_traced(corpus, seed: int, seconds: float):
    """Per layer: untraced and traced in-process passes, alternating, for `seconds`."""
    import checks
    import tracing

    cli_import_s, oracle_import_s = import_times()
    inprocess_pass(corpus)  # warm-up
    plain, traced, layers, outputs = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        code, out, elapsed = inprocess_pass(corpus)
        plain.append(elapsed)
        outputs.append((out, code))
        tracer = tracing.Tracer()
        with tracer.installed():
            code, out, elapsed = inprocess_pass(corpus, tracer)
        traced.append(elapsed)
        outputs.append((out, code))
        layers.append(tracing.layer_metrics(tracer.spans, corpus.records, tracing.flatten_chain_hit_frac()))
        spans = tracing.span_table(tracer.spans)

    verdict = checks.verify(corpus, seed, outputs[0][0], outputs[0][1])
    if any(o != outputs[0] for o in outputs):
        verdict.problems.append("traced and untraced passes disagree")

    metrics = {"cli.import_s": cli_import_s, "cli.import_oracle_s": oracle_import_s}
    metrics.update(tracing.median_metrics(layers))
    untraced_rps = corpus.records / statistics.median(plain)
    traced_rps = corpus.records / statistics.median(traced)
    metrics["trace.untraced_records_per_s"] = untraced_rps
    metrics["trace.records_per_s"] = traced_rps
    metrics["trace.overhead_frac"] = 1.0 - traced_rps / untraced_rps
    emit("passes", {"traced": len(traced), "untraced": len(plain), "records_per_pass": corpus.records,
                    "in_process": True})
    emit("spans_last_pass", spans)
    return verdict, len(outputs) * corpus.records, metrics, layer_units(metrics)


def layer_units(metrics: dict) -> dict[str, str]:
    def unit(name):
        if name.endswith("records_per_s"):
            return "1/s"
        if name.endswith("_s"):
            return "s"
        if "_us" in name:
            return "us"
        if name.endswith(("_records", "_count")):
            return "count"
        if name.endswith("_per_pair"):
            return "count/pair"
        return "ratio"

    return {name: unit(name) for name in metrics}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 also checks the stored stdout digests")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "octadist" / "cli.py").is_file():
        print(f"no octadist sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    WORK.mkdir(exist_ok=True)

    import octadist
    import checks
    import workloads

    if Path(octadist.__file__).resolve().parent != (SRC / "octadist").resolve():
        print(f"octadist imported from {octadist.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"# octadist benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    emit("machine", machine())
    corpus = workloads.WORKLOADS[args.workload](args.seed)
    run = run_traced if args.trace else run_untraced
    verdict, attempted, metrics, units = run(corpus, args.seed, args.seconds)

    props = workloads.input_properties(corpus)
    props.update(records=corpus.records, tie_frac=verdict.tie_frac,
                 tie_base=min(len(corpus.pairs), checks.ORACLE_SAMPLE), oracle_checked=verdict.oracle_checked)
    emit("input", props)
    emit("machine_after", {"loadavg": [round(x, 2) for x in os.getloadavg()]})
    for problem in verdict.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": attempted,
        "failed": verdict.failed * (attempted // corpus.records),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
