"""Traced in-process run: spans around the calls into each layer.

The package is not edited.  `Tracer.installed()` swaps every reference
to a traced function held by an `octadist` module for a wrapper that
records a span (name, start, end, parent, record id) and restores the
originals on exit.  Spans stay in memory; `layer_metrics` reduces them
once the pass is over.  A call from a traced function into itself (the
recursion of `dumps`) gets no span of its own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

#: Functions wrapped in a traced pass, by layer (module of octadist).
TRACED = {
    "serialize": ("load_record", "parse_point", "dumps", "distance_result_to_obj",
                  "trail_result_to_obj", "error_obj"),
    "coords": ("canonicalize",),
    "topology": ("canonical_frame", "enumerate_dual_paths"),
    "landscape": ("surface_distance", "trail_crossings", "trail_length"),
    "oracle": ("compare", "unfold_geodesic", "mesh_upper_bound"),
}

#: Calls that start a new record: a stdin line, or one validate pair.
RECORD_START = {"load_record", "compare"}

#: Calls whose arguments and results the metrics inspect afterwards.
KEEP_PAYLOAD = {"canonicalize", "surface_distance", "enumerate_dual_paths"}

PARSE = ("load_record", "parse_point")
EMIT = ("dumps", "distance_result_to_obj", "trail_result_to_obj", "error_obj")


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index or -1, record id, payload]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._record = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP_PAYLOAD
        starts_record = name in RECORD_START
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if starts_record:
                self._record += 1
            span = [name, 0, 0, stack[-1] if stack else -1, self._record, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep:
                span[5] = (args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every octadist reference to a traced function through a span."""
        swapped = []
        for layer, names in TRACED.items():
            module = importlib.import_module(f"octadist.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original)
                for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "octadist"]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            swapped.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(swapped):
                setattr(mod, attr, original)


def _oracle_cache(name: str):
    """An lru_cache'd function of the oracle, or None if it has no such thing."""
    cached = getattr(sys.modules.get("octadist.oracle"), name, None)
    return cached if hasattr(cached, "cache_info") else None


def reset_caches() -> None:
    """Empty the oracle's caches, as a fresh CLI process has them."""
    for name in ("flatten_chain", "_mesh_graph"):
        if (cached := _oracle_cache(name)) is not None:
            cached.cache_clear()


def flatten_chain_hit_frac() -> float:
    cached = _oracle_cache("flatten_chain")
    if cached is None:
        return 0.0
    info = cached.cache_info()
    return info.hits / max(1, info.hits + info.misses)


def span_table(spans: list[list]) -> dict[str, dict[str, int]]:
    """Calls, total and self time (ns) per traced name.

    Self time is a span's duration minus the time its child spans cover.
    """
    child_ns = defaultdict(int)
    for _name, start, end, parent, _record, _payload in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table: dict[str, dict[str, int]] = {}
    for i, (name, start, end, _parent, _record, _payload) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
    return table


def layer_metrics(spans: list[list], records: int, flatten_hits: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass (see the README for each)."""
    from octadist import relation

    table = span_table(spans)
    calls = Counter({name: row["calls"] for name, row in table.items()})

    def mean_us(name):
        return table[name]["total_ns"] / calls[name] / 1e3 if calls[name] else 0.0

    def per_record_us(names):
        return sum(table[n]["total_ns"] for n in names if n in table) / max(1, records) / 1e3

    def frac(count, base):
        return count / base if base else 0.0

    pairs = [s[5] for s in spans if s[0] == "surface_distance"]
    mix = Counter(relation(a.canonical.home, b.canonical.home).name.lower() for (a, b), _ in pairs)
    sd = sorted(s[2] - s[1] for s in spans if s[0] == "surface_distance")
    canon = [s[5][1] for s in spans if s[0] == "canonicalize"]
    dual = sum(len(s[5][1]) for s in spans if s[0] == "enumerate_dual_paths")

    metrics = {
        "cli.stream_self_us": table["main"]["self_ns"] / max(1, records) / 1e3,
        "serialize.parse_us": per_record_us(PARSE),
        "serialize.error_records": float(calls["error_obj"]),
        "serialize.emit_us": per_record_us(EMIT),
        "coords.canonicalize_us": mean_us("canonicalize"),
        "coords.boundary_point_frac": frac(sum(p.canonical.y == 0.0 for p in canon), len(canon)),
        "topology.canonical_frame_us": mean_us("canonical_frame"),
        "topology.enumerate_dual_paths_us": mean_us("enumerate_dual_paths"),
        "landscape.surface_distance_us_p50": sd[len(sd) // 2] / 1e3 if sd else 0.0,
        "landscape.surface_distance_us_p99": sd[int(0.99 * (len(sd) - 1))] / 1e3 if sd else 0.0,
        "landscape.trail_crossings_us": mean_us("trail_crossings"),
        "landscape.trail_length_us": mean_us("trail_length"),
        "landscape.layouts_per_pair": frac(calls["trail_crossings"], calls["surface_distance"]),
        "landscape.tie_frac": frac(sum(len(r.argmin) > 1 for _, r in pairs), len(pairs)),
        "landscape.fallback_count": float(sum(r.fallback for _, r in pairs)),
    }
    for kind in ("same", "adjacent", "neither", "opposite"):
        metrics[f"landscape.relation_mix.{kind}"] = frac(mix[kind], len(pairs))
    metrics.update({
        "oracle.compare_us": mean_us("compare"),
        "oracle.unfold_geodesic_us": mean_us("unfold_geodesic"),
        "oracle.dual_paths_per_pair": frac(dual, calls["unfold_geodesic"]),
        "oracle.flatten_chain_hit_frac": flatten_hits,
        "oracle.mesh_upper_bound_us": mean_us("mesh_upper_bound"),
    })
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
