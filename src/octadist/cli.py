"""Batch command line front end.

Subcommands `distance` and `path` stream JSON-lines query records on
stdin and emit one JSON result line per input line, in order; a
malformed line yields an error object on that line and exit code 2
without disturbing its neighbours.  `validate` sweeps seeded random
pairs (plus the nine validity witness pairs) through the comparison
harness, and `render` draws one query's shortest trail on the net as
SVG.

`validate` runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is
already set or numpy is already loaded.

`main` freezes the garbage collector's view of the objects alive when a
command starts (`gc.freeze`), most of them left by the imports, so its
collections never scan them again; `validate` does the same after it
imports the oracle.  An in-process caller of `main` that wants them
scanned again can call `gc.unfreeze()`.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from .coords import canonicalize, sample_uniform
from .landscape import VALIDITY_WITNESSES, surface_distance
from .render import MAX_SCALE, render_svg
from .serialize import (
    distance_result_to_obj,
    dumps,
    error_obj,
    load_record,
    parse_point,
    trail_result_to_obj,
)


def _utf8_stdio() -> None:
    """Read stdin and write stdout as UTF-8, whatever the locale.

    An undecodable input byte reaches the parser as a lone surrogate, so
    its line is a BadRecord like any other malformed line.  A stream set
    in place of sys.stdin or sys.stdout (an io.StringIO) is left as it is.
    """
    for stream, errors in ((sys.stdin, "surrogateescape"), (sys.stdout, "strict")):
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure is not None:
            reconfigure(encoding="utf-8", errors=errors)


def _stream(to_obj) -> int:
    _utf8_stdio()
    had_errors = False
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            record_id = None
            try:
                record = load_record(line)
                record_id = record.get("id")
                p1 = parse_point(record.get("p1"))
                p2 = parse_point(record.get("p2"))
                result = surface_distance(canonicalize(p1), canonicalize(p2))
                obj = to_obj(result, record_id)
            except (ValueError, KeyError) as exc:
                obj = error_obj(exc, record_id)
                had_errors = True
            sys.stdout.write(dumps(obj) + "\n")
        sys.stdout.flush()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 2 if had_errors else 0


def _cmd_distance(args) -> int:
    return _stream(distance_result_to_obj)


def _cmd_path(args) -> int:
    return _stream(trail_result_to_obj)


def _cmd_validate(args) -> int:
    if "numpy" not in sys.modules:
        # the oracle's 3 x 3 products never use OpenBLAS's worker threads,
        # which would otherwise spin for tens of ms of CPU in every run
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # numpy and the oracle leave thousands of long-lived objects; importing
    # them with the collector paused, then freezing them, spares every
    # later collection a scan of them
    enabled = gc.isenabled()
    gc.disable()
    try:
        from .oracle import compare_pairs
    finally:
        if enabled:
            gc.enable()
    gc.freeze()

    points = sample_uniform(args.seed, 2 * args.count)
    pairs = [(canonicalize(r1), canonicalize(r2)) for r1, r2 in VALIDITY_WITNESSES.values()]
    pairs += list(zip(points[0::2], points[1::2]))
    reports = compare_pairs(pairs, tolerance=args.tolerance, subdivisions=args.subdivisions)
    failures = [report for report in reports if not report.passed]
    total = len(pairs)
    try:
        for report in failures:
            sys.stdout.write(dumps(report.to_dict()) + "\n")
        print(f"checked {total} pairs ({len(VALIDITY_WITNESSES)} witness rows + {args.count} random): "
              f"{total - len(failures)} passed, {len(failures)} failed")
        sys.stdout.flush()
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0 if not failures else 1


def _cmd_render(args) -> int:
    _utf8_stdio()
    if args.query is not None:
        line = args.query
    else:
        line = sys.stdin.readline().strip()
    try:
        record = load_record(line)
        p1 = parse_point(record.get("p1"))
        p2 = parse_point(record.get("p2"))
        result = surface_distance(canonicalize(p1), canonicalize(p2))
        svg = render_svg(p1, p2, result, scale=args.scale)
    except (ValueError, KeyError) as exc:
        print(dumps(error_obj(exc)), file=sys.stderr)
        return 2
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


def _checked(convert, accept, requirement: str):
    """An argparse type: `convert`, then reject values `accept` refuses."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(requirement)
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


positive_int = _checked(int, lambda v: v >= 1, "must be at least 1")
#: The finest mesh `validate` builds.  Its lattice cache holds (12n - 6)^2
#: skeleton hop counts, built in O(n^3) steps: 1.5-1.6 s at n = 128 on a
#: 2-core Xeon VM.
_MAX_SUBDIVISIONS = 128
_subdivisions = _checked(
    int, lambda v: 0 <= v <= _MAX_SUBDIVISIONS, f"must be between 0 and {_MAX_SUBDIVISIONS}"
)
_tolerance = _checked(float, lambda v: math.isfinite(v) and v >= 0.0, "must be a finite number >= 0")
_scale = _checked(float, lambda v: 0.0 < v <= MAX_SCALE, f"must be a number > 0 and at most {MAX_SCALE:g}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octadist",
        description="Exact geodesic distances on the unit regular octahedron.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_distance = sub.add_parser("distance", help="surface distances for JSON-lines queries")
    p_distance.set_defaults(func=_cmd_distance)

    p_path = sub.add_parser("path", help="shortest trails (with crossings) for queries")
    p_path.set_defaults(func=_cmd_path)

    p_validate = sub.add_parser("validate", help="sweep random pairs through the oracle harness")
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.add_argument("--count", type=positive_int, default=10000)
    p_validate.add_argument("--tolerance", type=_tolerance, default=1e-9)
    p_validate.add_argument(
        "--subdivisions", type=_subdivisions, default=0,
        help="mesh upper-bound resolution; 0 skips the mesh check (default)",
    )
    p_validate.set_defaults(func=_cmd_validate)

    p_render = sub.add_parser("render", help="draw one query's shortest trail as SVG")
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.add_argument("--scale", type=_scale, default=100.0, help="SVG units per edge")
    p_render.add_argument("--query", help="query record as a JSON literal (default: first stdin line)")
    p_render.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    gc.freeze()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
