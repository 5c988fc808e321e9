#!/usr/bin/env python
"""Aggregate every BENCH_*.json into one trend table with floors.

Each benchmark suite merges its results into a ``BENCH_<name>.json`` at
the repo root.  This tool reads them all and renders one table per
tracked metric: the floor (or ceiling) the suite is expected to hold,
the latest measured value, and the headroom between them -- the
one-screen answer to "are the performance contracts drifting?".

Usage::

    python tools/bench_trend.py [--dir REPO_ROOT] [--fail]

``--fail`` exits non-zero when any tracked metric is outside its bound
(missing BENCH files are reported but never fail: a partial bench run
is not a regression).  Untracked metrics are ignored -- the floors
below are the curated contracts, mirrored from the asserting suites.
"""

import argparse
import json
import os
import sys

# (file, dotted.path.in.json, bound, kind) -- kind "floor" means the
# value must stay >= bound, "ceiling" means <= bound.  These mirror the
# asserts inside the benchmark suites; the table shows drift *toward*
# a bound before the suite itself goes red.
FLOORS = [
    ("BENCH_datapath.json", "e1000_compiled.wall_speedup", 2.0, "floor"),
    ("BENCH_datapath.json", "rtl8139_compiled.wall_speedup", 2.0, "floor"),
    ("BENCH_datapath.json", "e1000_recv.wall_speedup", 2.0, "floor"),
    ("BENCH_datapath.json", "rtl8139_recv.wall_speedup", 1.0, "floor"),
    ("BENCH_trace.json",
     "netperf_recv_e1000.disabled_overhead_fraction", 0.03, "ceiling"),
    ("BENCH_health.json",
     "netperf_recv_e1000.always_on_overhead_fraction", 0.01, "ceiling"),
    ("BENCH_health.json",
     "netperf_recv_rtl8139.always_on_overhead_fraction", 0.01, "ceiling"),
    ("BENCH_health.json",
     "netperf_recv_e1000.sampler_overhead_fraction", 0.05, "ceiling"),
    ("BENCH_health.json",
     "netperf_recv_rtl8139.sampler_overhead_fraction", 0.05, "ceiling"),
    ("BENCH_fleet.json", "events_per_sec", 4000.0, "floor"),
    ("BENCH_fleet.json", "wall_s_per_virtual_ms", 0.04, "ceiling"),
    ("BENCH_fleet.json", "recovery_rate", 0.99, "floor"),
]


def _lookup(doc, dotted):
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def _headroom(value, bound, kind):
    """Fraction of slack left before the bound; negative = violated."""
    if kind == "floor":
        return (value - bound) / bound if bound else 0.0
    return (bound - value) / bound if bound else 0.0


def collect(root):
    """Rows of (file, metric, bound, kind, value, headroom|None)."""
    rows = []
    cache = {}
    for fname, dotted, bound, kind in FLOORS:
        path = os.path.join(root, fname)
        if fname not in cache:
            doc = None
            if os.path.exists(path):
                try:
                    with open(path) as fh:
                        doc = json.load(fh)
                except ValueError:
                    doc = None
            cache[fname] = doc
        doc = cache[fname]
        value = _lookup(doc, dotted) if doc is not None else None
        headroom = (None if value is None
                    else _headroom(value, bound, kind))
        rows.append((fname, dotted, bound, kind, value, headroom))
    return rows


def render(rows, out=None):
    out = out if out is not None else sys.stdout
    header = ("metric", "bound", "latest", "headroom")
    widths = [max(len(header[0]),
                  max(len("%s:%s" % (r[0][6:-5], r[1])) for r in rows)),
              10, 10, 10]
    print("== bench trend (%d tracked metrics) ==" % len(rows), file=out)
    print("  %-*s  %*s  %*s  %*s" % (widths[0], header[0],
                                     widths[1], header[1],
                                     widths[2], header[2],
                                     widths[3], header[3]), file=out)
    violations = 0
    missing = 0
    for fname, dotted, bound, kind, value, headroom in rows:
        label = "%s:%s" % (fname[6:-5], dotted)
        sign = ">=" if kind == "floor" else "<="
        bound_s = "%s %g" % (sign, bound)
        if value is None:
            missing += 1
            print("  %-*s  %*s  %*s  %*s" % (widths[0], label,
                                             widths[1], bound_s,
                                             widths[2], "(missing)",
                                             widths[3], "-"), file=out)
            continue
        mark = ""
        if headroom < 0:
            violations += 1
            mark = "  VIOLATED"
        print("  %-*s  %*s  %*s  %*s%s"
              % (widths[0], label, widths[1], bound_s,
                 widths[2], "%.4g" % value,
                 widths[3], "%+.0f%%" % (100 * headroom), mark), file=out)
    print("%d violation(s), %d missing" % (violations, missing), file=out)
    return violations, missing


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python tools/bench_trend.py",
        description="Aggregate BENCH_*.json into a floor/headroom table.")
    parser.add_argument("--dir", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
        help="directory holding BENCH_*.json (default: repo root)")
    parser.add_argument("--fail", action="store_true",
                        help="exit 1 if any tracked metric violates "
                             "its bound")
    args = parser.parse_args(argv)
    rows = collect(os.path.abspath(args.dir))
    violations, _missing = render(rows)
    if args.fail and violations:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
