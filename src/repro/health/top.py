"""kstat "top": render a kernel's counter snapshot as tables.

Usage::

    python -m repro.health.top SNAPSHOT.json          # one snapshot
    python -m repro.health.top --watch A.json B.json  # deltas A -> B
    python -m repro.health.top --demo                 # built-in demo rig

A snapshot file is the JSON form of ``kernel.kstat.snapshot()`` (a
flat name -> value dict), or a document holding one under ``"kstat"``
(a health-plane summary or crash dump); ``--demo`` generates a fresh
one by running a short traffic burst through an e1000 rig.  ``--watch``
is the ``python -m repro.trace.report --diff`` counter diff.
"""

import argparse
import json
import sys

from ..trace.report import diff_docs


def _group(snapshot):
    """Split a flat snapshot into {top-level prefix: {rest: value}}."""
    groups = {}
    for name in sorted(snapshot):
        prefix, _, rest = name.partition(".")
        groups.setdefault(prefix, {})[rest or prefix] = snapshot[name]
    return groups


def _fmt(value):
    if isinstance(value, float):
        return "%.4f" % value
    return str(value)


def render(snapshot, title="kstat", out=None):
    """One snapshot as per-subsystem tables; returns the line count."""
    out = out if out is not None else sys.stdout
    lines = 0
    width = max((len(n) for n in snapshot), default=10)
    print("== %s (%d counters) ==" % (title, len(snapshot)), file=out)
    for prefix, entries in _group(snapshot).items():
        print("-- %s --" % prefix, file=out)
        for rest, value in entries.items():
            print("  %-*s %s" % (width, rest, _fmt(value)), file=out)
            lines += 1
    return lines


def render_cpus(snapshot, out=None):
    """The per-CPU "top" view: busy ns per CPU and per category."""
    out = out if out is not None else sys.stdout
    cpus = {}
    for name, value in snapshot.items():
        if not name.startswith("kernel.cpu"):
            continue
        rest = name[len("kernel."):]
        cpu, _, metric = rest.partition(".")
        if metric:
            cpus.setdefault(cpu, {})[metric] = value
    if not cpus:
        return
    categories = sorted({m for v in cpus.values() for m in v
                         if m != "busy_ns"})
    header = ["cpu", "busy_ns"] + categories
    print("-- per-cpu --", file=out)
    print("  " + "  ".join("%14s" % h for h in header), file=out)
    for cpu in sorted(cpus):
        row = [cpu, _fmt(cpus[cpu].get("busy_ns", 0))]
        row += [_fmt(cpus[cpu].get(c, 0)) for c in categories]
        print("  " + "  ".join("%14s" % c for c in row), file=out)


def _demo_snapshot():
    """A live snapshot from a short e1000 receive burst."""
    from ..workloads import make_e1000_rig, netperf_recv

    rig = make_e1000_rig(decaf=False, health=True)
    rig.insmod()
    netperf_recv(rig, duration_s=0.05)
    return rig.kernel.kstat.snapshot()


def _load(path):
    with open(path) as fh:
        doc = json.load(fh)
    # Accept either a bare snapshot or a document wrapping one.
    if isinstance(doc, dict) and isinstance(doc.get("kstat"), dict):
        return doc["kstat"]
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.health.top",
        description="Render kstat snapshots (kernel health counters).")
    parser.add_argument("snapshots", nargs="*",
                        help="snapshot JSON file(s)")
    parser.add_argument("--watch", action="store_true",
                        help="treat two snapshots as before/after; "
                             "print deltas")
    parser.add_argument("--demo", action="store_true",
                        help="run a short demo workload and show its "
                             "snapshot")
    args = parser.parse_args(argv)

    if args.demo:
        snapshot = _demo_snapshot()
        render(snapshot, title="demo e1000 recv")
        render_cpus(snapshot)
        return 0
    if args.watch:
        if len(args.snapshots) != 2:
            parser.error("--watch takes exactly two snapshot files")
        diff_docs(_load(args.snapshots[0]), _load(args.snapshots[1]))
        return 0
    if not args.snapshots:
        parser.error("no snapshot files (or --demo) given")
    for path in args.snapshots:
        snapshot = _load(path)
        render(snapshot, title=path)
        render_cpus(snapshot)
    return 0


if __name__ == "__main__":
    sys.exit(main())
