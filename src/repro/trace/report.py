"""Trace / bench summarizer and differ.

Usage::

    python -m repro.trace.report trace.json [--top N]
    python -m repro.trace.report --diff a.json b.json [--threshold PCT]

The first form summarizes one exported Chrome-trace file: top-N XPC
callsites by marshaled bytes and by crossings, the lock hold-time
table, IRQ->poll latency percentiles, and the softirq budget timeline.

The second form diffs two runs: two exported traces (their embedded
summaries, kstat delta included, are compared), two
``WorkloadResult.kstat`` dumps, or two ``BENCH_*.json`` files (every
numeric leaf is compared).  Counters that moved more than the
threshold (default 10%) are flagged with ``!``.  ``python -m
repro.health.top --watch`` prints the same diff for two kstat
snapshots.
"""

import argparse
import json
import sys

from .core import per_driver


def _fmt_ns(ns):
    ns = float(ns)
    if ns >= 1e6:
        return "%.3f ms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.3f us" % (ns / 1e3)
    return "%d ns" % ns


def _print_table(title, headers, rows, out):
    out = out or sys.stdout
    print(title, file=out)
    if not rows:
        print("  (none)", file=out)
        print(file=out)
        return
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(headers)]
    print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
          file=out)
    for row in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)),
              file=out)
    print(file=out)


def _spans(doc, cat=None, name=None):
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "X":
            continue
        if cat is not None and ev.get("cat") != cat:
            continue
        if name is not None and ev.get("name") != name:
            continue
        yield ev


def _percentiles(values, points=(50, 90, 99)):
    if not values:
        return {p: 0 for p in points}, 0
    ordered = sorted(values)
    out = {}
    for p in points:
        index = min(len(ordered) - 1, max(0, int(p / 100.0 * len(ordered))))
        out[p] = ordered[index]
    return out, ordered[-1]


def report_trace(doc, top=10, out=None):
    """Summarize one loaded Chrome-trace document."""
    out = out or sys.stdout
    summary = doc.get("otherData", {}).get("trace_summary", {})
    print("trace: %d events (%d dropped), clock %s" % (
        summary.get("events", len(doc.get("traceEvents", []))),
        summary.get("dropped", 0),
        doc.get("otherData", {}).get("clock", "?")), file=out)
    print(file=out)

    # -- XPC callsites ------------------------------------------------------
    sites = {}
    for ev in _spans(doc):
        if ev.get("cat") not in ("xpc", "xpc.lang"):
            continue
        a = ev.get("args", {})
        key = (a.get("driver", "?"), a.get("callsite", "?"))
        site = sites.setdefault(
            key, {"crossings": 0, "bytes": 0, "fields": 0, "dur_ns": 0.0,
                  "kind": ev["name"]})
        site["crossings"] += 1
        site["bytes"] += a.get("bytes", 0)
        site["fields"] += a.get("fields", 0)
        site["dur_ns"] += ev.get("dur", 0.0) * 1000.0

    def site_rows(order_key):
        ranked = sorted(sites.items(), key=order_key, reverse=True)[:top]
        return [
            (driver, callsite, s["kind"], s["crossings"], s["bytes"],
             s["fields"], _fmt_ns(s["dur_ns"]))
            for (driver, callsite), s in ranked
        ]

    headers = ["driver", "callsite", "kind", "crossings", "bytes", "fields",
               "total time"]
    _print_table("top XPC callsites by marshaled bytes", headers,
                 site_rows(lambda kv: kv[1]["bytes"]), out)
    _print_table("top XPC callsites by crossings", headers,
                 site_rows(lambda kv: kv[1]["crossings"]), out)

    # -- lock hold times ----------------------------------------------------
    locks = {}
    for ev in _spans(doc, cat="lock"):
        a = ev.get("args", {})
        key = (a.get("lock", "?"), a.get("kind", "?"))
        rec = locks.setdefault(key, [])
        rec.append(ev.get("dur", 0.0) * 1000.0)
    rows = []
    for (lock, kind), holds in sorted(
            locks.items(), key=lambda kv: -sum(kv[1]))[:top]:
        pct, mx = _percentiles(holds)
        rows.append((lock, kind, len(holds), _fmt_ns(sum(holds)),
                     _fmt_ns(pct[50]), _fmt_ns(mx)))
    _print_table("lock hold times (contention table)",
                 ["lock", "kind", "acquisitions", "total held", "p50", "max"],
                 rows, out)
    hold_hists = {
        name: h for name, h in summary.get("histograms", {}).items()
        if name.startswith("lock.hold_ns")
    }
    for name, h in sorted(hold_hists.items()):
        print("  histogram %s: count=%d p50=%s p99=%s max=%s" % (
            name, h["count"], _fmt_ns(h["p50"]), _fmt_ns(h["p99"]),
            _fmt_ns(h["max"])), file=out)
    if hold_hists:
        print(file=out)

    # -- IRQ -> poll latency -------------------------------------------------
    lat = [ev["args"]["irq_to_poll_ns"]
           for ev in _spans(doc, name="napi.poll")
           if "irq_to_poll_ns" in ev.get("args", {})]
    pct, mx = _percentiles(lat)
    print("IRQ->poll latency: %d samples, p50=%s p90=%s p99=%s max=%s" % (
        len(lat), _fmt_ns(pct[50]), _fmt_ns(pct[90]), _fmt_ns(pct[99]),
        _fmt_ns(mx)), file=out)
    print(file=out)

    # -- softirq budget timeline --------------------------------------------
    runs = list(_spans(doc, name="softirq.net_rx"))
    rows = [
        ("%.3f" % (ev["ts"] / 1000.0), _fmt_ns(ev.get("dur", 0) * 1000.0),
         ev["args"].get("polls", "?"), ev["args"].get("work", "?"),
         ev["args"].get("budget_left", "?"), ev["args"].get("requeued", "?"))
        for ev in runs[:top]
    ]
    _print_table(
        "softirq budget timeline (first %d of %d runs)" % (len(rows),
                                                           len(runs)),
        ["t (trace us)", "span", "polls", "work", "budget left", "requeued"],
        rows, out)

    # -- per-driver breakdown -----------------------------------------------
    drivers = per_driver(summary.get("kstat", {}))
    keys = sorted({k for d in drivers.values() for k in d})
    _print_table(
        "per-driver XPC breakdown (Table 3 style)",
        ["driver"] + keys,
        [[driver] + [d.get(k, 0) for k in keys]
         for driver, d in sorted(drivers.items())],
        out)


# -- diffing -------------------------------------------------------------------


def _numeric_leaves(node, prefix=""):
    """Flatten nested dicts/lists to dotted-path -> number."""
    out = {}
    if isinstance(node, bool):
        return out
    if isinstance(node, (int, float)):
        out[prefix or "value"] = node
    elif isinstance(node, dict):
        for key in node:
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            out.update(_numeric_leaves(node[key], path))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            out.update(_numeric_leaves(item, "%s[%d]" % (prefix, i)))
    return out


def _comparable(doc):
    """The numeric-leaf dict a trace or bench JSON diff runs over."""
    if isinstance(doc, dict) and "traceEvents" in doc:
        summary = dict(doc.get("otherData", {}).get("trace_summary", {}))
        summary.pop("histograms", None)  # bucket noise; kstat suffices
        return _numeric_leaves(summary)
    return _numeric_leaves(doc)


def diff_docs(doc_a, doc_b, threshold_pct=10.0, out=None):
    """Print a counter diff; returns the number of flagged counters.

    Counters present in both docs diff as percentages.  Counters in
    only one doc get no percentage -- a vanished counter is not a
    "-100% regression" and an appeared one has no base to divide by;
    both land in an explicit new/gone section instead (still flagged,
    since a counter appearing or vanishing between runs is exactly the
    kind of change a diff exists to surface).
    """
    out = out or sys.stdout
    a, b = _comparable(doc_a), _comparable(doc_b)
    flagged = 0
    rows = []
    for path in sorted(set(a) & set(b)):
        va, vb = a[path], b[path]
        if va == vb:
            continue
        if va == 0:
            # Grew from zero: no base to divide by; always flag.
            pct, delta = None, "from 0"
        else:
            pct = 100.0 * (vb - va) / abs(va)
            delta = "%+.1f%%" % pct
        mark = ""
        if pct is None or abs(pct) > threshold_pct:
            mark = "!"
            flagged += 1
        rows.append((mark, path, va, vb, delta))
    _print_table(
        "diff (threshold %.0f%%; '!' = counter moved beyond it)"
        % threshold_pct,
        ["", "counter", "a", "b", "delta"], rows, out)

    new = sorted(set(b) - set(a))
    gone = sorted(set(a) - set(b))
    if new or gone:
        section = [("!", path, "-", b[path], "new") for path in new]
        section += [("!", path, a[path], "-", "gone") for path in gone]
        flagged += len(section)
        _print_table("only in one doc (%d new, %d gone)"
                     % (len(new), len(gone)),
                     ["", "counter", "a", "b", "delta"], section, out)
    print("%d counter(s) moved > %.0f%%" % (flagged, threshold_pct), file=out)
    return flagged


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", metavar="trace.json",
                        help="exported trace file(s) to summarize")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="diff two trace, kstat or BENCH_*.json files")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per ranking table (default 10)")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="diff flag threshold in percent (default 10)")
    args = parser.parse_args(argv)

    if args.diff:
        with open(args.diff[0]) as fh:
            doc_a = json.load(fh)
        with open(args.diff[1]) as fh:
            doc_b = json.load(fh)
        diff_docs(doc_a, doc_b, threshold_pct=args.threshold)
        return 0

    if not args.paths:
        parser.error("give at least one trace file, or --diff A B")
    for path in args.paths:
        with open(path) as fh:
            doc = json.load(fh)
        print("== %s ==" % path)
        report_trace(doc, top=args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
