"""Summarize a flight-recorder crash dump.

Usage::

    python -m repro.health.postmortem DUMP.json [--ring N] [--dmesg N]

A dump is what :meth:`repro.health.HealthPlane.dump` wrote: reason,
flight ring, kstat snapshot, dmesg tail, per-CPU state, watchdog
state.  The summary leads with what fired and when, then the evidence
closest to the event.
"""

import argparse
import json
import sys


def _ms(ns):
    return "%.3f ms" % (ns / 1e6)


def summarize(report, ring_tail=20, dmesg_tail=10, out=None):
    """Human summary of one dump dict; returns the parsed report."""
    out = out if out is not None else sys.stdout
    print("== health dump: %s ==" % report.get("reason", "?"), file=out)
    print("at %s (virtual)" % _ms(report.get("ts_ns", 0)), file=out)
    detail = report.get("detail") or {}
    for key in sorted(detail):
        print("  %s = %s" % (key, detail[key]), file=out)

    events = (report.get("watchdog") or {}).get("events") or []
    if events:
        print("-- watchdog --", file=out)
        for event in events:
            print("  [%s] %s on %s: %s" % (
                _ms(event.get("ts_ns", 0)), event.get("kind"),
                event.get("target"), event.get("detail")), file=out)

    cpus = report.get("cpus") or []
    if cpus:
        print("-- cpus --", file=out)
        for cpu in cpus:
            cats = ", ".join(
                "%s=%s" % (c, _ms(n))
                for c, n in sorted((cpu.get("by_category") or {}).items()))
            print("  cpu%s: %s busy in %s, busy %s" % (
                cpu.get("index"), cpu.get("context"),
                _ms(cpu.get("busy_ns", 0)), cats or "(nothing)"), file=out)

    dmesg = report.get("dmesg") or []
    if dmesg:
        print("-- dmesg (last %d of %d) --"
              % (min(dmesg_tail, len(dmesg)), len(dmesg)), file=out)
        for entry in dmesg[-dmesg_tail:]:
            print("  [%s] %s: %s" % (_ms(entry.get("ts_ns", 0)),
                                     entry.get("level"),
                                     entry.get("msg")), file=out)

    ring = report.get("ring") or []
    if ring:
        print("-- flight ring (last %d of %d) --"
              % (min(ring_tail, len(ring)), len(ring)), file=out)
        for entry in ring[-ring_tail:]:
            print("  [%s] cpu%s %s %s" % (
                _ms(entry.get("ts_ns", 0)), entry.get("cpu"),
                entry.get("name"), entry.get("args") or ""), file=out)

    kstat = report.get("kstat") or {}
    highlights = sorted(
        name for name in kstat
        if name.startswith(("health.", "recovery.", "irq.delivered",
                            "xpc.boundary_faults")))
    if highlights:
        print("-- kstat highlights --", file=out)
        for name in highlights:
            print("  %s = %s" % (name, kstat[name]), file=out)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.health.postmortem",
        description="Summarize a health-plane crash dump.")
    parser.add_argument("dumps", nargs="+", help="dump JSON file(s)")
    parser.add_argument("--ring", type=int, default=20,
                        help="flight-ring tail length (default 20)")
    parser.add_argument("--dmesg", type=int, default=10,
                        help="dmesg tail length (default 10)")
    args = parser.parse_args(argv)
    for path in args.dumps:
        with open(path) as fh:
            report = json.load(fh)
        summarize(report, ring_tail=args.ring, dmesg_tail=args.dmesg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
