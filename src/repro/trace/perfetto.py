"""Chrome-trace-event / Perfetto JSON export.

Traces export in the Chrome trace-event JSON format, which
``ui.perfetto.dev`` (and ``chrome://tracing``) open directly.  The
virtual clock maps onto the trace timebase as 1 virtual ns = 0.001
"microseconds", so Perfetto's timeline shows exact virtual time.

Execution contexts map to synthetic threads of one process, so the
hardirq / softirq / process interleaving reads as three swimlanes:

    tid 1  process
    tid 2  softirq
    tid 3  hardirq

The exporter also embeds the tracer's summary (span histograms and
the kstat delta of the trace session) under ``otherData.trace_summary``
(ignored by viewers, consumed by ``repro.trace.report``).
"""

import json

CTX_TIDS = {"process": 1, "softirq": 2, "hardirq": 3}
PID = 1


def chrome_trace_events(tracer):
    """The tracer's event list in Chrome trace-event dict form."""
    out = []
    for ctx, tid in sorted(CTX_TIDS.items(), key=lambda kv: kv[1]):
        out.append({
            "ph": "M", "pid": PID, "tid": tid, "name": "thread_name",
            "args": {"name": ctx},
        })
    for ev in tracer.events:
        args = dict(ev["args"])
        args["ctx"] = ev["ctx"]
        args["locks_held"] = ev["locks"]
        rec = {
            "name": ev["name"],
            "cat": ev["cat"],
            "ph": ev["ph"],
            "ts": ev["ts"] / 1000.0,
            "pid": PID,
            "tid": CTX_TIDS.get(ev["ctx"], 1),
            "args": args,
        }
        if ev["ph"] == "X":
            rec["dur"] = ev["dur"] / 1000.0
        elif ev["ph"] == "i":
            rec["s"] = "t"  # instant scope: thread
        out.append(rec)
    return out


def chrome_trace(tracer):
    """Full Chrome-trace JSON document (as a dict) for ``tracer``."""
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "virtual-ns (1 trace us == 1000 virtual ns)",
            "tracer": tracer.name,
            "trace_summary": tracer.summary(),
        },
    }


def write_chrome_trace(tracer, path):
    """Export ``tracer`` to ``path``; returns the document dict."""
    doc = chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def load_trace(path):
    with open(path) as fh:
        return json.load(fh)


def span_events(doc, cat=None, name=None):
    """The "X" (complete span) events of a loaded trace document."""
    return [
        ev for ev in doc.get("traceEvents", ())
        if ev.get("ph") == "X"
        and (cat is None or ev.get("cat") == cat)
        and (name is None or ev.get("name") == name)
    ]
