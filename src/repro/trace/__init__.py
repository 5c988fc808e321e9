"""ktrace: structured tracing for the simulated kernel and XPC.

The tracer records events and span histograms; counts live in kstat,
and a trace summary carries the kstat delta over the trace session.

The tracepoint catalog, overhead contract and trace schema are
documented in DESIGN.md ("Observability"); the capture/report recipe
is in EXPERIMENTS.md.  Quick use::

    from repro.trace import Tracer
    tracer = Tracer(rig.kernel).install()
    ... run workload ...
    tracer.uninstall()
    from repro.trace.perfetto import write_chrome_trace
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev

or let a workload rig do the plumbing::

    result = netperf_recv(rig, trace="trace.json")
    from repro.trace import per_driver
    per_driver(result.trace_summary["kstat"])   # {driver: {count: n}}

then ``python -m repro.trace.report trace.json``.
"""

import os

from .core import TRACEPOINTS, TraceError, Tracer, per_driver
from .metrics import Histogram

__all__ = [
    "TRACEPOINTS",
    "TraceError",
    "Tracer",
    "Histogram",
    "per_driver",
    "begin_trace",
    "finish_trace",
]


def begin_trace(kernel, trace):
    """Normalize a workload's ``trace=`` argument into a session.

    ``trace`` may be:

    * falsy -- tracing stays off (returns ``None``);
    * a :class:`Tracer` for ``kernel`` -- used as-is (installed for the
      duration if it was not already);
    * a path (``str`` / ``os.PathLike``) -- a fresh tracer is installed
      and the Chrome-trace JSON is written there at finish;
    * ``True`` -- a fresh tracer, summary only, no file.

    Returns an opaque session handle for :func:`finish_trace`.
    """
    if not trace:
        return None
    if isinstance(trace, Tracer):
        if trace.kernel is not kernel:
            raise TraceError("trace= tracer belongs to a different kernel")
        tracer, path = trace, None
        owned = not tracer.installed
        if owned:
            tracer.install()
    else:
        path = os.fspath(trace) if not isinstance(trace, bool) else None
        tracer = Tracer(kernel).install()
        owned = True
    return (tracer, owned, path)


def finish_trace(session, result):
    """Close a :func:`begin_trace` session.

    Snapshots the tracer's summary into ``result.trace_summary``,
    writes the export file if a path was given, and uninstalls the
    tracer if this session installed it.  Returns the tracer (so
    callers that passed a path can still inspect events).
    """
    if session is None:
        return None
    tracer, owned, path = session
    if result is not None:
        result.trace_summary = tracer.summary()
    if path is not None:
        from .perfetto import write_chrome_trace

        write_chrome_trace(tracer, path)
    if owned:
        tracer.uninstall()
    return tracer
