"""ktrace: the structured event tracer for the simulated kernel.

Design goals, in order:

1. **Near-zero cost when disabled.**  Instrumented call sites guard
   every tracepoint with ``tracer = kernel.tracer`` / ``if tracer is
   not None`` -- one attribute load and one identity test, nothing
   else.  No tracer object, no argument packing, no string formatting
   happens on the disabled path; ``benchmarks/test_trace_overhead.py``
   asserts the aggregate guard cost stays under 3% of the hottest
   workload.

2. **Virtual-time, structured, replayable.**  Every event carries the
   deterministic virtual-ns timestamp, the execution context the CPU
   was in (hardirq / softirq / process) and the number of spinlocks
   held, plus typed per-tracepoint args.  Two runs of the same rig
   produce byte-identical traces.

3. **Attribution.**  XPC spans carry the driver (channel) name and the
   callsite (the driver function crossing the boundary), marshal byte
   and field counts, delta-trip savings, and object-tracker hit/miss
   -- every crossing in a run is attributable.

The tracer keeps no counters: every count lives in kstat
(:mod:`repro.health.kstat`), and :meth:`Tracer.summary` embeds the
kstat delta since :meth:`Tracer.install` next to the span histograms.
Consumers: ``WorkloadResult.trace_summary``, the Perfetto /
Chrome-trace exporter (:mod:`repro.trace.perfetto`), and the report
CLI (``python -m repro.trace.report``).
"""

from .metrics import Histogram

#: The tracepoint catalog: every name the instrumented layers may emit,
#: with phase ("X" = span, "i" = instant) and a one-line description.
#: :meth:`Tracer.instant` / :meth:`Tracer.span` validate names against
#: this registry (cheaply, via set membership) so a typo'd tracepoint
#: fails loudly in tests instead of producing an orphan event stream.
TRACEPOINTS = {
    # IRQ / softirq / NAPI
    "irq": ("X", "hardirq dispatch span (entry to handler return)"),
    "irq.spurious": ("i", "interrupt with no handler or IRQ_NONE return"),
    "napi.schedule": ("i", "napi_schedule from the interrupt handler"),
    "napi.poll": ("X", "one driver poll(napi, weight) call"),
    "softirq.net_rx": ("X", "net-rx softirq budget loop run"),
    # Timers / deferred work
    "timer.arm": ("i", "kernel timer (re)armed by mod_timer"),
    "timer.cancel": ("i", "pending timer cancelled"),
    "timer.fire": ("X", "timer callback span"),
    "work.item": ("X", "workqueue item execution span"),
    # Locks
    "lock.held": ("X", "lock hold span (acquire to release)"),
    "lockdep.report": ("i", "runtime lock validator recorded a violation"),
    # XPC (cat 'xpc' spans each pay one kernel/user crossing)
    "xpc.upcall": ("X", "kernel->user round trip"),
    "xpc.downcall": ("X", "user->kernel round trip"),
    "xpc.flush": ("X", "batched deferred-notification crossing"),
    "xpc.lang": ("X", "C<->Java language crossing (marshaled)"),
    "xpc.direct": ("X", "scalar-only direct cross-language call"),
    "xpc.defer": ("i", "one-way notification enqueued (no crossing)"),
    # Failure boundary / fault injection / recovery
    "xpc.fault": ("i", "unchecked exception contained at the boundary"),
    "xpc.deferred_error": ("i", "deferred notification handler raised"),
    "fault.inject": ("i", "an armed fault spec fired"),
    "recovery.fault": ("i", "supervisor notified of a driver fault"),
    "recovery.restart": ("X", "quiesce + restart + replay span"),
    "recovery.replay": ("i", "one replay-log operation re-executed"),
    "recovery.complete": ("i", "driver healthy again after restart"),
    "recovery.giveup": ("i", "supervisor stopped recovering this driver"),
    # Logging
    "printk": ("i", "kernel log line"),
    # Health plane
    "health.watchdog": ("i", "stall watchdog fired (soft lockup / hung task)"),
    "health.dump": ("i", "flight recorder wrote a crash report"),
}

_VALID_NAMES = frozenset(TRACEPOINTS)


class TraceError(Exception):
    pass


class Tracer:
    """Per-kernel structured event tracer.

    Install with :meth:`install` (sets ``kernel.tracer``); every
    instrumented layer then emits events here.  ``enable`` restricts
    collection to a subset of tracepoint names; ``max_events`` bounds
    memory (overflow increments :attr:`dropped` instead of growing).

    Internal event schema (one dict per event)::

        {"name": str,   # tracepoint name (TRACEPOINTS key)
         "cat":  str,   # category, defaults to name's first component
         "ph":   "X"|"i",
         "ts":   int,   # virtual ns (span start for "X")
         "dur":  int,   # virtual ns, "X" only
         "ctx":  "hardirq"|"softirq"|"process",
         "locks": int,  # spinlocks held at emission
         "args": dict}
    """

    def __init__(self, kernel, name="trace", enable=None, max_events=1_000_000):
        self.kernel = kernel
        self.name = name
        self.events = []
        self.dropped = 0
        self.max_events = max_events
        # Log2 span histograms by name (IRQ, IRQ->poll, XPC round trip,
        # lock hold time per kind).
        self.histograms = {}
        # kstat snapshot at install: summary() reports the delta.
        self._kstat0 = {}
        self._enabled = frozenset(enable) if enable is not None else None
        if self._enabled is not None:
            unknown = self._enabled - _VALID_NAMES
            if unknown:
                raise TraceError(
                    "unknown tracepoint(s): %s" % ", ".join(sorted(unknown)))
        self.installed = False
        # Flight recorder of the kernel's health plane (if installed):
        # instant/span mirror every event into its ring *before* the
        # enable-filter, so the ring always holds the recent past even
        # when the tracer only collects a subset.
        self.flight = None
        # Pre-resolved hot histograms (skip dict lookups on hot spans).
        self._hist_irq = self.histogram("irq_ns")
        self._hist_irq_to_poll = self.histogram("irq_to_poll_ns")
        self._hist_xpc_rt = self.histogram("xpc.roundtrip_ns")

    def histogram(self, name):
        """The named histogram, created on first use."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        return hist

    # -- lifecycle ----------------------------------------------------------

    def install(self):
        """Attach to the kernel; tracepoints start flowing."""
        if self.kernel.tracer is not None:
            raise TraceError("kernel already has a tracer installed")
        self.kernel.tracer = self
        self._kstat0 = self.kernel.kstat.snapshot()
        health = self.kernel.health
        if health is not None:
            self.flight = health.flight
        self.installed = True
        return self

    def uninstall(self):
        """Detach; the kernel returns to the zero-cost disabled path."""
        if not self.installed:
            return
        self.kernel.tracer = None
        self.flight = None
        self.installed = False

    # -- raw emission -------------------------------------------------------

    def wants(self, name):
        return self._enabled is None or name in self._enabled

    def now(self):
        """Virtual-ns timestamp for starting a span at a call site."""
        return self.kernel.clock.now_ns

    def _append(self, ev):
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(ev)

    def instant(self, name, args=None, cat=None):
        if name not in _VALID_NAMES:
            raise TraceError("unregistered tracepoint %r" % name)
        flight = self.flight
        if flight is not None:
            kernel = self.kernel
            flight.mirror(kernel.clock.now_ns, kernel.current_cpu.index,
                          name, args if args is not None else {})
        if self._enabled is not None and name not in self._enabled:
            return
        kernel = self.kernel
        self._append({
            "name": name,
            "cat": cat or name.split(".", 1)[0],
            "ph": "i",
            "ts": kernel.clock.now_ns,
            "cpu": kernel.current_cpu.index,
            "ctx": kernel.context.current_context(),
            "locks": len(kernel.context._spinlocks_held),
            "args": args if args is not None else {},
        })

    def span(self, name, start_ns, args=None, cat=None, ctx=None):
        """Emit a complete span from ``start_ns`` to now.

        ``ctx`` overrides context capture for sites that emit after the
        context has already been exited (e.g. the IRQ dispatcher).
        """
        if name not in _VALID_NAMES:
            raise TraceError("unregistered tracepoint %r" % name)
        flight = self.flight
        if flight is not None:
            kernel = self.kernel
            flight.mirror(start_ns, kernel.current_cpu.index,
                          name, args if args is not None else {})
        if self._enabled is not None and name not in self._enabled:
            return
        kernel = self.kernel
        now = kernel.clock.now_ns
        self._append({
            "name": name,
            "cat": cat or name.split(".", 1)[0],
            "ph": "X",
            "ts": start_ns,
            "dur": now - start_ns,
            "cpu": kernel.current_cpu.index,
            "ctx": ctx or kernel.context.current_context(),
            "locks": len(kernel.context._spinlocks_held),
            "args": args if args is not None else {},
        })

    # -- typed tracepoint helpers (one per instrumented subsystem) ----------

    def irq_span(self, start_ns, irq, name, handled):
        dur = self.kernel.clock.now_ns - start_ns
        self._hist_irq.record(dur)
        self.span("irq", start_ns,
                  {"irq": irq, "handler": name, "handled": handled},
                  cat="irq", ctx="hardirq")

    def napi_poll_span(self, start_ns, napi_name, work, weight,
                       sched_latency_ns):
        args = {"napi": napi_name, "work": work, "weight": weight}
        if sched_latency_ns is not None:
            self._hist_irq_to_poll.record(sched_latency_ns)
            args["irq_to_poll_ns"] = sched_latency_ns
        self.span("napi.poll", start_ns, args, cat="napi")

    def lock_span(self, start_ns, lock_name, kind):
        """Lock hold span: acquire at ``start_ns``, release now."""
        hold = self.kernel.clock.now_ns - start_ns
        self.histogram("lock.hold_ns.%s" % kind).record(hold)
        self.span("lock.held", start_ns, {"lock": lock_name, "kind": kind},
                  cat="lock")

    def xpc_span(self, name, start_ns, driver, callsite, transfers,
                 cat="xpc", extra_args=None):
        """An XPC crossing span with full marshal attribution.

        ``transfers`` is a sequence of
        ``(bytes, fields, tracker_lookups, tracker_hits, delta_saved)``
        tuples -- one per ``_transfer_args`` the span performed (forward
        and return trips, or one per batched notification).  cat "xpc"
        marks spans that paid one kernel/user crossing; language
        crossings use cat "xpc.lang".
        """
        nbytes = nfields = lookups = hits = saved = 0
        for t in transfers:
            nbytes += t[0]
            nfields += t[1]
            lookups += t[2]
            hits += t[3]
            saved += t[4]
        args = {
            "driver": driver,
            "callsite": callsite,
            "bytes": nbytes,
            "fields": nfields,
            "tracker_lookups": lookups,
            "tracker_hits": hits,
            "delta_fields_saved": saved,
        }
        if extra_args:
            args.update(extra_args)
        if cat == "xpc":
            self._hist_xpc_rt.record(self.kernel.clock.now_ns - start_ns)
        self.span(name, start_ns, args, cat=cat)

    # -- summaries ----------------------------------------------------------

    def summary(self):
        """Everything a result row needs: event counts, span histograms
        and the kstat delta over the trace session (since install)."""
        kstat = self.kernel.kstat
        return {
            "tracer": self.name,
            "clock": "virtual-ns",
            "events": len(self.events),
            "dropped": self.dropped,
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self.histograms.items())
            },
            "kstat": kstat.delta(self._kstat0, kstat.snapshot()),
        }


def per_driver(kstat):
    """Table-3-style per-driver XPC breakdown of a kstat dict.

    Reads the per-driver ``xpc.<driver>.<count>`` keys; the summed
    ``xpc.<count>`` keys have no driver part and are skipped.
    """
    out = {}
    for key, value in kstat.items():
        prefix, _, rest = key.partition(".")
        driver, _, count = rest.partition(".")
        if prefix == "xpc" and count:
            out.setdefault(driver, {})[count] = value
    return out
