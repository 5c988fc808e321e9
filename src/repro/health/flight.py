"""Flight recorder: the last N things that happened, always.

A bounded ring of compact ``(ts_ns, cpu, name, args)`` records that is
*always* collecting while the health plane is installed -- independent
of whether a ktrace :class:`~repro.trace.Tracer` is attached, and
independent of any tracer's enable-filter.  Each record has exactly one
writer:

1. With no tracer installed, ``Kernel.printk`` notes every log line
   here (printk is cold), and the health plane's cold sites call
   :meth:`note` directly: watchdog fires, XPC boundary containment,
   lockdep reports.  Fault injection and recovery steps never note;
   they reach the ring through their printk lines.
2. With a ktrace tracer installed, none of those sites note: the
   tracer mirrors every emitted tracepoint (printk, ``xpc.fault``,
   ``health.watchdog``, ``recovery.*`` ...) into this ring before
   applying its enable-filter (``Tracer.instant`` / ``Tracer.span``),
   so a traced run's ring holds the full recent event stream.

On a crash-grade condition (boundary fault, watchdog fire, lockdep
report) :meth:`HealthPlane.dump` freezes the ring into a JSON crash
report alongside a kstat snapshot, the dmesg tail, and per-CPU state.
``python -m repro.health.postmortem`` summarizes one.
"""

from collections import deque

DEFAULT_CAPACITY = 8192


class FlightRecorder:
    def __init__(self, kernel, capacity=DEFAULT_CAPACITY):
        self._kernel = kernel
        self.capacity = capacity
        # The ring is a maxlen deque: appends at capacity evict the
        # oldest record in O(1) -- the "lock-free ring" of the real
        # kernel's per-CPU trace buffers, minus the CPUs (the simulator
        # is single-threaded; determinism stands in for atomicity).
        self.ring = deque(maxlen=capacity)
        self.recorded = 0

    def note(self, name, args=None):
        """Record one event.  Cold paths only -- hot paths either pay
        nothing (no tracer) or are mirrored via the tracer."""
        kernel = self._kernel
        self.recorded += 1
        self.ring.append((kernel.clock.now_ns, kernel.current_cpu.index,
                          name, args if args is not None else {}))

    def mirror(self, ts_ns, cpu, name, args):
        """Tracer-side mirroring entry point (pre-built fields)."""
        self.recorded += 1
        self.ring.append((ts_ns, cpu, name, args))

    def snapshot(self):
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "buffered": len(self.ring),
        }


def sanitize(value, depth=0):
    """Make a record JSON-serializable without trusting its contents.

    Ring args may hold arbitrary objects (exceptions, devices).  Dump
    files must always be writable, so anything non-primitive collapses
    to ``repr`` and nesting is bounded.
    """
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if depth >= 4:
        return repr(value)
    if isinstance(value, dict):
        return {str(k): sanitize(v, depth + 1) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v, depth + 1) for v in value]
    return repr(value)
