"""Discrete-event machinery for the simulated kernel.

The kernel owns a single event queue ordered by virtual time.  Timers,
deferred work, device completions (EEPROM reads, DMA, link negotiation) and
workload pacing are all events.  Events run in a declared execution context
(hardirq / softirq / process), and the context rules of
:mod:`repro.kernel.context` apply while they run.
"""

import heapq
import itertools

from .context import HARDIRQ, PROCESS, SOFTIRQ
from .errors import SimulationError

_VALID_CONTEXTS = (HARDIRQ, SOFTIRQ, PROCESS)

#: "No event anywhere" value of ``EventQueue.next_due_ns``; far beyond
#: any simulated time.
FAR_NS = 1 << 62


class Event:
    """A scheduled callback; cancellable, single-shot."""

    __slots__ = ("time_ns", "seq", "callback", "context", "name", "cancelled",
                 "needs_sched", "cpu")

    def __init__(self, time_ns, seq, callback, context, name,
                 needs_sched=False, cpu=None):
        self.time_ns = time_ns
        self.seq = seq
        self.callback = callback
        self.context = context
        self.name = name
        self.cancelled = False
        # True for scheduler-dispatched process work (workqueue items):
        # the callback must wait until the CPU leaves atomic context.
        # Plain process-context events (device completions, wire
        # deliveries, workload pacing) are environmental and fire on
        # time regardless of what the CPU is doing.
        self.needs_sched = needs_sched
        # Target virtual CPU index, or None for "wherever the clock is"
        # (classic single-CPU semantics).  A targeted event waits for
        # its CPU's busy window to close before dispatch.
        self.cpu = cpu

    def cancel(self):
        # The entry stays on the heap until it reaches the head; drop
        # the callback so it pins no driver or device state meanwhile.
        self.cancelled = True
        self.callback = None

    def __repr__(self):
        return "<Event %s @%dns ctx=%s%s>" % (
            self.name,
            self.time_ns,
            self.context,
            " cancelled" if self.cancelled else "",
        )


class EventQueue:
    """Time-ordered queue with stable FIFO ordering for equal timestamps.

    Every event -- one-shot completions, kernel timers, device throttle
    windows, work items -- is one ``(time_ns, seq, ev)`` tuple on a
    single min-heap.  Seqs are unique, so ``heapq`` orders entries in C
    and never reaches the event itself.  ``cancel`` leaves the entry in
    place; cancelled entries are popped when they reach the head.
    """

    def __init__(self, clock):
        self._clock = clock
        self._heap = []
        self._seq = itertools.count()
        # Lower bound on the next live event's time, kept for
        # Kernel.consume: it advances the clock without a heap peek
        # while target < next_due_ns, and stores the exact next time
        # after a peek.  An insert at t lowers it to min(bound, t);
        # removals only move the true next event later, so a stale
        # bound stays conservative.  -1 means unknown.
        self.next_due_ns = -1

    def __len__(self):
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def schedule_at(self, time_ns, callback, context=PROCESS, name="event",
                    cpu=None):
        if context not in _VALID_CONTEXTS:
            raise SimulationError("unknown event context %r" % (context,))
        if time_ns < self._clock.now_ns:
            # Late events run "now"; the queue never travels backwards.
            time_ns = self._clock.now_ns
        seq = next(self._seq)
        ev = Event(time_ns, seq, callback, context, name, cpu=cpu)
        heapq.heappush(self._heap, (time_ns, seq, ev))
        if time_ns < self.next_due_ns:
            self.next_due_ns = time_ns
        return ev

    def schedule_after(self, delay_ns, callback, context=PROCESS, name="event",
                       needs_sched=False, cpu=None):
        # Not routed through schedule_at: this is the per-packet
        # scheduling path.
        if context not in _VALID_CONTEXTS:
            raise SimulationError("unknown event context %r" % (context,))
        now = self._clock.now_ns
        time_ns = now + delay_ns if delay_ns > 0 else now
        seq = next(self._seq)
        ev = Event(time_ns, seq, callback, context, name,
                   needs_sched=needs_sched, cpu=cpu)
        heapq.heappush(self._heap, (time_ns, seq, ev))
        if time_ns < self.next_due_ns:
            self.next_due_ns = time_ns
        return ev

    def requeue(self, ev, time_ns):
        """Push a popped event back, re-timed (SMP busy-window deferral).

        The event keeps its original sequence number, so among events
        re-landing at the same instant the earliest-scheduled still runs
        first -- deterministic round-robin across busy CPUs.
        """
        ev.time_ns = time_ns
        heapq.heappush(self._heap, (time_ns, ev.seq, ev))
        if time_ns < self.next_due_ns:
            self.next_due_ns = time_ns

    def peek_time(self):
        """Virtual time of the next live event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pop_due(self, target_ns):
        """Pop the next live event due at or before ``target_ns``."""
        due = self.peek_time()
        if due is not None and due <= target_ns:
            return heapq.heappop(self._heap)[2]
        return None
