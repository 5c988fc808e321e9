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
    """A scheduled callback; cancellable; a RecurringEvent re-arms one."""

    __slots__ = ("time_ns", "seq", "callback", "context", "name", "cancelled",
                 "needs_sched", "cpu", "queued")

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
        # On the heap or parked; the dispatcher clears it when the
        # callback runs.
        self.queued = True

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


class RecurringEvent:
    """An event source with at most one firing queued.

    Arming pushes the source's one :class:`Event` again once it has
    fired, re-timed and with a seq drawn at arm time, as a fresh
    ``schedule_*`` call would: dispatch order and event counts do not
    depend on which of the two a source uses.  ``cancel`` leaves a
    tombstone like :meth:`Event.cancel`; the next arm makes a new event.
    Arming while the firing is queued (or parked) raises.
    """

    __slots__ = ("_queue", "_clock", "_spec", "event")

    def __init__(self, queue, *spec):
        self._queue = queue
        self._clock = queue._clock
        self._spec = spec  # Event's callback, context, name, needs_sched, cpu
        self.event = None  # before the first arm and after cancel

    @property
    def pending(self):
        ev = self.event
        return ev is not None and ev.queued

    @property
    def due_ns(self):
        """Virtual time of the queued firing, or None."""
        return self.event.time_ns if self.pending else None

    def arm_at(self, time_ns):
        now = self._clock._now_ns
        return self._arm(time_ns if time_ns > now else now)

    def arm_after(self, delay_ns):
        now = self._clock._now_ns
        return self._arm(now + delay_ns if delay_ns > 0 else now)

    def _arm(self, time_ns):
        queue = self._queue
        ev = self.event
        if ev is None:
            self.event = queue._insert(time_ns, *self._spec)
            return time_ns
        if ev.queued:
            raise SimulationError("%s armed while its firing is queued"
                                  % ev.name)
        ev.time_ns = time_ns
        ev.seq = seq = next(queue._seq)
        ev.queued = True
        heapq.heappush(queue._heap, (time_ns, seq, ev))
        if time_ns < queue.next_due_ns:
            queue.next_due_ns = time_ns
        return time_ns

    def cancel(self):
        """Drop the queued firing; returns True if one was queued."""
        if not self.pending:
            return False
        self.event.cancel()
        self.event = None
        return True


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
        # Late events run "now"; the queue never travels backwards.
        now = self._clock._now_ns
        return self._insert(time_ns if time_ns > now else now, callback,
                            context, name, False, cpu)

    def schedule_after(self, delay_ns, callback, context=PROCESS, name="event",
                       needs_sched=False, cpu=None):
        now = self._clock._now_ns
        return self._insert(now + delay_ns if delay_ns > 0 else now, callback,
                            context, name, needs_sched, cpu)

    def recurring(self, callback, context=PROCESS, name="event", cpu=None,
                  needs_sched=False):
        """A :class:`RecurringEvent`: one event, re-armed after each
        firing, for a source with at most one firing queued."""
        return RecurringEvent(self, callback, context, name, needs_sched, cpu)

    def _insert(self, time_ns, callback, context, name, needs_sched, cpu):
        if context not in _VALID_CONTEXTS:
            raise SimulationError("unknown event context %r" % (context,))
        seq = next(self._seq)
        ev = Event(time_ns, seq, callback, context, name, needs_sched, cpu)
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
