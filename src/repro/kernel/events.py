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
                 "wheel", "needs_sched", "cpu")

    def __init__(self, time_ns, seq, callback, context, name,
                 needs_sched=False, cpu=None):
        self.time_ns = time_ns
        self.seq = seq
        self.callback = callback
        self.context = context
        self.name = name
        self.cancelled = False
        self.wheel = None
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
        self.cancelled = True
        if self.wheel is not None:
            self.wheel.discard(self)

    def __lt__(self, other):
        return (self.time_ns, self.seq) < (other.time_ns, other.seq)

    def __repr__(self):
        return "<Event %s @%dns ctx=%s%s>" % (
            self.name,
            self.time_ns,
            self.context,
            " cancelled" if self.cancelled else "",
        )


class TimerWheel:
    """Indexed timer wheel: O(1) add, cancel and re-arm.

    Timers (the watchdog, ITR throttles, kernel timers) are armed and
    cancelled far more often than they fire, so keeping them in the
    global min-heap leaves a trail of cancelled entries that every
    ``peek``/``pop`` has to step over.  The wheel hashes each timer into
    a bucket keyed by ``time_ns >> SHIFT`` (65.536 us granularity) and
    stores it in a per-bucket dict keyed by event seq, so ``cancel`` is
    a dict delete -- the event is truly gone, not lazily skipped.

    Bucketing only affects *lookup*; expiry remains exact.  The next
    due timer is found by scanning the front non-empty bucket (slot
    order equals time order because slots are monotonic in time), and
    events still fire at their precise ``time_ns``.
    """

    SHIFT = 16  # 2**16 ns = 65.536 us per slot

    def __init__(self):
        self._buckets = {}  # slot -> {seq: Event}
        self._slot_heap = []  # min-heap of slot keys (duplicates ok)
        self._live = 0
        # Memo of the earliest live timer.  Validity is ``ev.wheel is
        # self`` -- discard/pop clear ``ev.wheel``, invalidating the memo
        # for free; ``add`` keeps it current when a new timer sorts first.
        self._front = None

    def __len__(self):
        return self._live

    def add(self, ev):
        slot = ev.time_ns >> self.SHIFT
        bucket = self._buckets.get(slot)
        if bucket is None:
            bucket = self._buckets[slot] = {}
            heapq.heappush(self._slot_heap, slot)
        bucket[ev.seq] = ev
        ev.wheel = self
        self._live += 1
        front = self._front
        if front is not None and front.wheel is self:
            if ev is front:
                self._front = None  # re-added: may not be first any more
            elif (ev.time_ns, ev.seq) < (front.time_ns, front.seq):
                self._front = ev

    def discard(self, ev):
        slot = ev.time_ns >> self.SHIFT
        bucket = self._buckets.get(slot)
        if bucket is not None and bucket.pop(ev.seq, None) is not None:
            self._live -= 1
        ev.wheel = None

    def peek_event(self):
        """Earliest live timer (exact (time_ns, seq) order), or None."""
        front = self._front
        if front is not None and front.wheel is self:
            return front
        while self._slot_heap:
            slot = self._slot_heap[0]
            bucket = self._buckets.get(slot)
            if not bucket:
                heapq.heappop(self._slot_heap)
                if bucket is not None:
                    del self._buckets[slot]
                continue
            front = min(bucket.values())
            self._front = front
            return front
        self._front = None
        return None

    def pop(self, ev):
        """Remove ``ev`` (previously returned by peek_event) for dispatch."""
        self.discard(ev)


class EventQueue:
    """Time-ordered queue with stable FIFO ordering for equal timestamps.

    Two backing stores share one sequence counter (so FIFO order for
    equal timestamps holds across both): a min-heap for one-shot events
    (``schedule_at``/``schedule_after``) and an indexed :class:`TimerWheel`
    for timers that are frequently cancelled or re-armed
    (``schedule_timer_at``/``schedule_timer_after``).  Heap entries are
    ``(time_ns, seq, ev)`` tuples: seqs are unique, so ``heapq`` orders
    them in C and never reaches the event itself.
    """

    def __init__(self, clock):
        self._clock = clock
        self._heap = []
        self._wheel = TimerWheel()
        self._seq = itertools.count()
        # ktrace hook, mirrored from Kernel.tracer by Tracer.install();
        # the queue has no kernel back-reference, so it keeps its own.
        self.tracer = None
        # Lower bound on the next live event's time, kept for
        # Kernel.consume: it advances the clock without a heap peek
        # while target < next_due_ns, and stores the exact next time
        # after a peek.  An insert at t lowers it to min(bound, t);
        # removals only move the true next event later, so a stale
        # bound stays conservative.  -1 means unknown.
        self.next_due_ns = -1

    def __len__(self):
        return sum(1 for entry in self._heap if not entry[2].cancelled) + \
            len(self._wheel)

    def _make_event(self, time_ns, callback, context, name):
        if context not in _VALID_CONTEXTS:
            raise SimulationError("unknown event context %r" % (context,))
        if time_ns < self._clock.now_ns:
            # Late events run "now"; the queue never travels backwards.
            time_ns = self._clock.now_ns
        return Event(time_ns, next(self._seq), callback, context, name)

    def schedule_at(self, time_ns, callback, context=PROCESS, name="event",
                    cpu=None):
        ev = self._make_event(time_ns, callback, context, name)
        ev.cpu = cpu
        time_ns = ev.time_ns
        heapq.heappush(self._heap, (time_ns, ev.seq, ev))
        if time_ns < self.next_due_ns:
            self.next_due_ns = time_ns
        return ev

    def schedule_after(self, delay_ns, callback, context=PROCESS, name="event",
                       needs_sched=False, cpu=None):
        # Inlined _make_event: this is the per-packet scheduling path.
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

    def schedule_timer_at(self, time_ns, callback, context=PROCESS,
                          name="timer"):
        """Like schedule_at, but on the wheel: cancel is O(1) and real."""
        ev = self._make_event(time_ns, callback, context, name)
        self._wheel.add(ev)
        if ev.time_ns < self.next_due_ns:
            self.next_due_ns = ev.time_ns
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("timer.arm", {"timer": name, "at_ns": ev.time_ns})
        return ev

    def schedule_timer_after(self, delay_ns, callback, context=PROCESS,
                             name="timer"):
        return self.schedule_timer_at(
            self._clock.now_ns + max(0, delay_ns), callback, context, name
        )

    def _peek_heap(self):
        """Live heap head as ``(time_ns, seq, ev)``, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def peek_time(self):
        """Virtual time of the next live event, or None."""
        head = self._peek_heap()
        timer = self._wheel.peek_event() if self._wheel._live else None
        if head is None:
            return timer.time_ns if timer is not None else None
        time_ns, seq, _ev = head
        if (timer is None or time_ns < timer.time_ns
                or (time_ns == timer.time_ns and seq < timer.seq)):
            return time_ns
        return timer.time_ns

    def pop_due(self, target_ns):
        """Pop the next live event due at or before ``target_ns``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        timer = self._wheel.peek_event() if self._wheel._live else None
        if heap:
            time_ns, seq, ev = heap[0]
            if (timer is None or time_ns < timer.time_ns
                    or (time_ns == timer.time_ns and seq < timer.seq)):
                if time_ns <= target_ns:
                    heapq.heappop(heap)
                    return ev
                return None
        if timer is not None and timer.time_ns <= target_ns:
            self._wheel.pop(timer)
            return timer
        return None
