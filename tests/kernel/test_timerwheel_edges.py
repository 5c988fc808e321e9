"""Timer edge cases on the event heap: 65,536 ns edges, head churn, irq arming.

Deadlines that straddle multiples of 2^16 ns, cancelling or re-arming
the very timer at the heap head, and zero-delay arming from interrupt
context must all behave like a plain sorted queue: exact expiry, FIFO
among equal times, the declared context when the callback runs.
"""

from repro.kernel.context import HARDIRQ, SOFTIRQ
from repro.kernel.events import EventQueue
from repro.kernel.timers import KernelTimer
from repro.kernel.vtime import VirtualClock

SLOT = 1 << 16  # 65_536 ns


def _drain(queue, clock):
    fired = []
    while True:
        nxt = queue.peek_time()
        if nxt is None:
            return fired
        ev = queue.pop_due(nxt)
        clock._set(max(clock.now_ns, ev.time_ns))
        fired.append(ev)
        ev.callback()


class TestSlotBoundary:
    def test_adjacent_ns_across_slot_edge_fire_in_order(self, kernel):
        seen = []
        kernel.events.schedule_at(SLOT, lambda: seen.append("hi"))
        kernel.events.schedule_at(SLOT - 1, lambda: seen.append("lo"))
        assert kernel.events.peek_time() == SLOT - 1
        kernel.run_until(2 * SLOT)
        assert seen == ["lo", "hi"]

    def test_later_armed_timer_in_earlier_slot_wins_peek(self, kernel):
        """Arming order and time order disagree; peek follows time."""
        kernel.events.schedule_at(5 * SLOT + 3, lambda: None)
        kernel.events.schedule_at(2 * SLOT + 9, lambda: None)
        assert kernel.events.peek_time() == 2 * SLOT + 9

    def test_dense_spread_across_many_slots_fires_sorted(self, kernel):
        """Deadlines scattered on both sides of 32 edges, each firing at
        its exact time, in strict time order."""
        seen = []
        times = []
        for k in range(1, 33):
            for off in (-1, 0, 1):
                t = k * SLOT + off
                times.append(t)
                kernel.events.schedule_at(
                    t, lambda t=t: seen.append((t, kernel.now_ns())))
        kernel.run_until(40 * SLOT)
        assert seen == [(t, t) for t in sorted(times)]


class TestFrontMemoChurn:
    def test_cancel_memoized_front_advances_to_next(self, kernel):
        queue = kernel.events
        first = queue.schedule_at(100, lambda: None)
        queue.schedule_at(SLOT + 50, lambda: None)
        assert queue.peek_time() == 100
        # Cancelling the head must not leave peek serving it.
        first.cancel()
        assert queue.peek_time() == SLOT + 50

    def test_rearm_memoized_front_to_later_deadline(self, kernel):
        """The head timer is pushed back past another timer."""
        fired = []
        front = KernelTimer(kernel, lambda _d: fired.append("front"))
        other = KernelTimer(kernel, lambda _d: fired.append("other"))
        front.mod_timer(1_000)
        other.mod_timer(2_000)
        assert kernel.events.peek_time() == 1_000
        front.mod_timer(3 * SLOT)  # cancel + re-arm, now sorts last
        kernel.run_until(4 * SLOT)
        assert fired == ["other", "front"]

    def test_new_earlier_timer_updates_memo_in_place(self, kernel):
        """An insert that sorts before the peeked head becomes the head."""
        queue = kernel.events
        queue.schedule_at(9_000, lambda: None)
        assert queue.peek_time() == 9_000
        queue.schedule_at(4_000, lambda: None)
        assert queue.peek_time() == 4_000

    def test_churn_storm_on_front_keeps_wheel_consistent(self, kernel):
        """Cancel/re-arm the head 500 times, then fire: exactly one
        live timer remains and it fires once, on time."""
        fired = []
        timer = KernelTimer(kernel, lambda _d: fired.append(kernel.now_ns()))
        for i in range(500):
            timer.mod_timer(1_000 + i)  # always the head
            kernel.events.peek_time()
        assert len(kernel.events) == 1
        kernel.run_until(SLOT)
        assert fired == [1_499]
        assert len(kernel.events) == 0


def test_seeded_random_churn_matches_reference(rng):
    """Randomized arm/cancel churn (shared seeded ``rng`` fixture, so
    the run is reproducible) against a reference sorted list."""
    clock = VirtualClock()
    queue = EventQueue(clock)
    live = {}
    fired = []
    for i in range(400):
        if live and rng.random() < 0.4:
            key = rng.choice(list(live))
            live.pop(key).cancel()
        else:
            t = rng.randrange(0, 6 * SLOT)
            ev = queue.schedule_at(t, lambda t=t: fired.append(t))
            live[i] = ev
    expected = sorted(ev.time_ns for ev in live.values())
    _drain(queue, clock)
    assert fired == expected
    assert len(queue) == 0


class TestIrqContextArming:
    def test_zero_delay_arm_from_hardirq_runs_after_handler(self, kernel):
        """An event armed with delay 0 from hardirq context fires at the
        same virtual instant but strictly after the handler returns."""
        trace = []

        def inner():
            trace.append(("inner", kernel.now_ns(),
                          kernel.context.in_irq()))

        def handler():
            trace.append(("irq", kernel.now_ns()))
            kernel.events.schedule_after(0, inner)
            trace.append(("irq-done", kernel.now_ns()))

        kernel.events.schedule_at(1_000, handler, context=HARDIRQ,
                                  name="irq")
        kernel.run_until(2_000)
        assert trace == [("irq", 1_000), ("irq-done", 1_000),
                         ("inner", 1_000, False)]

    def test_zero_delay_never_travels_backwards(self, kernel):
        kernel.run_until(5_000)
        ev = kernel.events.schedule_after(0, lambda: None)
        assert ev.time_ns == 5_000
        ev2 = kernel.events.schedule_after(-123, lambda: None)
        assert ev2.time_ns == 5_000

    def test_softirq_timer_armed_from_hardirq_keeps_context(self, kernel):
        """The canonical irq -> bottom-half handoff: context is the
        *declared* one when the callback runs, not the arming one."""
        seen = []

        def bottom_half():
            seen.append((kernel.context.in_softirq(),
                         kernel.context.in_irq()))

        def handler():
            kernel.events.schedule_after(
                0, bottom_half, context=SOFTIRQ, name="bh")

        kernel.events.schedule_at(500, handler, context=HARDIRQ)
        kernel.run_until(1_000)
        assert seen == [(True, False)]

    def test_zero_delay_storm_preserves_fifo(self):
        """50 zero-delay events armed inside one handler fire in arming
        order at the same timestamp (one seq counter)."""
        clock = VirtualClock()
        queue = EventQueue(clock)
        seen = []

        def handler():
            for i in range(50):
                queue.schedule_after(0, lambda i=i: seen.append(i))

        queue.schedule_at(100, handler)
        _drain(queue, clock)
        assert seen == list(range(50))
        assert clock.now_ns == 100
