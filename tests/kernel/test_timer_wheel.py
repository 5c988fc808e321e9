"""The indexed timer wheel behind ``schedule_timer_at``/``_after``.

Timers (watchdog, ITR throttle, kernel timers) are cancelled and
re-armed far more often than they fire; the wheel makes each of those
O(1) *true* removals instead of leaving cancelled debris in the global
heap.  Bucketing must not change observable behaviour: expiry times stay
exact and FIFO order for equal timestamps holds across both stores.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel.events import EventQueue, TimerWheel
from repro.kernel.timers import KernelTimer
from repro.kernel.vtime import VirtualClock


class TestWheelExactness:
    def test_fires_at_exact_time_not_bucket_edge(self, kernel):
        """Slot granularity is 65.536us, but expiry is exact."""
        seen = []
        kernel.events.schedule_timer_at(
            100_123, lambda: seen.append(kernel.now_ns()))
        kernel.run_until(1_000_000)
        assert seen == [100_123]

    def test_same_bucket_fires_in_time_order(self, kernel):
        seen = []
        # 300ns apart: same 2**16ns bucket, distinct expiry times.
        kernel.events.schedule_timer_at(10_600, lambda: seen.append("b"))
        kernel.events.schedule_timer_at(10_300, lambda: seen.append("a"))
        kernel.run_until(1_000_000)
        assert seen == ["a", "b"]

    def test_equal_times_fifo_across_heap_and_wheel(self, kernel):
        """Heap events and wheel timers share one seq counter."""
        seen = []
        kernel.events.schedule_at(500, lambda: seen.append("heap1"))
        kernel.events.schedule_timer_at(500, lambda: seen.append("wheel1"))
        kernel.events.schedule_at(500, lambda: seen.append("heap2"))
        kernel.events.schedule_timer_at(500, lambda: seen.append("wheel2"))
        kernel.run_until(500)
        assert seen == ["heap1", "wheel1", "heap2", "wheel2"]

    def test_past_deadline_clamped_to_now(self, kernel):
        kernel.run_until(1000)
        seen = []
        kernel.events.schedule_timer_at(1, lambda: seen.append(kernel.now_ns()))
        kernel.run_until(1000)
        assert seen == [1000]

    def test_peek_time_takes_min_across_stores(self, kernel):
        kernel.events.schedule_at(700, lambda: None)
        kernel.events.schedule_timer_at(300, lambda: None)
        assert kernel.events.peek_time() == 300


class TestWheelCancel:
    def test_cancel_is_true_removal(self, kernel):
        evs = [kernel.events.schedule_timer_at(1000 + i, lambda: None)
               for i in range(10)]
        assert len(kernel.events) == 10
        for ev in evs[:7]:
            ev.cancel()
        assert len(kernel.events) == 3
        # The wheel itself holds exactly the three live entries.
        assert len(kernel.events._wheel) == 3

    def test_cancelled_timer_does_not_fire(self, kernel):
        seen = []
        ev = kernel.events.schedule_timer_at(100, lambda: seen.append("x"))
        ev.cancel()
        kernel.run_until(1000)
        assert seen == []

    def test_cancel_front_bucket_advances_peek(self, kernel):
        first = kernel.events.schedule_timer_at(100, lambda: None)
        kernel.events.schedule_timer_at(5_000_000, lambda: None)
        assert kernel.events.peek_time() == 100
        first.cancel()
        assert kernel.events.peek_time() == 5_000_000

    def test_rearm_churn_leaves_no_debris(self, kernel):
        """The watchdog pattern: hundreds of re-arms per actual fire."""
        timer = KernelTimer(kernel, lambda _d: None, name="watchdog")
        for i in range(1, 1001):
            timer.mod_timer(2_000_000_000 + i)
        # One live entry; the 1000 cancelled ones are really gone.
        assert len(kernel.events._wheel) == 1
        assert timer.pending

    def test_rearm_fires_once_at_latest_deadline(self, kernel):
        fired = []
        timer = KernelTimer(kernel, lambda _d: fired.append(kernel.now_ns()))
        timer.mod_timer(1_000)
        timer.mod_timer(50_000)
        timer.mod_timer(200_000)
        kernel.run_until(1_000_000)
        assert fired == [200_000]
        assert timer.fired == 1

    def test_del_timer_reports_pending(self, kernel):
        timer = KernelTimer(kernel, lambda _d: None)
        assert timer.del_timer() is False
        timer.mod_timer_after(1000)
        assert timer.del_timer() is True
        assert timer.del_timer() is False

    def test_self_rearming_timer(self, kernel):
        """A timer may re-arm itself from its own callback (watchdog)."""
        fired = []

        def tick(_data):
            fired.append(kernel.now_ns())
            if len(fired) < 5:
                timer.mod_timer_after(100_000)

        timer = KernelTimer(kernel, tick)
        timer.mod_timer_after(100_000)
        kernel.run_for_ms(10)
        assert fired == [100_000 * i for i in range(1, 6)]


class TestWheelDirect:
    def test_empty_peek_is_none(self):
        wheel = TimerWheel()
        assert wheel.peek_event() is None
        assert len(wheel) == 0

    def test_discard_is_idempotent(self, kernel):
        ev = kernel.events.schedule_timer_at(100, lambda: None)
        wheel = kernel.events._wheel
        wheel.discard(ev)
        wheel.discard(ev)  # second discard must not corrupt counters
        assert len(wheel) == 0
        assert wheel.peek_event() is None


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**9), st.booleans()),
    min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_property_mixed_stores_fire_sorted(spec):
    """Any mix of heap events and wheel timers dispatches in time order."""
    clock = VirtualClock()
    queue = EventQueue(clock)
    fired = []
    for t, use_wheel in spec:
        cb = lambda t=t: fired.append(t)  # noqa: E731
        if use_wheel:
            queue.schedule_timer_at(t, cb)
        else:
            queue.schedule_at(t, cb)
    while True:
        nxt = queue.peek_time()
        if nxt is None:
            break
        ev = queue.pop_due(nxt)
        clock._set(max(clock.now_ns, ev.time_ns))
        ev.callback()
    assert fired == sorted(t for t, _w in spec)


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**8),
              st.integers(min_value=0, max_value=4)),
    min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_property_cancel_subset_survivors_fire(spec):
    """Cancelling any subset leaves exactly the survivors, in order."""
    clock = VirtualClock()
    queue = EventQueue(clock)
    fired = []
    events = []
    for t, kind in spec:
        cb = lambda t=t: fired.append(t)  # noqa: E731
        ev = (queue.schedule_timer_at(t, cb) if kind % 2
              else queue.schedule_at(t, cb))
        events.append((ev, t, kind >= 3))  # kind 3,4 -> cancel
    survivors = []
    for ev, t, do_cancel in events:
        if do_cancel:
            ev.cancel()
        else:
            survivors.append(t)
    while True:
        nxt = queue.peek_time()
        if nxt is None:
            break
        ev = queue.pop_due(nxt)
        clock._set(max(clock.now_ns, ev.time_ns))
        ev.callback()
    assert fired == sorted(survivors)
    assert len(queue) == 0
