"""Timers on the event heap: exact expiry, FIFO ties, cancel and re-arm.

Kernel timers (``KernelTimer``), device throttle windows and one-shot
events all sit on one ``(time_ns, seq, ev)`` heap.  Timers are armed
with ``schedule_at``/``schedule_after`` like any other event, so
expiry is exact, same-time events keep FIFO order, and a cancelled
entry stays on the heap until it reaches the head -- holding no
callback meanwhile -- and never fires.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel.events import EventQueue
from repro.kernel.timers import KernelTimer
from repro.kernel.vtime import VirtualClock


class TestWheelExactness:
    def test_fires_at_exact_time_not_bucket_edge(self, kernel):
        seen = []
        kernel.events.schedule_at(
            100_123, lambda: seen.append(kernel.now_ns()))
        kernel.run_until(1_000_000)
        assert seen == [100_123]

    def test_same_bucket_fires_in_time_order(self, kernel):
        """Arming order and expiry order disagree; expiry wins."""
        seen = []
        kernel.events.schedule_at(10_600, lambda: seen.append("b"))
        kernel.events.schedule_at(10_300, lambda: seen.append("a"))
        kernel.run_until(1_000_000)
        assert seen == ["a", "b"]

    def test_equal_times_fifo_across_heap_and_wheel(self, kernel):
        """One-shot events and kernel timers due at the same instant
        fire in arming order: they draw from one seq counter."""
        seen = []
        timers = [KernelTimer(kernel, lambda d: seen.append(d), data=name)
                  for name in ("timer1", "timer2")]
        kernel.events.schedule_at(500, lambda: seen.append("event1"))
        timers[0].mod_timer(500)
        kernel.events.schedule_after(500, lambda: seen.append("event2"))
        timers[1].mod_timer(500)
        kernel.run_until(500)
        assert seen == ["event1", "timer1", "event2", "timer2"]

    def test_past_deadline_clamped_to_now(self, kernel):
        kernel.run_until(1000)
        seen = []
        kernel.events.schedule_at(1, lambda: seen.append(kernel.now_ns()))
        kernel.run_until(1000)
        assert seen == [1000]

    def test_peek_time_takes_min_across_stores(self, kernel):
        kernel.events.schedule_at(700, lambda: None)
        KernelTimer(kernel, lambda _d: None).mod_timer(300)
        assert kernel.events.peek_time() == 300


class TestWheelCancel:
    def test_cancel_is_true_removal(self, kernel):
        """A cancelled entry no longer counts and holds no callback."""
        evs = [kernel.events.schedule_at(1000 + i, lambda: None)
               for i in range(10)]
        assert len(kernel.events) == 10
        for ev in evs[:7]:
            ev.cancel()
        assert len(kernel.events) == 3
        assert [ev.callback for ev in evs[:7]] == [None] * 7
        assert all(ev.callback is not None for ev in evs[7:])

    def test_cancelled_timer_does_not_fire(self, kernel):
        seen = []
        ev = kernel.events.schedule_at(100, lambda: seen.append("x"))
        ev.cancel()
        ev.cancel()  # idempotent
        kernel.run_until(1000)
        assert seen == []
        assert kernel.events.peek_time() is None

    def test_cancel_front_bucket_advances_peek(self, kernel):
        first = kernel.events.schedule_at(100, lambda: None)
        kernel.events.schedule_at(5_000_000, lambda: None)
        assert kernel.events.peek_time() == 100
        first.cancel()
        assert kernel.events.peek_time() == 5_000_000

    def test_rearm_churn_leaves_no_debris(self, kernel):
        """The watchdog pattern: hundreds of re-arms per actual fire.
        The cancelled arms wait on the heap but pin no callback."""
        timer = KernelTimer(kernel, lambda _d: None, name="watchdog")
        for i in range(1, 1001):
            timer.mod_timer(2_000_000_000 + i)
        assert len(kernel.events) == 1
        assert timer.pending
        held = [entry[2] for entry in kernel.events._heap
                if entry[2].callback is not None]
        assert held == [timer._event.event]

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


def _drain(queue, clock):
    while True:
        nxt = queue.peek_time()
        if nxt is None:
            return
        ev = queue.pop_due(nxt)
        clock._set(max(clock.now_ns, ev.time_ns))
        ev.callback()


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**9), st.booleans()),
    min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_property_mixed_stores_fire_sorted(spec):
    """Any mix of absolute and relative arms dispatches in time order."""
    clock = VirtualClock()
    queue = EventQueue(clock)
    fired = []
    for t, relative in spec:
        cb = lambda t=t: fired.append(t)  # noqa: E731
        if relative:
            queue.schedule_after(t, cb)
        else:
            queue.schedule_at(t, cb)
    _drain(queue, clock)
    assert fired == sorted(t for t, _r in spec)


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
        ev = (queue.schedule_after(t, cb) if kind % 2
              else queue.schedule_at(t, cb))
        events.append((ev, t, kind >= 3))  # kind 3,4 -> cancel
    survivors = []
    for ev, t, do_cancel in events:
        if do_cancel:
            ev.cancel()
        else:
            survivors.append(t)
    _drain(queue, clock)
    assert fired == sorted(survivors)
    assert len(queue) == 0
