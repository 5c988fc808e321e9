"""``EventQueue.next_due_ns`` stays a lower bound on the next event.

``Kernel.consume`` moves the clock without a queue peek while the
advance ends below the memo, so the memo must never
exceed the time of the next live event.  Inserts lower it to their own
time, a peek that finds nothing due sets it exactly, and removals only
move the true next event later.

A hypothesis-driven sequence of ``schedule_at``/``schedule_after``/
``requeue``/cancel/``run_until``/``consume`` and ``KernelTimer``
re-arms (each cancels the timer's pending expiry and arms a new one)
checks the bound after every step.  The same sequence also runs through the reference
consume of ``test_consume_fastpath`` (charge, then ``run_until``
unconditionally) and must leave the same clock, dispatch log and
accounting.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import make_kernel
from repro.kernel.events import FAR_NS
from repro.kernel.timers import KernelTimer

from .test_consume_fastpath import _snapshot, reference_consume

delays = st.integers(-5, 400)
steps = st.lists(st.one_of(
    st.tuples(st.just("at"), delays),
    st.tuples(st.just("after"), delays),
    st.tuples(st.just("timer"), delays),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("requeue"), st.integers(0, 400)),
    st.tuples(st.just("run"), st.integers(0, 500)),
    st.tuples(st.just("consume"), st.integers(0, 300)),
    st.tuples(st.just("consume_idle"), st.integers(0, 300)),
), max_size=40)


def _check_memo(kernel):
    events = kernel.events
    due = events.peek_time()
    memo = events.next_due_ns
    if due is not None:
        assert memo <= due, (memo, due)
    assert memo == -1 or memo <= FAR_NS


def _play(kernel, consume, script, check):
    events = kernel.events
    log = []
    handles = []

    def make_callback(tag, children):
        def callback():
            log.append((tag, kernel.clock.now_ns))
            if children:
                # An insert made during dispatch lowers the memo too.
                handles.append(events.schedule_after(
                    children, make_callback(tag + "+", 0)))
        return callback

    timer = KernelTimer(kernel, lambda _d: log.append(
        ("timer", kernel.clock.now_ns)))

    for index, (op, arg) in enumerate(script):
        tag = "%s%d" % (op, index)
        now = kernel.clock.now_ns
        if op == "at":
            handles.append(events.schedule_at(
                now + arg, make_callback(tag, index % 3)))
        elif op == "after":
            handles.append(events.schedule_after(
                arg, make_callback(tag, index % 3)))
        elif op == "timer":
            timer.mod_timer_after(arg)
        elif op == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif op == "requeue":
            # Pop the next event and push it back re-timed, as the SMP
            # busy-window deferral does.
            ev = events.pop_due(FAR_NS)
            if ev is not None:
                events.requeue(ev, now + arg)
        elif op == "run":
            kernel.run_until(now + arg)
        elif op == "consume":
            consume(kernel, arg, category="io")
        else:
            consume(kernel, arg, busy=False, category="sleep")
        if check:
            _check_memo(kernel)
    return log


@settings(max_examples=300, deadline=None)
@given(script=steps)
def test_memo_is_a_lower_bound_after_every_step(script):
    kernel = make_kernel()
    _play(kernel, type(kernel).consume, script, check=True)


@settings(max_examples=200, deadline=None)
@given(script=steps)
def test_consume_matches_reference_under_memo(script):
    snaps = []
    for consume in (None, reference_consume):
        kernel = make_kernel()
        log = _play(kernel, consume or type(kernel).consume, script,
                    check=False)
        snaps.append(_snapshot(kernel, log))
    assert snaps[0] == snaps[1]


def test_insert_below_a_stale_memo_still_fires():
    kernel = make_kernel()
    log = []
    kernel.events.schedule_after(1_000, lambda: log.append("late"))
    kernel.consume(10)
    assert kernel.events.next_due_ns == 1_000
    kernel.events.schedule_after(5, lambda: log.append(kernel.clock.now_ns))
    assert kernel.events.next_due_ns == 15
    kernel.consume(10)
    assert log == [15]
    assert kernel.clock.now_ns == 20


def test_empty_queue_memo_is_far_until_an_insert():
    kernel = make_kernel()
    kernel.consume(3)
    assert kernel.events.next_due_ns == FAR_NS
    kernel.events.schedule_after(7, lambda: None)
    assert kernel.events.next_due_ns == 10
