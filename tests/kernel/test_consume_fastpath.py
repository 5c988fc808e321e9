"""Edges of the event-free fast path in ``Kernel.consume``.

When nothing is parked and no live event comes due inside the advance,
``consume`` moves the clock itself instead of entering ``run_until``.
Every scenario below runs twice on fresh kernels: once through
``Kernel.consume`` and once through the reference -- charge, then
``run_until`` unconditionally -- and the clock, the dispatch count, the
callback log, the parked queue and the per-category CPU accounting
(aggregate and per CPU) must match exactly.
"""

import pytest

from repro.kernel import make_kernel
from repro.kernel.context import HARDIRQ


def reference_consume(kernel, ns, busy=True, category="kernel"):
    """``Kernel.consume`` without the fast path."""
    cur = kernel.current_cpu
    if busy:
        kernel.charge(ns, category)
    if cur._defer_depth:
        cur._pending_charge_ns += ns
        return
    kernel.run_until(kernel.clock.now_ns + ns)


def _snapshot(kernel, log):
    return {
        "now_ns": kernel.clock.now_ns,
        "events_dispatched": kernel.events_dispatched,
        "log": list(log),
        "parked": len(kernel._parked_process_events),
        "busy_ns": kernel.cpu._busy_ns,
        "by_category": dict(kernel.cpu._by_category),
        "cpus": [(c._busy_ns, dict(c._by_category))
                 for c in (v.acct for v in kernel.cpus)],
        "busy_until": [v.busy_until_ns for v in kernel.cpus],
        "pending_charge": [v._pending_charge_ns for v in kernel.cpus],
    }


def _compare(scenario, nr_cpus=1):
    """Run ``scenario(kernel, consume, log)`` both ways; return the
    fast-path snapshot after asserting it equals the reference one."""
    snaps = []
    for consume in (None, reference_consume):
        kernel = make_kernel(nr_cpus=nr_cpus)
        if consume is None:
            consume = type(kernel).consume
        log = []
        scenario(kernel, lambda *a, **kw: consume(kernel, *a, **kw), log)
        snaps.append(_snapshot(kernel, log))
    fast, reference = snaps
    assert fast == reference
    return fast


def _mark(kernel, log, tag):
    return lambda: log.append((tag, kernel.clock.now_ns))


def test_event_due_exactly_at_target_fires():
    def scenario(kernel, consume, log):
        kernel.events.schedule_after(100, _mark(kernel, log, "at"))
        kernel.events.schedule_after(201, _mark(kernel, log, "after"))
        consume(100, category="io")
        consume(100, category="io")
    snap = _compare(scenario)
    assert snap["log"] == [("at", 100)]
    assert snap["now_ns"] == 200


def test_cancelled_heap_head_is_skipped():
    def scenario(kernel, consume, log):
        kernel.events.schedule_after(5, _mark(kernel, log, "dead")).cancel()
        kernel.events.schedule_after(50, _mark(kernel, log, "live"))
        consume(10)
        consume(40, busy=False, category="sleep")
    snap = _compare(scenario)
    assert snap["log"] == [("live", 50)]


def test_wheel_timer_before_heap_head_fires():
    """A later-armed event that sorts before the head fires first."""
    def scenario(kernel, consume, log):
        kernel.events.schedule_after(1_000, _mark(kernel, log, "head"))
        kernel.events.schedule_at(30, _mark(kernel, log, "timer"))
        consume(40, category="delay")
        consume(2_000, category="delay")
    snap = _compare(scenario)
    assert snap["log"] == [("timer", 30), ("head", 1_000)]


def test_parked_work_runs_once_the_cpu_leaves_atomic_context():
    def scenario(kernel, consume, log):
        kernel.events.schedule_after(5, _mark(kernel, log, "work"),
                                     needs_sched=True)
        context = kernel.context
        context.enter_irq()
        consume(10, category="irq")     # the work comes due and parks
        context.exit_irq()
        log.append(("parked", len(kernel._parked_process_events)))
        consume(1)                      # nothing due: must still run it
    snap = _compare(scenario)
    assert snap["log"] == [("parked", 1), ("work", 10)]
    assert snap["parked"] == 0


def test_parked_work_waits_while_still_atomic():
    def scenario(kernel, consume, log):
        kernel.events.schedule_after(5, _mark(kernel, log, "work"),
                                     needs_sched=True)
        context = kernel.context
        context.enter_irq()
        consume(10, category="irq")
        consume(10, category="irq")
        context.exit_irq()
    snap = _compare(scenario)
    assert snap["log"] == []
    assert snap["parked"] == 1


@pytest.mark.parametrize("pending", [False, True],
                         ids=["idle", "event-due-now"])
def test_zero_ns(pending):
    def scenario(kernel, consume, log):
        consume(7)
        if pending:
            kernel.events.schedule_after(0, _mark(kernel, log, "now"))
        consume(0)
    snap = _compare(scenario)
    assert snap["now_ns"] == 7
    assert snap["log"] == ([("now", 7)] if pending else [])


def test_deferred_charge_inside_cpu_targeted_event():
    def scenario(kernel, consume, log):
        def on_cpu1():
            consume(300, category="io")
            log.append(("cpu1", kernel.clock.now_ns))

        kernel.events.schedule_at(10, on_cpu1, context=HARDIRQ, cpu=1)
        kernel.events.schedule_at(20, _mark(kernel, log, "cpu0"))
        consume(50)
        consume(500)
    snap = _compare(scenario, nr_cpus=2)
    # The targeted charge widened cpu1's busy window instead of moving
    # the clock; the untargeted event ran inside it.
    assert snap["log"] == [("cpu1", 10), ("cpu0", 20)]
    assert snap["busy_until"][1] == 310
    assert snap["now_ns"] == 550
