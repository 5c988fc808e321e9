"""Interrupt controller, timers, and deferred work."""

import pytest

from repro.kernel import IRQ_HANDLED, IRQ_NONE, KernelTimer, WorkItem
from repro.kernel.errors import EBUSY


class TestIrqController:
    def test_request_and_raise(self, kernel):
        fired = []
        assert kernel.irq.request_irq(4, lambda i, d: fired.append((i, d)) or IRQ_HANDLED, "t", "cookie") == 0
        kernel.irq.raise_irq(4)
        assert fired == [(4, "cookie")]

    def test_double_request_busy(self, kernel):
        kernel.irq.request_irq(4, lambda i, d: IRQ_HANDLED, "a")
        assert kernel.irq.request_irq(4, lambda i, d: IRQ_HANDLED, "b") == -EBUSY

    def test_free_then_rerequest(self, kernel):
        kernel.irq.request_irq(4, lambda i, d: IRQ_HANDLED, "a")
        kernel.irq.free_irq(4)
        assert kernel.irq.request_irq(4, lambda i, d: IRQ_HANDLED, "b") == 0

    def test_disable_latches_pending(self, kernel):
        fired = []
        kernel.irq.request_irq(4, lambda i, d: fired.append(1) or IRQ_HANDLED, "t")
        kernel.irq.disable_irq(4)
        kernel.irq.raise_irq(4)
        kernel.irq.raise_irq(4)
        assert fired == []
        kernel.irq.enable_irq(4)
        assert fired == [1]  # coalesced into one delivery

    def test_disable_nests(self, kernel):
        fired = []
        kernel.irq.request_irq(4, lambda i, d: fired.append(1) or IRQ_HANDLED, "t")
        kernel.irq.disable_irq(4)
        kernel.irq.disable_irq(4)
        kernel.irq.raise_irq(4)
        kernel.irq.enable_irq(4)
        assert fired == []
        kernel.irq.enable_irq(4)
        assert fired == [1]

    def test_handler_runs_in_irq_context(self, kernel):
        contexts = []
        kernel.irq.request_irq(
            4, lambda i, d: contexts.append(kernel.context.in_irq()) or IRQ_HANDLED, "t"
        )
        kernel.irq.raise_irq(4)
        assert contexts == [True]
        assert not kernel.context.in_irq()

    def test_spurious_counted(self, kernel):
        kernel.irq.request_irq(4, lambda i, d: IRQ_NONE, "t")
        kernel.irq.raise_irq(4)
        assert kernel.irq.spurious == 1

    def test_unhandled_line_spurious(self, kernel):
        kernel.irq.raise_irq(7)
        assert kernel.irq.spurious == 1


class TestKernelTimer:
    def test_fires_at_expiry(self, kernel):
        fired = []
        t = KernelTimer(kernel, lambda d: fired.append(kernel.now_ns()))
        t.mod_timer_after(2_000_000)
        kernel.run_for_ms(5)
        assert fired == [2_000_000]

    def test_del_timer_cancels(self, kernel):
        fired = []
        t = KernelTimer(kernel, lambda d: fired.append(1))
        t.mod_timer_after(1_000_000)
        assert t.del_timer() is True
        kernel.run_for_ms(5)
        assert fired == []

    def test_mod_timer_rearms(self, kernel):
        fired = []
        t = KernelTimer(kernel, lambda d: fired.append(kernel.now_ns()))
        t.mod_timer_after(5_000_000)
        t.mod_timer_after(1_000_000)  # re-arm earlier
        kernel.run_for_ms(10)
        assert fired == [1_000_000]

    def test_periodic_rearm_from_handler(self, kernel):
        fired = []

        def handler(_d):
            fired.append(kernel.now_ns())
            if len(fired) < 3:
                t.mod_timer_after(1_000_000)

        t = KernelTimer(kernel, handler)
        t.mod_timer_after(1_000_000)
        kernel.run_for_ms(10)
        assert fired == [1_000_000, 2_000_000, 3_000_000]

    def test_timer_runs_in_softirq_context(self, kernel):
        contexts = []
        t = KernelTimer(kernel, lambda d: contexts.append(
            kernel.context.in_softirq()))
        t.mod_timer_after(1000)
        kernel.run_for_ms(1)
        assert contexts == [True]

    def test_timer_cannot_sleep(self, kernel):
        from repro.kernel import SleepInAtomicError

        caught = []

        def handler(_d):
            try:
                kernel.msleep(1)
            except SleepInAtomicError:
                caught.append(True)

        t = KernelTimer(kernel, handler)
        t.mod_timer_after(1000)
        kernel.run_for_ms(1)
        assert caught == [True]

    def test_data_passed(self, kernel):
        got = []
        t = KernelTimer(kernel, lambda d: got.append(d), data="payload")
        t.mod_timer_after(1000)
        kernel.run_for_ms(1)
        assert got == ["payload"]

    def test_traced_arm_cancel_rearm_fire(self, kernel):
        """Arm, cancel and fire all come from the timer itself."""
        from repro.trace import Tracer

        tracer = Tracer(kernel).install()
        try:
            t = KernelTimer(kernel, lambda d: None, name="wd")
            t.mod_timer(1_000)
            t.del_timer()
            t.mod_timer(2_500)
            kernel.run_for_ns(5_000)
        finally:
            tracer.uninstall()
        seen = [(ev["name"], ev["ts"], ev["args"]) for ev in tracer.events
                if ev["name"].startswith("timer.")]
        assert seen == [
            ("timer.arm", 0, {"timer": "wd", "at_ns": 1_000}),
            ("timer.cancel", 0, {"timer": "wd"}),
            ("timer.arm", 0, {"timer": "wd", "at_ns": 2_500}),
            ("timer.fire", 2_500, {"timer": "wd"}),
        ]


class TestWorkqueue:
    def test_work_runs_in_process_context(self, kernel):
        seen = []
        work = WorkItem(kernel, lambda d: seen.append(
            kernel.context.in_atomic()))
        kernel.workqueue.schedule_work(work)
        kernel.workqueue.flush()
        assert seen == [False]

    def test_work_may_sleep(self, kernel):
        seen = []

        def body(_d):
            kernel.msleep(2)
            seen.append(kernel.now_ns())

        work = WorkItem(kernel, body)
        kernel.workqueue.schedule_work(work)
        kernel.workqueue.flush()
        assert seen and seen[0] >= 2_000_000

    def test_double_schedule_is_noop(self, kernel):
        work = WorkItem(kernel, lambda d: None)
        assert kernel.workqueue.schedule_work(work) is True
        assert kernel.workqueue.schedule_work(work) is False

    def test_cancel(self, kernel):
        seen = []
        work = WorkItem(kernel, lambda d: seen.append(1))
        kernel.workqueue.schedule_work(work)
        assert kernel.workqueue.cancel_work(work) is True
        kernel.run_for_ms(10)
        assert seen == []

    def test_cancel_while_parked_stays_cancelled(self, kernel):
        """Work that comes due under a spinlock parks until the CPU can
        schedule; cancelling it while parked must stop it running."""
        from repro.kernel.locks import SpinLock

        work = WorkItem(kernel, lambda d: None)
        kernel.workqueue.schedule_work(work, delay_ns=1_000)
        lock = SpinLock(kernel, "parked-cancel")
        lock.lock()
        kernel.consume(5_000)
        assert len(kernel._parked_process_events) == 1
        assert kernel.workqueue.cancel_work(work) is True
        assert not work.pending
        lock.unlock()
        kernel.run_for_ns(10_000)
        assert work.executed == 0
        assert not kernel._parked_process_events

    def test_flush_ignores_periodic_timers(self, kernel):
        """flush() must not run forever chasing a self-rearming timer."""
        t = KernelTimer(kernel, lambda d: t.mod_timer_after(1_000_000))
        t.mod_timer_after(1_000_000)
        work = WorkItem(kernel, lambda d: None)
        kernel.workqueue.schedule_work(work)
        kernel.workqueue.flush()  # must terminate
        assert work.executed == 1

    def test_timer_deferral_pattern(self, kernel):
        """The nuclear-runtime pattern: timer fires -> work item runs
        in process context where sleeping is legal."""
        result = []

        def work_body(_d):
            kernel.msleep(1)  # would crash in timer context
            result.append("ran")

        work = WorkItem(kernel, work_body)
        timer = KernelTimer(kernel,
                            lambda d: kernel.workqueue.schedule_work(work))
        timer.mod_timer_after(1_000_000)
        kernel.run_for_ms(10)
        assert result == ["ran"]
