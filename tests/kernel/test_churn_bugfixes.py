"""Regression tests for kernel bugs surfaced by hotplug churn.

Each test fails on the pre-fix code:

* ``IrqController.free_irq`` leaked the line's disable depth, affinity
  target, and latched local-pending bit into the next owner.
* ``Workqueue.flush`` looped forever on a self-rescheduling item and
  raised ``ValueError`` (empty ``max()``) when every unwaited item's
  event was cancelled under it.
* ``IrqController._dispatch`` rolled spurious interrupts into the
  ``delivered`` total and the per-line count.
* ``SkBuff.recycle`` (and the drivers' inlined copies) left ``skb.dev``
  set on the pooled per-slot header, pinning a hot-unplugged device's
  whole object graph until the slot was reused.
"""

import pytest

from repro.kernel import IRQ_HANDLED, IRQ_NONE, WorkItem, make_kernel


class TestFreeIrqResetsLineState:
    def test_free_while_disabled_then_rerequest_delivers(self, kernel):
        """A line freed while masked must deliver for its next owner."""
        kernel.irq.request_irq(4, lambda i, d: IRQ_HANDLED, "old")
        kernel.irq.disable_irq(4)
        kernel.irq.disable_irq(4)       # nested: depth 2 at free time
        kernel.irq.raise_irq(4)         # latched on the masked line
        kernel.irq.free_irq(4)

        fired = []
        assert kernel.irq.request_irq(
            4, lambda i, d: fired.append(i) or IRQ_HANDLED, "new") == 0
        kernel.irq.raise_irq(4)
        assert fired == [4], "new owner inherited the old mask depth"

    def test_free_drops_latched_pending(self, kernel):
        """The old owner's latched interrupt must not replay."""
        hits = []
        kernel.irq.request_irq(
            4, lambda i, d: hits.append(i) or IRQ_HANDLED, "old")
        kernel.irq.disable_irq(4)
        kernel.irq.raise_irq(4)
        kernel.irq.free_irq(4)
        fired = []
        kernel.irq.request_irq(
            4, lambda i, d: fired.append(i) or IRQ_HANDLED, "new")
        kernel.irq.raise_irq(4)
        # Exactly the new owner's one raise -- no ghost delivery.
        assert fired == [4]
        assert hits == []

    def test_free_clears_affinity(self):
        kernel = make_kernel(nr_cpus=2)
        kernel.irq.request_irq(4, lambda i, d: IRQ_HANDLED, "old")
        kernel.irq.set_affinity(4, 1)
        kernel.irq.free_irq(4)
        assert kernel.irq.affinity_of(4) is None

        # Without the leaked affinity the next owner's delivery is the
        # classic synchronous dispatch, not a cross-CPU event.
        fired = []
        kernel.irq.request_irq(
            4, lambda i, d: fired.append(i) or IRQ_HANDLED, "new")
        kernel.irq.raise_irq(4)
        assert fired == [4]

    def test_free_clears_local_pending(self, kernel):
        kernel.irq.request_irq(4, lambda i, d: IRQ_HANDLED, "old")
        kernel.irq.local_irq_disable()
        kernel.irq.raise_irq(4)         # parked in the local-pending set
        kernel.irq.free_irq(4)
        spurious_before = kernel.irq.spurious
        kernel.irq.local_irq_enable()
        # The freed line's parked interrupt is gone, not delivered
        # spuriously into a handler-less line.
        assert kernel.irq.spurious == spurious_before


class TestWorkqueueFlushTermination:
    def test_flush_bounds_self_rescheduling_item(self, kernel):
        runs = []

        def rearm(_data):
            runs.append(1)
            kernel.workqueue.schedule_work(item, delay_ns=1_000_000)

        item = WorkItem(kernel, rearm, None, name="rearm")
        kernel.workqueue.schedule_work(item)
        kernel.workqueue.flush()        # pre-fix: never returns
        assert len(runs) >= 1
        kernel.workqueue.cancel_work(item)

    def test_flush_with_cancelled_event_terminates(self, kernel):
        item = WorkItem(kernel, lambda _d: None, None, name="ghost")
        kernel.workqueue.schedule_work(item)
        # Cancel the backing event only: the item stays in the pending
        # set, the shape that made the pre-fix flush call max(()).
        item._event.cancel()
        kernel.workqueue.flush()        # pre-fix: ValueError
        kernel.workqueue.cancel_work(item)

    def test_flush_empty_queue_is_noop(self, kernel):
        kernel.workqueue.flush()


class TestKstatUnregisterBoundMethod:
    def test_bound_method_provider_unregisters(self, kernel):
        """``obj.method`` is a fresh object per access; unregister must
        match by equality or every driver remove leaks a provider."""

        class Driver:
            def _kstat(self):
                return {"x": 1}

        drv = Driver()
        before = len(kernel.kstat._providers)
        kernel.kstat.register("drv", drv._kstat)
        kernel.kstat.unregister("drv", drv._kstat)
        assert len(kernel.kstat._providers) == before

    def test_unregister_is_instance_scoped(self, kernel):
        class Driver:
            def __init__(self, tag):
                self.tag = tag

            def _kstat(self):
                return {"tag": self.tag}

        a, b = Driver(1), Driver(2)
        kernel.kstat.register("drv", a._kstat)
        kernel.kstat.register("drv", b._kstat)
        kernel.kstat.unregister("drv", a._kstat)
        # b stays live and a's last count stays retired: the sum moves
        # only with b.
        assert kernel.kstat.snapshot().get("drv.tag") == 1 + 2
        a.tag, b.tag = 10, 20
        assert kernel.kstat.snapshot().get("drv.tag") == 1 + 20


class TestSkbRecycleDropsDeviceRef:
    def test_recycle_clears_dev(self, kernel):
        """A recycled pooled skb must not keep its device alive: the
        pool caches the header per slot, so a stale ``dev`` outlives
        hot-unplug by up to ``count`` packets."""
        skb = kernel.net.get_skb_pool().alloc(128)
        skb.dev = object()
        skb.recycle()
        assert skb.dev is None

    def test_napi_delivery_clears_dev(self, kernel):
        """netif_receive_skb inlines recycle; it must clear dev too."""
        import weakref

        class FakeDev:
            pass

        dev = FakeDev()
        ref = weakref.ref(dev)
        skb = kernel.net.get_skb_pool().alloc(128)
        kernel.net.netif_receive_skb(dev, skb)
        kernel.net.flush_rx_batch()
        del dev
        import gc
        gc.collect()
        assert ref() is None, "pooled header pinned the removed device"


class TestSpuriousInterruptAccounting:
    def test_declined_interrupt_not_counted_delivered(self, kernel):
        kernel.irq.request_irq(4, lambda i, d: IRQ_NONE, "decliner")
        before = dict(kernel.irq._kstat())
        kernel.irq.raise_irq(4)
        kernel.irq.raise_irq(4)
        after = dict(kernel.irq._kstat())
        assert after["spurious"] == before["spurious"] + 2
        assert after["delivered"] == before["delivered"]
        assert after["line4.count"] == before["line4.count"]

    def test_handled_interrupt_counted_once(self, kernel):
        kernel.irq.request_irq(4, lambda i, d: IRQ_HANDLED, "h")
        before = dict(kernel.irq._kstat())
        kernel.irq.raise_irq(4)
        after = dict(kernel.irq._kstat())
        assert after["delivered"] == before["delivered"] + 1
        assert after["spurious"] == before["spurious"]
        assert after["line4.count"] == before["line4.count"] + 1

    def test_kstat_totals_partition(self, kernel):
        """delivered + spurious account for every raise, disjointly."""
        state = {"accept": True}

        def handler(i, d):
            return IRQ_HANDLED if state["accept"] else IRQ_NONE

        kernel.irq.request_irq(4, handler, "mixed")
        base = dict(kernel.irq._kstat())
        for accept in (True, False, True, False, False):
            state["accept"] = accept
            kernel.irq.raise_irq(4)
        snap = dict(kernel.irq._kstat())
        assert snap["delivered"] - base["delivered"] == 2
        assert snap["spurious"] - base["spurious"] == 3
        assert snap["line4.count"] - base["line4.count"] == 2
