"""Regression: netperf_send must not busy-spin on a wedged device.

If a driver stops its transmit queue and the event queue is empty,
nothing can ever restart the queue.  The old loop called
``events.peek_time()``, got None, ran to ``end_ns`` and reported the hang
as a quiet mostly-idle run.  It must raise instead.
"""

import pytest

from repro.family import FAMILIES
from repro.kernel import NETDEV_TX_OK, make_kernel
from repro.kernel.netdev import NetDevice
from repro.workloads.netperf import netperf_send


class _FakeRig:
    """Just enough of a Rig for netperf_*: one kernel, one netdev."""

    # Any NIC family: its open is dev_open on the endpoint.
    family = FAMILIES["e1000"]

    def __init__(self, kernel, dev):
        self.kernel = kernel
        self.endpoint = dev
        self.init_latency_ns = 0
        self.supervisor = None

    def crossings(self):
        return 0

    def lang_crossings(self):
        return 0

    def deferred_stats(self):
        return {"calls": 0, "coalesced": 0, "flushes": 0}

    def fault_stats(self):
        return (0, 0, 0)

    def recovery_pending(self):
        sup = self.supervisor
        return bool(sup is not None and sup.recovery_pending())


def _make_rig(xmit):
    kernel = make_kernel()
    dev = NetDevice(kernel, "eth0")
    dev.hard_start_xmit = xmit
    kernel.net.register_netdev(dev)
    dev.netif_start_queue()
    return _FakeRig(kernel, dev)


class TestWedgedQueue:
    def test_stopped_queue_with_no_events_raises(self):
        """A driver that stops the queue and loses its completion."""
        state = {}

        def xmit(skb, dev):
            dev.netif_stop_queue()  # ...and no event will ever wake it
            return NETDEV_TX_OK

        rig = _make_rig(xmit)
        state["rig"] = rig
        with pytest.raises(RuntimeError, match="wedged"):
            netperf_send(rig, duration_s=0.01)

    def test_tx_busy_with_no_events_raises(self):
        """NETDEV_TX_BUSY with nothing pending is the same dead end."""
        from repro.kernel import NETDEV_TX_BUSY

        def xmit(skb, dev):
            return NETDEV_TX_BUSY

        rig = _make_rig(xmit)
        with pytest.raises(RuntimeError, match="wedged"):
            netperf_send(rig, duration_s=0.01)

    def test_stopped_queue_with_pending_wake_completes(self):
        """Flow control with a live completion event works as before."""
        sent = {"n": 0}

        def xmit(skb, dev):
            sent["n"] += 1
            dev.netif_stop_queue()
            dev._kernel.events.schedule_after(
                10_000, dev.netif_wake_queue, name="txdone")
            return NETDEV_TX_OK

        rig = _make_rig(xmit)
        result = netperf_send(rig, duration_s=0.001)
        assert result.packets == sent["n"]
        assert result.packets > 10  # ~one packet per 10us completion
