"""e1000 IRQ-line lifecycle: teardown, reinit and reopen.

A rig torn down mid-run (``e1000_down``, no ``free_irq``) must leave the
line exactly as ``request_irq`` built it; the down/up reinit cycle must
reuse that line rather than request it a second time (which would return
-EBUSY); and a full close must free the line so the next open can
request it again.
"""

from repro.drivers.legacy import e1000_main
from repro.kernel.errors import EBUSY
from repro.workloads import make_e1000_rig, netperf_recv


def _record_requests(rig):
    """Return the list every later request_irq appends its result to."""
    irq = rig.kernel.irq
    orig = irq.request_irq
    results = []

    def request_irq(*args, **kwargs):
        results.append(orig(*args, **kwargs))
        return results[-1]

    irq.request_irq = request_irq
    return results


class TestIrqLifecycle:
    def _line(self, rig):
        return rig.kernel.irq._line(rig.device.pci.irq)

    def _open_midrun(self):
        rig = make_e1000_rig(decaf=False)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_ms(50)                      # link up, mid-run
        return rig, dev

    def test_midrun_teardown_keeps_line_bound(self):
        """``e1000_down`` (the tx_timeout/reinit teardown) leaves the
        line requested and bound to ``e1000_intr``."""
        rig, dev = self._open_midrun()
        line = self._line(rig)
        assert line.handler is e1000_main.e1000_intr

        e1000_main.e1000_down(dev.priv)                # torn down
        assert line.handler is e1000_main.e1000_intr
        assert line.name == e1000_main.DRV_NAME        # still requested

    def test_reinit_reuses_line_without_ebusy(self):
        """The down/up reinit cycle keeps the line: no second
        request_irq (-EBUSY) and traffic still flows afterwards."""
        rig, dev = self._open_midrun()
        requests = _record_requests(rig)
        e1000_main.e1000_reinit_locked(dev.priv)       # down + up
        assert -EBUSY not in requests
        line = self._line(rig)
        assert line.handler is e1000_main.e1000_intr
        assert line.name == e1000_main.DRV_NAME
        delivered_before = rig.kernel.irq.delivered
        result = netperf_recv(rig, duration_s=0.02)    # traffic flows
        assert result.packets > 0
        assert rig.kernel.irq.delivered > delivered_before

    def test_close_frees_line_and_reopen_requests(self):
        """ifdown frees the line entirely; a fresh open re-requests it
        without -EBUSY and traffic flows again."""
        rig = make_e1000_rig(decaf=False)
        rig.insmod()
        line = self._line(rig)
        first = netperf_recv(rig, duration_s=0.02)     # opens + closes
        assert first.packets > 0
        assert line.handler is None                    # fully freed

        dev = rig.netdev()
        requests = _record_requests(rig)
        assert rig.kernel.net.dev_open(dev) == 0       # reopen
        assert requests and -EBUSY not in requests
        assert line.handler is e1000_main.e1000_intr
        assert line.name == e1000_main.DRV_NAME
        rig.kernel.net.dev_close(dev)
        second = netperf_recv(rig, duration_s=0.02)    # open, traffic, close
        assert second.packets > 0
        assert line.handler is None                    # freed again
