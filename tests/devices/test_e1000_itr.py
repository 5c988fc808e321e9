"""E1000 interrupt coalescing (ITR window) at the register level.

The model throttles interrupt delivery to one per ITR window: causes
asserted while the window is open accumulate in ICR and are delivered in
a single interrupt when the window expires.  Read-to-clear must never
drop a cause that lands between the handler's ICR read and its return.
"""

import pytest

from repro.devices import E1000Device, EthernetLink
from repro.devices import e1000 as e1000_mod
from repro.kernel import make_kernel


def _make_rig(itr_window_ns=None):
    kernel = make_kernel()
    link = EthernetLink(kernel)
    nic = E1000Device(kernel, link, itr_window_ns=itr_window_ns)
    kernel.pci.add_function(nic.pci)
    kernel.pci.request_regions(nic.pci, "t")
    base = nic.pci.resource_start(0)
    return kernel, nic, base


def _install_handler(kernel, nic, base, on_first=None):
    """Handler that reads ICR (read-to-clear) and logs what it saw."""
    seen = []

    def handler(_irq, _dev_id):
        icr = kernel.io.readl(base + e1000_mod.REG_ICR)
        if on_first is not None and not seen:
            on_first()
        seen.append(icr)
        return 1

    assert kernel.irq.request_irq(nic.irq, handler, "t") == 0
    return seen


class TestItrCoalescing:
    def test_causes_in_window_coalesce_into_one_delivery(self):
        kernel, nic, base = _make_rig()
        seen = _install_handler(kernel, nic, base)
        kernel.io.writel(e1000_mod.ICR_RXT0 | e1000_mod.ICR_TXDW,
                         base + e1000_mod.REG_IMS)

        kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_ICS)
        assert seen == [e1000_mod.ICR_RXT0]  # first cause delivers at once

        # More causes inside the window: accumulate, no extra interrupt.
        kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_ICS)
        kernel.io.writel(e1000_mod.ICR_TXDW, base + e1000_mod.REG_ICS)
        assert len(seen) == 1

        # Window expiry delivers the accumulated causes as one interrupt.
        kernel.run_for_ns(nic.itr_window_ns + 1)
        assert seen == [e1000_mod.ICR_RXT0,
                        e1000_mod.ICR_RXT0 | e1000_mod.ICR_TXDW]

    def test_empty_window_expiry_is_silent(self):
        kernel, nic, base = _make_rig()
        seen = _install_handler(kernel, nic, base)
        kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_IMS)
        kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_ICS)
        # Handler read cleared ICR; nothing new arrives in the window.
        kernel.run_for_ns(nic.itr_window_ns * 3)
        assert seen == [e1000_mod.ICR_RXT0]

    def test_cause_raised_mid_read_is_not_dropped(self):
        """A cause asserted between the ICR read and handler return must
        be delivered by the next window, not lost to read-to-clear."""
        kernel, nic, base = _make_rig()
        seen = _install_handler(
            kernel, nic, base,
            on_first=lambda: nic._assert_irq(e1000_mod.ICR_TXDW))
        kernel.io.writel(e1000_mod.ICR_RXT0 | e1000_mod.ICR_TXDW,
                         base + e1000_mod.REG_IMS)

        kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_ICS)
        assert seen == [e1000_mod.ICR_RXT0]
        # The mid-read TXDW sits latched in ICR behind the open window.
        assert nic.regs[e1000_mod.REG_ICR] == e1000_mod.ICR_TXDW
        kernel.run_for_ns(nic.itr_window_ns + 1)
        assert seen == [e1000_mod.ICR_RXT0, e1000_mod.ICR_TXDW]

    def test_window_rearms_for_later_bursts(self):
        kernel, nic, base = _make_rig()
        seen = _install_handler(kernel, nic, base)
        kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_IMS)
        for _ in range(3):
            kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_ICS)
            kernel.run_for_ns(nic.itr_window_ns * 2)
        assert seen == [e1000_mod.ICR_RXT0] * 3


class TestZeroWindow:
    def test_zero_window_delivers_per_cause(self):
        """itr_window_ns=0 is the per-packet-interrupt ablation baseline."""
        kernel, nic, base = _make_rig(itr_window_ns=0)
        seen = _install_handler(kernel, nic, base)
        kernel.io.writel(e1000_mod.ICR_RXT0 | e1000_mod.ICR_TXDW,
                         base + e1000_mod.REG_IMS)
        for _ in range(3):
            kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_ICS)
        kernel.io.writel(e1000_mod.ICR_TXDW, base + e1000_mod.REG_ICS)
        assert seen == [e1000_mod.ICR_RXT0] * 3 + [e1000_mod.ICR_TXDW]
        # No throttle event was ever armed (on any queue).
        assert all(ev.event is None for ev in nic._itr_event)

    def test_default_window_from_class_attribute(self):
        kernel = make_kernel()
        link = EthernetLink(kernel)
        nic = E1000Device(kernel, link)
        assert nic.itr_window_ns == E1000Device.ITR_WINDOW_NS


class TestImsRefire:
    def test_ims_write_refires_latched_causes(self):
        """Unmasking with causes pending delivers them (the NAPI poll
        relies on this when it restores IMS after napi_complete)."""
        kernel, nic, base = _make_rig()
        seen = _install_handler(kernel, nic, base)
        nic._assert_irq(e1000_mod.ICR_RXT0)  # IMS == 0: latched only
        assert seen == []
        kernel.io.writel(e1000_mod.ICR_RXT0, base + e1000_mod.REG_IMS)
        assert seen == [e1000_mod.ICR_RXT0]
