"""RTL8139 interrupt coalescing (the simplified IntrMitigate window)
and the traffic generator's bursty-arrival mode."""

from repro.devices import EthernetLink, Rtl8139Device, TrafficGenerator
from repro.devices import rtl8139 as rtl_mod
from repro.kernel import make_kernel


def _make_rig(rx_coalesce_ns=0):
    kernel = make_kernel()
    link = EthernetLink(kernel, bits_per_second=100_000_000)
    nic = Rtl8139Device(kernel, link, rx_coalesce_ns=rx_coalesce_ns)
    kernel.pci.add_function(nic.pci)
    kernel.pci.request_regions(nic.pci, "t")
    base = nic.pci.resource_start(0)
    return kernel, nic, base


def _install_handler(kernel, nic, base):
    """Handler that acks (write-1-to-clear) and logs what it saw."""
    seen = []

    def handler(_irq, _dev_id):
        isr = kernel.io.inw(base + rtl_mod.ISR)
        seen.append(isr)
        kernel.io.outw(isr, base + rtl_mod.ISR)
        return 1

    assert kernel.irq.request_irq(nic.irq, handler, "t") == 0
    kernel.io.outw(0xFFFF, base + rtl_mod.IMR)
    return seen


def test_zero_window_delivers_immediately():
    kernel, nic, base = _make_rig()
    seen = _install_handler(kernel, nic, base)
    for _ in range(3):
        nic._assert_irq(rtl_mod.ISR_ROK)
    assert seen == [rtl_mod.ISR_ROK] * 3


def test_causes_in_window_coalesce_into_one_delivery():
    kernel, nic, base = _make_rig(rx_coalesce_ns=50_000)
    seen = _install_handler(kernel, nic, base)

    nic._assert_irq(rtl_mod.ISR_ROK)
    assert seen == [rtl_mod.ISR_ROK]  # first cause delivers at once

    # Causes inside the open window latch in ISR, no extra interrupt.
    nic._assert_irq(rtl_mod.ISR_ROK)
    nic._assert_irq(rtl_mod.ISR_TOK)
    assert len(seen) == 1

    kernel.run_for_ns(50_001)
    assert seen == [rtl_mod.ISR_ROK, rtl_mod.ISR_ROK | rtl_mod.ISR_TOK]


def test_empty_window_expiry_is_silent():
    kernel, nic, base = _make_rig(rx_coalesce_ns=50_000)
    seen = _install_handler(kernel, nic, base)
    nic._assert_irq(rtl_mod.ISR_ROK)
    kernel.run_for_ns(200_000)  # handler acked; nothing accumulated
    assert seen == [rtl_mod.ISR_ROK]


def test_window_rearms_for_later_bursts():
    kernel, nic, base = _make_rig(rx_coalesce_ns=50_000)
    seen = _install_handler(kernel, nic, base)
    for _ in range(3):
        nic._assert_irq(rtl_mod.ISR_ROK)
        kernel.run_for_ns(100_000)
    assert seen == [rtl_mod.ISR_ROK] * 3


def test_reset_cancels_open_window():
    kernel, nic, base = _make_rig(rx_coalesce_ns=50_000)
    seen = _install_handler(kernel, nic, base)
    nic._assert_irq(rtl_mod.ISR_ROK)
    kernel.io.outb(rtl_mod.CR_RST, base + rtl_mod.CR)
    kernel.run_for_ns(200_000)
    # The stale expiry must not re-deliver against the post-reset ISR.
    assert seen == [rtl_mod.ISR_ROK]
    assert not nic._coalesce_event.pending


def test_traffic_generator_burst_preserves_average_rate():
    """burst=k injects k frames every k intervals: same average rate
    (up to the final partial burst), bursty arrival pattern."""
    counts = {}
    for burst in (1, 4):
        kernel = make_kernel()
        link = EthernetLink(kernel, bits_per_second=100_000_000)
        arrivals = []
        link.nic_rx = lambda f, a=arrivals: a.append(kernel.clock.now_ns)
        gen = TrafficGenerator(kernel, link, frame_bytes=1500, burst=burst)
        gen.start(stop_at_ns=10_000_000)
        kernel.run_for_ms(10)
        gen.stop()
        counts[burst] = gen.frames_sent
        if burst > 1:
            # Frames inside one burst land back-to-back at one instant.
            assert arrivals[0] == arrivals[burst - 1]
            assert arrivals[burst] > arrivals[0]
    assert counts[1] > 0 and counts[4] > 0
    assert abs(counts[1] - counts[4]) < 4
