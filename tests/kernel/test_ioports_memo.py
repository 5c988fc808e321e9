"""Edges of ``IoSpace``'s last-hit region memo.

``IoSpace.read``/``write`` serve an access from the region hit last in
its space when the access lies wholly inside it, and bisect the sorted
region array otherwise.  The memo must never change which handler sees
an access, whether an access is refused, the wedge override, or the
access counters.
"""

import pytest

from repro.kernel.errors import SimulationError


class Recorder:
    """Device handler that logs every access and reads back ``tag``."""

    def __init__(self, tag):
        self.tag = tag
        self.log = []

    def read(self, offset, size):
        self.log.append(("r", offset, size))
        return self.tag

    def write(self, offset, value, size):
        self.log.append(("w", offset, value, size))


PORT, MMIO = False, True


@pytest.mark.parametrize("is_mmio", [PORT, MMIO], ids=["port", "mmio"])
def test_access_straddling_the_last_hit_region_is_refused(kernel, is_mmio):
    io = kernel.io
    low, high = Recorder(1), Recorder(2)
    io.register(0x1000, 0x10, low, "low", is_mmio)
    io.register(0x1010, 0x10, high, "high", is_mmio)
    assert io.read(0x100C, 4, is_mmio) == 1  # primes the memo with "low"
    space = "MMIO" if is_mmio else "port"
    with pytest.raises(SimulationError,
                       match="unclaimed %s address 0x100e" % space):
        io.read(0x100E, 4, is_mmio)
    with pytest.raises(SimulationError,
                       match="unclaimed %s address 0x100d" % space):
        io.write(0x100D, 0xAB, 4, is_mmio)
    assert low.log == [("r", 0xC, 4)]
    assert high.log == []
    # The last byte of the region is still served from it.
    assert io.read(0x100F, 1, is_mmio) == 1


def test_reregistered_base_reaches_the_new_handler(kernel):
    io = kernel.io
    old, new = Recorder(0x11), Recorder(0x22)
    region = io.register(0x2000, 0x20, old, "old", PORT)
    assert io.inl(0x2004) == 0x11
    io.unregister(region)
    io.register(0x2000, 0x08, new, "new", PORT)
    assert io.inl(0x2004) == 0x22
    io.outb(0x5A, 0x2007)
    assert new.log == [("r", 4, 4), ("w", 7, 0x5A, 1)]
    assert old.log == [("r", 4, 4)]
    # The old region was larger: its tail is unclaimed now.
    with pytest.raises(SimulationError, match="unclaimed port"):
        io.inl(0x2010)


def test_port_and_mmio_memos_are_independent(kernel):
    io = kernel.io
    port, mmio = Recorder(0xA), Recorder(0xB)
    io.register(0x3000, 0x10, port, "port", PORT)
    mmio_region = io.register(0x3000, 0x10, mmio, "mmio", MMIO)
    for _ in range(2):
        assert io.inl(0x3004) == 0xA
        assert io.readl(0x3004) == 0xB
    io.unregister(mmio_region)
    assert io.inl(0x3008) == 0xA
    with pytest.raises(SimulationError, match="unclaimed MMIO"):
        io.readl(0x3008)
    assert port.log == [("r", 4, 4), ("r", 4, 4), ("r", 8, 4)]
    assert mmio.log == [("r", 4, 4), ("r", 4, 4)]


@pytest.mark.parametrize("is_mmio", [PORT, MMIO], ids=["port", "mmio"])
def test_wedged_address_is_forced_on_a_memo_hit(kernel, is_mmio):
    io = kernel.io
    dev = Recorder(0x1234)
    io.register(0x4000, 0x10, dev, "dev", is_mmio)
    assert io.read(0x4004, 4, is_mmio) == 0x1234  # memo now holds "dev"
    io.wedge(0x4004)
    assert io.read(0x4004, 2, is_mmio) == 0xFFFF
    io.write(0x4004, 0x77, 4, is_mmio)  # dropped
    assert io.read(0x4008, 4, is_mmio) == 0x1234  # neighbour unaffected
    io.unwedge(0x4004)
    assert io.read(0x4004, 4, is_mmio) == 0x1234
    assert dev.log == [("r", 4, 4), ("r", 8, 4), ("r", 4, 4)]


def test_access_counters_count_hits_misses_and_wedged(kernel):
    io = kernel.io
    a, b, m = Recorder(1), Recorder(2), Recorder(3)
    io.register(0x5000, 0x10, a, "a", PORT)
    io.register(0x6000, 0x10, b, "b", PORT)
    io.register(0x5000, 0x10, m, "m", MMIO)
    io.wedge(0x6008)
    io.inb(0x5000)         # miss
    io.inb(0x5001)         # hit
    io.outw(1, 0x6000)     # miss (other region)
    io.inl(0x6008)         # hit, wedged
    io.outl(1, 0x6008)     # hit, wedged write dropped
    io.readl(0x5004)       # MMIO miss
    io.writel(9, 0x5004)   # MMIO hit
    assert (io.port_accesses, io.mmio_accesses) == (5, 2)
    costs = kernel.costs
    assert kernel.now_ns() == 5 * costs.port_io_ns + 2 * costs.mmio_ns
    with pytest.raises(SimulationError):
        io.inb(0x7000)     # refused before counting or charging
    assert (io.port_accesses, io.mmio_accesses) == (5, 2)
