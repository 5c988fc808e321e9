"""E1000 TX ring and buffer memos match a device that re-resolves.

``_process_tx_ring`` keeps a per-queue ``(region, count)`` memo of the
ring and a ``(base, end, region)`` memo of the buffer arena.  Each
scenario here runs twice, once on the real device and once on
:class:`UnmemoizedE1000`, which resolves the ring on every doorbell and
every buffer through ``dma_find``.  Both runs must put the same frames
on the wire at the same virtual times, write back the same DD bytes and
TDH values, and raise TXDW at the same times.
"""

import struct

import pytest

from repro.devices import E1000Device, EthernetLink
from repro.devices import e1000 as e1000_mod
from repro.kernel import make_kernel

STRIDE = e1000_mod.QUEUE_STRIDE
CMD = e1000_mod.TXD_CMD_EOP | e1000_mod.TXD_CMD_RS


class UnmemoizedE1000(E1000Device):
    """Reference device: no ring memo, no buffer memo."""

    def _process_tx_ring(self, q=0):
        regs = self.regs
        if not regs[e1000_mod.REG_TCTL] & e1000_mod.TCTL_EN:
            return
        region, count = self._ring(
            self._off_tdbal[q], self._off_tdbah[q], self._off_tdlen[q])
        if region is None or count == 0:
            return
        fetched_key = e1000_mod.REG_TDT_FETCHED + q
        head = regs.get(fetched_key, regs[self._off_tdh[q]])
        tail = regs[self._off_tdt[q]] % count
        while head != tail:
            off = head * e1000_mod.DESC_SIZE
            addr, length, _cso, cmd = struct.unpack_from(
                "<QHBB", region.data, off)
            buf, start = self._kernel.memory.dma_find(addr)
            if buf is not None and start + length > len(buf.data):
                buf = None  # runs past its region: sent as unmapped
            done_ns = self._kernel.clock.now_ns
            if buf is not None:
                done_ns = self.link.transmit(
                    memoryview(buf.data)[start:start + length])
                self.frames_transmitted += 1
                self.tx_queue_frames[q] += 1
            self._tx_done[q].append((done_ns, region, count, head, off, cmd))
            head = (head + 1) % count
        regs[fetched_key] = head
        self._arm_tx_pump(q)


class Bench:
    """One NIC on a bare kernel, logging wire frames, TXDW irqs and
    write-backs."""

    def __init__(self, device_cls, num_queues=1):
        kernel = self.kernel = make_kernel()
        self.link = EthernetLink(kernel)
        self.nic = device_cls(kernel, self.link, num_queues=num_queues)
        kernel.pci.add_function(self.nic.pci)
        kernel.pci.request_regions(self.nic.pci, "t")
        self.base = self.nic.pci.resource_start(0)
        self.log = []
        self.rings = []
        self.link.peer_rx = lambda frame: self.log.append(
            ("wire", kernel.clock.now_ns, frame))
        for q in range(num_queues):
            assert kernel.irq.request_irq(
                self.nic.irq + q, self._handler(q), "t") == 0
            self.w(e1000_mod.ICR_TXDW, e1000_mod.REG_IMS, q)
        self.w(e1000_mod.TCTL_EN, e1000_mod.REG_TCTL)

    def _handler(self, q):
        def handler(_irq, _dev_id):
            icr = self.kernel.io.readl(self.base + e1000_mod.REG_ICR
                                       + q * STRIDE)
            self.log.append(("irq", q, self.kernel.clock.now_ns, icr))
            return 1
        return handler

    def w(self, value, reg, q=0):
        self.kernel.io.writel(value, self.base + reg + q * STRIDE)

    def alloc(self, size):
        return self.kernel.memory.dma_alloc_coherent(size)

    def program(self, q, desc, count):
        self.rings.append(desc)
        self.w(desc.dma_addr & 0xFFFFFFFF, e1000_mod.REG_TDBAL, q)
        self.w(desc.dma_addr >> 32, e1000_mod.REG_TDBAH, q)
        self.w(count * 16, e1000_mod.REG_TDLEN, q)

    def post(self, desc, index, addr, payload, buf=None):
        """Fill descriptor ``index``; write ``payload`` at ``addr`` of
        ``buf`` (a region) when given."""
        if buf is not None:
            start = addr - buf.dma_addr
            buf.data[start:start + len(payload)] = payload
        struct.pack_into("<QHBBBBH", desc.data, index * 16, addr,
                         len(payload), 0, CMD, 0, 0, 0)

    def doorbell(self, q, tail):
        self.w(tail, e1000_mod.REG_TDT, q)

    def settle(self, ns=1_000_000):
        self.kernel.run_for_ns(ns)
        self.log.append(("wb", self.kernel.clock.now_ns,
                         [bytes(r.data[12::16]) for r in self.rings],
                         [self.nic.regs.get(e1000_mod.REG_TDH + q * STRIDE)
                          for q in range(self.nic.num_queues)]))


def _payload(tag, n=600):
    return bytes([tag]) * n


def both(scenario, num_queues=1):
    """Run ``scenario(bench)`` on both devices; return the memo log."""
    logs = []
    for cls in (E1000Device, UnmemoizedE1000):
        bench = Bench(cls, num_queues)
        scenario(bench)
        logs.append(bench.log)
    assert logs[0] == logs[1]
    return logs[0]


def _wire(log):
    return [entry[2] for entry in log if entry[0] == "wire"]


@pytest.mark.parametrize("num_queues,q", [(1, 0), (2, 1)])
def test_reprogramming_the_ring_between_bursts(num_queues, q):
    def scenario(b):
        bufs = b.alloc(32 * 2048)
        ring_a = b.alloc(8 * 16)
        b.program(q, ring_a, 8)
        for i in range(3):
            b.post(ring_a, i, bufs.dma_addr + i * 2048, _payload(i), bufs)
        b.doorbell(q, 3)
        b.settle()
        # A new, larger ring at a new address; the fetch position (3)
        # carries over, so the next burst starts at index 3 of ring B.
        ring_b = b.alloc(16 * 16)
        b.program(q, ring_b, 16)
        for i in range(3, 12):
            b.post(ring_b, i, bufs.dma_addr + i * 2048,
                   _payload(0x40 + i), bufs)
        b.doorbell(q, 12)
        b.settle()
        assert b.nic.tx_queue_frames[q] == 12

    log = both(scenario, num_queues)
    assert _wire(log) == (
        [_payload(i) for i in range(3)]
        + [_payload(0x40 + i) for i in range(3, 12)])
    assert any(entry[0] == "irq" and entry[1] == q for entry in log)


def test_freeing_and_reallocating_the_ring_at_the_same_address():
    def scenario(b):
        memory = b.kernel.memory
        bufs = b.alloc(8 * 2048)
        ring = b.alloc(8 * 16)
        b.program(0, ring, 8)
        for i in range(2):
            b.post(ring, i, bufs.dma_addr + i * 2048, _payload(i), bufs)
        b.doorbell(0, 2)
        b.settle()
        # Free ring and buffers; reallocate both at their old bus
        # addresses without touching TDBAL/TDLEN.
        ring_addr, bufs_addr = ring.dma_addr, bufs.dma_addr
        memory.dma_free_coherent(ring)
        memory.dma_free_coherent(bufs)
        memory._next_dma = ring_addr
        ring2 = b.alloc(8 * 16)
        memory._next_dma = bufs_addr
        bufs2 = b.alloc(8 * 2048)
        assert (ring2.dma_addr, bufs2.dma_addr) == (ring_addr, bufs_addr)
        b.rings.append(ring2)
        for i in range(2, 6):
            b.post(ring2, i, bufs_addr + i * 2048, _payload(0x80 + i), bufs2)
        b.doorbell(0, 6)
        b.settle()

    log = both(scenario)
    assert _wire(log) == ([_payload(0), _payload(1)]
                          + [_payload(0x80 + i) for i in range(2, 6)])


def test_ctrl_reset_with_completions_in_flight():
    def scenario(b):
        bufs = b.alloc(8 * 2048)
        ring = b.alloc(8 * 16)
        b.program(0, ring, 8)
        for i in range(4):
            b.post(ring, i, bufs.dma_addr + i * 2048, _payload(i, 1500), bufs)
        b.doorbell(0, 4)
        # Every frame is on the wire; none has completed yet.
        b.w(e1000_mod.CTRL_RST, e1000_mod.REG_CTRL)
        b.settle()
        # After reset the ring registers are gone: a doorbell without
        # reprogramming must not reach the old ring.
        b.w(e1000_mod.ICR_TXDW, e1000_mod.REG_IMS)
        b.w(e1000_mod.TCTL_EN, e1000_mod.REG_TCTL)
        b.doorbell(0, 2)
        b.settle()
        b.program(0, ring, 8)
        b.w(0, e1000_mod.REG_TDH)
        b.w(0, e1000_mod.REG_TDT)
        for i in range(3):
            b.post(ring, i, bufs.dma_addr + i * 2048, _payload(0x20 + i), bufs)
        b.doorbell(0, 3)
        b.settle()

    log = both(scenario)
    assert _wire(log) == ([_payload(i, 1500) for i in range(4)]
                          + [_payload(0x20 + i) for i in range(3)])


def test_buffers_outside_the_cached_arena():
    def scenario(b):
        bufs = b.alloc(4 * 2048)
        other = b.alloc(4 * 2048)
        ring = b.alloc(16 * 16)
        b.program(0, ring, 16)
        posts = [
            (bufs.dma_addr, _payload(1), bufs),
            (other.dma_addr + 100, _payload(2), other),   # another arena
            (bufs.dma_addr + 2048, _payload(3), bufs),    # and back
            (0x10, _payload(4), None),                    # unmapped
            # Ends exactly at the arena's end, then straddles it: the
            # straddling frame is not sent.
            (bufs.dma_addr + len(bufs.data) - 200, _payload(5, 200), bufs),
            (bufs.dma_addr + len(bufs.data) - 200, _payload(6, 600), None),
            (other.dma_addr + 4096, _payload(7), other),
        ]
        for i, (addr, payload, region) in enumerate(posts):
            b.post(ring, i, addr, payload, region)
        b.doorbell(0, len(posts))
        b.settle()

    log = both(scenario)
    assert _wire(log) == [_payload(1), _payload(2), _payload(3),
                          _payload(5, 200), _payload(7)]
    statuses = [entry[2][0] for entry in log if entry[0] == "wb"][-1]
    # Every fetched descriptor completes, the unmapped one included.
    assert all(s & e1000_mod.TXD_STAT_DD for s in statuses[:7])


@pytest.mark.parametrize("device_cls", [E1000Device, UnmemoizedE1000])
def test_jumbo_descriptor_past_the_arena_end_is_not_sent(device_cls):
    """DMA regions are fixed-size: a jumbo frame written into the last
    slot raises instead of growing the arena, and a descriptor whose
    buffer crosses the arena's end completes without transmitting,
    whether or not the arena was memoized."""
    bench = Bench(device_cls)
    bufs = bench.alloc(2 * 2048)
    ring = bench.alloc(8 * 16)
    bench.program(0, ring, 8)
    bench.post(ring, 0, bufs.dma_addr, _payload(1), bufs)
    bench.doorbell(0, 1)
    bench.settle()
    with pytest.raises(IndexError):
        bufs.data[2048:2048 + 3000] = _payload(2, 3000)
    assert len(bufs.data) == 2 * 2048
    bench.post(ring, 1, bufs.dma_addr + 2048, _payload(2, 3000))
    bench.post(ring, 2, bufs.dma_addr + 2048, _payload(3, 2048), bufs)
    bench.doorbell(0, 3)
    bench.settle()
    assert _wire(bench.log) == [_payload(1), _payload(3, 2048)]
    assert bench.nic.tx_queue_frames[0] == 2
    statuses = bench.log[-1][2][0]
    assert all(s & e1000_mod.TXD_STAT_DD for s in statuses[:3])
