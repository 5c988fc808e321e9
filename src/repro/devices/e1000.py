"""Intel E1000 (PRO/1000) gigabit NIC device model.

Implements the register-level behaviour the Linux e1000 driver relies on:

* CTRL/STATUS with software reset and link-up reporting,
* microwire EEPROM reads through EERD (MAC address, device config,
  checksum word summing to 0xBABA),
* PHY management through MDIC (M88E1000/IGP01E1000 identities, autoneg),
* legacy transmit/receive descriptor rings fetched from DMA memory,
* the ICR/IMS/IMC interrupt scheme (read-to-clear cause register).

Fifty device IDs from the real driver's pci_device_id table are accepted
(``E1000_DEVICE_IDS``), mapped onto the handful of MAC types the model
distinguishes -- the driver's per-chipset code paths see the same
mac_type decisions they would on hardware.
"""

import struct
import zlib
from collections import deque

from ..kernel.pci import PciBar, PciFunction

INTEL_VENDOR_ID = 0x8086

# A representative slice of the real e1000 id table (the driver supports
# ~50 chipsets; the model accepts all of these and reports a matching
# mac_type through EEPROM/revision data).
E1000_DEVICE_IDS = (
    0x1000, 0x1001, 0x1004, 0x1008, 0x1009, 0x100C, 0x100D, 0x100E,
    0x100F, 0x1010, 0x1011, 0x1012, 0x1013, 0x1014, 0x1015, 0x1016,
    0x1017, 0x1018, 0x1019, 0x101A, 0x101D, 0x101E, 0x1026, 0x1027,
    0x1028, 0x1075, 0x1076, 0x1077, 0x1078, 0x1079, 0x107A, 0x107B,
    0x107C, 0x108A, 0x1099, 0x10B5, 0x1107, 0x1112, 0x1111, 0x1113,
    0x1115, 0x10A4, 0x10D9, 0x10DA, 0x10A5, 0x100A, 0x1060, 0x109A,
    0x10B9, 0x1096,
)

# Register offsets (from the 8254x software developer's manual).
REG_CTRL = 0x00000
REG_STATUS = 0x00008
REG_EECD = 0x00010
REG_EERD = 0x00014
REG_CTRL_EXT = 0x00018
REG_MDIC = 0x00020
REG_FCAL = 0x00028
REG_FCAH = 0x0002C
REG_FCT = 0x00030
REG_VET = 0x00038
REG_ICR = 0x000C0
REG_ITR = 0x000C4
REG_ICS = 0x000C8
REG_IMS = 0x000D0
REG_IMC = 0x000D8
REG_RCTL = 0x00100
REG_FCTTV = 0x00170
REG_TCTL = 0x00400
REG_TIPG = 0x00410
REG_LEDCTL = 0x00E00
REG_PBA = 0x01000
REG_RDBAL = 0x02800
REG_RDBAH = 0x02804
REG_RDLEN = 0x02808
REG_RDH = 0x02810
REG_RDT = 0x02818
REG_RDTR = 0x02820
REG_TDBAL = 0x03800
REG_TDBAH = 0x03804
REG_TDLEN = 0x03808
REG_TDH = 0x03810
REG_TDT = 0x03818
REG_TIDV = 0x03820
REG_RAL0 = 0x05400
REG_RAH0 = 0x05404
REG_MTA_BASE = 0x05200  # 128 entries
REG_CRCERRS = 0x04000   # statistics block base (64 counters)
REG_TDT_FETCHED = 0xFFFF0  # model-internal: descriptors fetched so far

# CTRL bits.
CTRL_FD = 1 << 0
CTRL_ASDE = 1 << 5
CTRL_SLU = 1 << 6
CTRL_RST = 1 << 26
CTRL_PHY_RST = 1 << 31

# STATUS bits.
STATUS_FD = 1 << 0
STATUS_LU = 1 << 1

# EERD bits.
EERD_START = 1 << 0
EERD_DONE = 1 << 4

# MDIC bits.
MDIC_OP_WRITE = 1 << 26
MDIC_OP_READ = 2 << 26
MDIC_READY = 1 << 28
MDIC_ERROR = 1 << 30

# Interrupt causes.
ICR_TXDW = 1 << 0
ICR_TXQE = 1 << 1
ICR_LSC = 1 << 2
ICR_RXSEQ = 1 << 3
ICR_RXDMT0 = 1 << 4
ICR_RXO = 1 << 6
ICR_RXT0 = 1 << 7

# RCTL/TCTL enable bits.
RCTL_EN = 1 << 1
TCTL_EN = 1 << 1

# TX descriptor cmd/status bits.
TXD_CMD_EOP = 0x01
TXD_CMD_RS = 0x08
TXD_STAT_DD = 0x01

# RX descriptor status bits.
RXD_STAT_DD = 0x01
RXD_STAT_EOP = 0x02

DESC_SIZE = 16

# Multi-queue register layout: queue ``q``'s interrupt block (ICR, ITR,
# ICS, IMS, IMC) and its RX/TX descriptor ring blocks live at the
# queue-0 offsets plus ``q * QUEUE_STRIDE`` -- an MSI-X-style per-vector
# layout.  Queue 0 is byte-identical to the legacy single-queue map, so
# an unmodified driver binds to a multi-queue device and simply never
# touches the higher queues.  The stride keeps every strided offset
# clear of the fixed registers for all q < MAX_QUEUES (RCTL at 0x100,
# TCTL at 0x400, LEDCTL at 0xE00 and the 0x4000 statistics block are
# never aliased; see tests/devices/test_e1000_multiqueue.py).
QUEUE_STRIDE = 0x100
MAX_QUEUES = 8

# Precompiled descriptor codecs: the receive path touches these once per
# packet, so the struct-format cache lookup is worth skipping.
_RXD_ADDR = struct.Struct("<Q")
_RXD_WRITEBACK = struct.Struct("<HHBBH")
# Legacy TX descriptor up to cmd: buffer address, length, (cso), cmd.
_TXD = struct.Struct("<QHxB")
_TXD_STATUS = 12  # offset of the status byte the DD write-back sets

# PHY identifiers the driver knows.
M88_PHY_ID1 = 0x0141
M88_PHY_ID2 = 0x0C50
IGP01_PHY_ID1 = 0x02A8
IGP01_PHY_ID2 = 0x0380

# PHY registers.
PHY_CTRL = 0x00
PHY_STATUS = 0x01
PHY_ID1 = 0x02
PHY_ID2 = 0x03
PHY_AUTONEG_ADV = 0x04
PHY_LP_ABILITY = 0x05
PHY_1000T_CTRL = 0x09
PHY_1000T_STATUS = 0x0A
M88_PHY_SPEC_CTRL = 0x10
M88_PHY_SPEC_STATUS = 0x11

PHY_STATUS_LINK = 1 << 2
PHY_STATUS_AUTONEG_DONE = 1 << 5


def _eeprom_checksum_fixup(words):
    """Set word 0x3F so the 64-word sum is 0xBABA, as the driver checks."""
    total = sum(words[:0x3F]) & 0xFFFF
    words[0x3F] = (0xBABA - total) & 0xFFFF
    return words


class E1000Device:
    """The NIC.  Attach to a kernel, wire to an :class:`EthernetLink`."""

    BAR_SIZE = 0x20000

    def __init__(self, kernel, link, mac=b"\x00\x1B\x21\x3A\x4B\x5C",
                 device_id=0x100E, irq=10, mmio_base=0xF0000000,
                 phy="m88", itr_window_ns=None, num_queues=1,
                 rx_pending_cap=256):
        if not 1 <= num_queues <= MAX_QUEUES:
            raise ValueError("num_queues must be 1..%d" % MAX_QUEUES)
        self._kernel = kernel
        self.link = link
        link.nic_rx = self._link_rx
        self.mac = bytes(mac)
        self.device_id = device_id
        self.irq = irq
        self.phy_kind = phy
        self.num_queues = num_queues
        # How many frames a queue buffers while its ring is full before
        # the device starts counting drops (the internal packet FIFO).
        self.rx_pending_cap = rx_pending_cap

        # Per-queue absolute register offsets; queue 0 is the legacy map.
        qr = range(num_queues)
        self._off_icr = [REG_ICR + q * QUEUE_STRIDE for q in qr]
        self._off_itr = [REG_ITR + q * QUEUE_STRIDE for q in qr]
        self._off_ims = [REG_IMS + q * QUEUE_STRIDE for q in qr]
        self._off_rdbal = [REG_RDBAL + q * QUEUE_STRIDE for q in qr]
        self._off_rdbah = [REG_RDBAH + q * QUEUE_STRIDE for q in qr]
        self._off_rdlen = [REG_RDLEN + q * QUEUE_STRIDE for q in qr]
        self._off_rdh = [REG_RDH + q * QUEUE_STRIDE for q in qr]
        self._off_rdt = [REG_RDT + q * QUEUE_STRIDE for q in qr]
        self._off_tdbal = [REG_TDBAL + q * QUEUE_STRIDE for q in qr]
        self._off_tdbah = [REG_TDBAH + q * QUEUE_STRIDE for q in qr]
        self._off_tdlen = [REG_TDLEN + q * QUEUE_STRIDE for q in qr]
        self._off_tdh = [REG_TDH + q * QUEUE_STRIDE for q in qr]
        self._off_tdt = [REG_TDT + q * QUEUE_STRIDE for q in qr]
        # Dispatch tables for queues >= 1 (queue 0 keeps the original
        # fast paths): absolute offset -> queue for read-to-clear ICR,
        # and absolute offset -> (kind, queue) for side-effecting writes.
        self._icr_alias = {}
        self._strided = {}
        for q in range(1, num_queues):
            s = q * QUEUE_STRIDE
            self._icr_alias[REG_ICR + s] = q
            self._strided[REG_ITR + s] = ("itr", q)
            self._strided[REG_ICS + s] = ("ics", q)
            self._strided[REG_IMS + s] = ("ims", q)
            self._strided[REG_IMC + s] = ("imc", q)
            self._strided[REG_RDT + s] = ("rdt", q)
            self._strided[REG_TDT + s] = ("tdt", q)
            for off in (REG_RDBAL + s, REG_RDBAH + s, REG_RDLEN + s):
                self._strided[off] = ("rxring", q)
            for off in (REG_TDBAL + s, REG_TDBAH + s, REG_TDLEN + s):
                self._strided[off] = ("txring", q)

        # Interrupt-throttle window; 0 selects true per-packet interrupts
        # (the NAPI-ablation baseline).  Per queue: each vector throttles
        # independently, like per-vector EITR on msi-x parts.
        self.itr_window_ns = (
            self.ITR_WINDOW_NS if itr_window_ns is None else itr_window_ns)
        # Per queue, one re-armed event each for the throttle window's
        # expiry and the TX completion pump.
        events = kernel.events
        self._itr_event = [
            events.recurring(lambda q=q: self._itr_expire(q),
                             name="e1000-itr") for q in qr]
        self._tx_pump_event = [
            events.recurring(lambda q=q: self._tx_pump(q),
                             name="e1000-txdone") for q in qr]

        self.regs = {}
        self.eeprom = self._build_eeprom()
        self.phy_regs = self._build_phy()
        self._reset_regs()

        self.pci = PciFunction(
            vendor_id=INTEL_VENDOR_ID,
            device_id=device_id,
            irq=irq,
            bars=[PciBar(mmio_base, self.BAR_SIZE, is_mmio=True, handler=self)],
            subsystem_vendor=INTEL_VENDOR_ID,
            subsystem_device=device_id,
            revision=2,
            name="e1000",
        )

        self.resets = 0
        self.frames_transmitted = 0
        self.frames_received = 0
        # Ring-full refusals, retries of a backlogged frame included.
        self.rx_no_buffer = 0
        # Frames lost off a full backlog (the Missed Packets Count).
        self.rx_missed = 0
        self.rx_queue_frames = [0] * num_queues
        self.tx_queue_frames = [0] * num_queues
        self._pending_rx = [[] for _ in qr]

    @property
    def itr_window_ns(self):
        """Queue-0 throttle window (scalar API for single-queue users)."""
        return self._itr_window_ns[0]

    @itr_window_ns.setter
    def itr_window_ns(self, value):
        self._itr_window_ns = [value] * self.num_queues

    # -- EEPROM / PHY contents ---------------------------------------------------

    def _build_eeprom(self):
        words = [0] * 64
        words[0] = self.mac[0] | (self.mac[1] << 8)
        words[1] = self.mac[2] | (self.mac[3] << 8)
        words[2] = self.mac[4] | (self.mac[5] << 8)
        words[0x0A] = 0x4000  # init control word
        words[0x0B] = 0x8086
        words[0x0F] = self.device_id
        return _eeprom_checksum_fixup(words)

    def _build_phy(self):
        regs = [0] * 32
        regs[PHY_CTRL] = 0x1140  # autoneg enable, full duplex
        regs[PHY_STATUS] = 0x796D | PHY_STATUS_LINK | PHY_STATUS_AUTONEG_DONE
        if self.phy_kind == "igp":
            regs[PHY_ID1] = IGP01_PHY_ID1
            regs[PHY_ID2] = IGP01_PHY_ID2
        else:
            regs[PHY_ID1] = M88_PHY_ID1
            regs[PHY_ID2] = M88_PHY_ID2
        regs[PHY_AUTONEG_ADV] = 0x01E1
        regs[PHY_LP_ABILITY] = 0x45E1
        regs[PHY_1000T_STATUS] = 0x3C00
        regs[M88_PHY_SPEC_STATUS] = 0xAC08  # 1000 Mb/s, full duplex, link
        return regs

    def _reset_regs(self):
        nq = self.num_queues
        regs = self.regs = {
            REG_CTRL: CTRL_FD,
            REG_STATUS: STATUS_FD,  # link comes up after SLU/autoneg
            REG_RCTL: 0,
            REG_TCTL: 0,
        }
        # Seed every queue's interrupt and ring-index registers so the
        # hot paths can index them without .get().
        for q in range(nq):
            s = q * QUEUE_STRIDE
            regs[REG_ICR + s] = 0
            regs[REG_IMS + s] = 0
            regs[REG_TDH + s] = 0
            regs[REG_TDT + s] = 0
            regs[REG_RDH + s] = 0
            regs[REG_RDT + s] = 0
        self._link_up = False
        # Cancel any armed throttle window (a stale expiry would clear
        # the throttle state and defeat interrupt moderation), and drop
        # in-flight TX completions with their pump events.
        for ev in self._itr_event + self._tx_pump_event:
            ev.cancel()
        self._tx_done = [deque() for _ in range(nq)]
        # Per-queue (region, count) memo for the RX ring; invalidated
        # when the driver reprograms that queue's RDBAL/RDBAH/RDLEN.
        self._rx_ring_cache = [None] * nq
        # Per-queue (base, end, region) memo for the RX buffer arena
        # every descriptor's buffer pointer resolves into.
        self._rx_buf_cache = [None] * nq
        # The TX twins: (region, count) of the ring, invalidated when
        # TDBAL/TDBAH/TDLEN is written, and (base, end, region) of the
        # buffer arena the descriptors point into.
        self._tx_ring_cache = [None] * nq
        self._tx_buf_cache = [None] * nq

    # -- MMIO handler interface ----------------------------------------------------

    def read(self, offset, size):
        assert size == 4, "e1000 registers are 32-bit"
        if offset == REG_ICR:
            value = self.regs.get(REG_ICR, 0)
            self.regs[REG_ICR] = 0  # read-to-clear
            return value
        if offset in self._icr_alias:  # queue >= 1 ICR: read-to-clear
            value = self.regs.get(offset, 0)
            self.regs[offset] = 0
            return value
        if offset == REG_EERD:
            return self.regs.get(REG_EERD, 0)
        if REG_CRCERRS <= offset < REG_CRCERRS + 64 * 4:
            return self.regs.get(offset, 0)
        return self.regs.get(offset, 0)

    def write(self, offset, value, size):
        assert size == 4, "e1000 registers are 32-bit"
        if offset == REG_CTRL:
            self._write_ctrl(value)
        elif offset == REG_EERD:
            self._write_eerd(value)
        elif offset == REG_MDIC:
            self._write_mdic(value)
        elif offset == REG_ICS:
            self._assert_irq(value)
        elif offset == REG_IMS:
            self.regs[REG_IMS] = self.regs.get(REG_IMS, 0) | value
            self._maybe_fire()
        elif offset == REG_IMC:
            self.regs[REG_IMS] = self.regs.get(REG_IMS, 0) & ~value
        elif offset == REG_ITR:
            # Interrupt throttle register: interval in 256 ns units
            # (82540 spec); 0 disables throttling.  The driver's dynamic
            # ITR reprograms this based on traffic class.
            self.regs[REG_ITR] = value
            self._itr_window_ns[0] = value * 256
        elif offset == REG_TDT:
            self.regs[REG_TDT] = value
            self._process_tx_ring()
        elif offset == REG_RDT:
            self.regs[REG_RDT] = value
            self._drain_pending_rx()
        elif offset == REG_RCTL:
            self.regs[REG_RCTL] = value
        elif offset == REG_TCTL:
            self.regs[REG_TCTL] = value
        else:
            strided = self._strided.get(offset)
            if strided is not None:
                self._write_strided(strided[0], strided[1], offset, value)
                return
            if offset in (REG_RDBAL, REG_RDBAH, REG_RDLEN):
                self._rx_ring_cache[0] = None
            elif offset in (REG_TDBAL, REG_TDBAH, REG_TDLEN):
                self._tx_ring_cache[0] = None
            self.regs[offset] = value

    def _write_strided(self, kind, q, offset, value):
        """Side-effecting register writes for queues >= 1."""
        regs = self.regs
        if kind == "tdt":
            regs[offset] = value
            self._process_tx_ring(q)
        elif kind == "rdt":
            regs[offset] = value
            self._drain_pending_rx(q)
        elif kind == "ims":
            off_ims = self._off_ims[q]
            regs[off_ims] = regs.get(off_ims, 0) | value
            self._maybe_fire(q)
        elif kind == "imc":
            off_ims = self._off_ims[q]
            regs[off_ims] = regs.get(off_ims, 0) & ~value
        elif kind == "ics":
            self._assert_irq(value, q)
        elif kind == "itr":
            regs[offset] = value
            self._itr_window_ns[q] = value * 256
        elif kind == "txring":  # TDBAL/TDBAH/TDLEN reprogram
            self._tx_ring_cache[q] = None
            regs[offset] = value
        else:  # "rxring": RDBAL/RDBAH/RDLEN reprogram
            self._rx_ring_cache[q] = None
            regs[offset] = value

    # -- CTRL / reset / link -----------------------------------------------------------

    def _write_ctrl(self, value):
        if value & CTRL_RST:
            self.resets += 1
            self._reset_regs()
            # Link renegotiation completes a little later.
            self._kernel.events.schedule_after(
                2_000_000, self._link_negotiated, name="e1000-link-up"
            )
            return
        self.regs[REG_CTRL] = value
        if value & CTRL_SLU and not self._link_up:
            self._kernel.events.schedule_after(
                2_000_000, self._link_negotiated, name="e1000-link-up"
            )

    def _link_negotiated(self):
        if not self._link_up:
            self._link_up = True
            self.regs[REG_STATUS] = self.regs.get(REG_STATUS, 0) | STATUS_LU
            self._assert_irq(ICR_LSC)

    # -- EEPROM ------------------------------------------------------------------------

    def _write_eerd(self, value):
        if not value & EERD_START:
            self.regs[REG_EERD] = value
            return
        addr = (value >> 8) & 0xFF
        data = self.eeprom[addr] if addr < len(self.eeprom) else 0
        # An EEPROM word read is a slow serial transaction.
        self._kernel.consume(
            self._kernel.costs.eeprom_word_ns, busy=False, category="eeprom"
        )
        self.regs[REG_EERD] = (data << 16) | EERD_DONE | (addr << 8)

    # -- PHY (MDIC) -----------------------------------------------------------------------

    def _write_mdic(self, value):
        reg = (value >> 16) & 0x1F
        self._kernel.consume(
            self._kernel.costs.phy_reg_ns, busy=False, category="phy"
        )
        if value & MDIC_OP_READ:
            data = self.phy_regs[reg]
            self.regs[REG_MDIC] = (value & ~0xFFFF) | MDIC_READY | data
        elif value & MDIC_OP_WRITE:
            data = value & 0xFFFF
            if reg == PHY_CTRL and data & 0x8000:  # PHY reset self-clears
                data &= ~0x8000
            self.phy_regs[reg] = data
            self.regs[REG_MDIC] = value | MDIC_READY
        else:
            self.regs[REG_MDIC] = value | MDIC_ERROR | MDIC_READY

    # -- interrupts ----------------------------------------------------------------------------

    # Interrupt-throttle window: the driver programs ITR for 8000
    # interrupts/second; we coalesce causes within this window.
    ITR_WINDOW_NS = 125_000

    def _assert_irq(self, causes, q=0):
        regs = self.regs
        off_icr = self._off_icr[q]
        icr = regs.get(off_icr, 0) | causes
        regs[off_icr] = icr
        # Fast paths: masked by IMS (the NAPI poll window) the cause only
        # latches; with the ITR throttle window open it accumulates.
        if not icr & regs.get(self._off_ims[q], 0):
            return
        if self._itr_event[q].pending:
            return
        self._maybe_fire(q)

    def _maybe_fire(self, q=0):
        regs = self.regs
        if not regs.get(self._off_icr[q], 0) & regs.get(self._off_ims[q], 0):
            return
        window = self._itr_window_ns[q]
        if window <= 0:
            # Throttling disabled: every unmasked cause fires at once.
            self._kernel.irq.raise_irq(self.irq + q)
            return
        expiry = self._itr_event[q]
        if expiry.pending:
            return  # throttled: causes accumulate until the window ends
        # Arm the throttle window BEFORE delivering: the handler's own
        # work can assert new causes synchronously, and those must see
        # the window open or they each arm an orphan window.
        expiry.arm_after(window)
        self._kernel.irq.raise_irq(self.irq + q)

    def _itr_expire(self, q=0):
        regs = self.regs
        if regs.get(self._off_icr[q], 0) & regs.get(self._off_ims[q], 0):
            self._maybe_fire(q)

    # -- transmit path ------------------------------------------------------------------------

    def _ring(self, bal, bah, blen):
        base = self.regs.get(bal, 0) | (self.regs.get(bah, 0) << 32)
        length = self.regs.get(blen, 0)
        region = self._kernel.memory.dma_region(base)
        count = length // DESC_SIZE if length else 0
        return region, count

    def _process_tx_ring(self, q=0):
        """Fetch new descriptors and put their frames on the wire.

        Completion (DD write-back, TDH advance, TXDW interrupt) is
        paced at wire time: descriptors finish when the link has
        actually serialized the frame, so transmit throughput is
        link-limited as on hardware.
        """
        regs = self.regs
        if not regs[REG_TCTL] & TCTL_EN:
            return
        cached = self._tx_ring_cache[q]
        if cached is None or cached[0].freed:
            region, count = self._ring(
                self._off_tdbal[q], self._off_tdbah[q], self._off_tdlen[q])
            if region is None or count == 0:
                return
            self._tx_ring_cache[q] = cached = (region, count)
        region, count = cached
        ring = region.data
        fetched_key = REG_TDT_FETCHED + q
        head = regs.get(fetched_key, regs[self._off_tdh[q]])
        tail = regs[self._off_tdt[q]] % count
        tx_done = self._tx_done[q]
        tx_queue_frames = self.tx_queue_frames
        buf = self._tx_buf_cache[q]
        while head != tail:
            off = head * DESC_SIZE
            buf_addr, length, cmd = _TXD.unpack_from(ring, off)
            if (buf is None or buf_addr < buf[0]
                    or buf_addr + length > buf[1] or buf[2].freed):
                buf_region, start = self._kernel.memory.dma_find(buf_addr)
                if buf_region is not None:
                    base = buf_region.dma_addr
                    self._tx_buf_cache[q] = buf = (
                        base, base + len(buf_region.data), buf_region)
                    if buf_addr + length > buf[1]:
                        # Runs past its region's end: like an unmapped
                        # buffer, the descriptor completes and nothing
                        # is sent (RX refuses the same case).
                        buf_region = None
            else:
                buf_region = buf[2]
                start = buf_addr - buf[0]
            if buf_region is None:
                done_ns = self._kernel.clock.now_ns
            else:
                # Zero-copy: the link copies the view at transmit()
                # time, so a reused buffer cannot corrupt a sent frame.
                done_ns = self.link.transmit(
                    memoryview(buf_region.data)[start:start + length])
                self.frames_transmitted += 1
                tx_queue_frames[q] += 1
            tx_done.append((done_ns, region, count, head, off, cmd))
            head += 1
            if head == count:
                head = 0
        regs[fetched_key] = head
        self._arm_tx_pump(q)

    def _arm_tx_pump(self, q=0):
        """Keep one completion event armed at the head descriptor's time.

        Write-backs are batched: a single pump event completes every
        descriptor whose wire time has passed, instead of one event per
        descriptor.  Per-descriptor timing is unchanged -- the pump fires
        exactly at the head's done time and re-arms for the next.  The
        pump is one re-armed event: its due time is the head of a FIFO,
        so it fires and is almost never cancelled.
        """
        tx_done = self._tx_done[q]
        if not tx_done:
            return
        due_ns = tx_done[0][0]
        pump = self._tx_pump_event[q]
        armed_ns = pump.due_ns
        if armed_ns is not None:
            if armed_ns <= due_ns:
                return
            pump.cancel()
        pump.arm_at(due_ns)

    def _tx_pump(self, q=0):
        now_ns = self._kernel.clock.now_ns
        want_irq = False
        tx_done = self._tx_done[q]
        regs = self.regs
        off_tdh = self._off_tdh[q]
        while tx_done and tx_done[0][0] <= now_ns:
            _due, region, count, index, off, cmd = tx_done.popleft()
            if cmd & TXD_CMD_RS:
                region.data[off + _TXD_STATUS] = TXD_STAT_DD
                want_irq = True
            index += 1
            regs[off_tdh] = index if index < count else 0
        if want_irq:
            self._assert_irq(ICR_TXDW, q)
        self._arm_tx_pump(q)

    # -- receive path ----------------------------------------------------------------------------

    def steer(self, frame):
        """RSS-style flow steering: which RX queue a frame lands on.

        Hashes the flow-identifying bytes (source-MAC tail plus
        ethertype, bytes 12..20 of the frame) so every frame of one
        flow always lands on the same queue -- per-queue payload order
        is deterministic regardless of queue count or CPU count.
        """
        if self.num_queues == 1:
            return 0
        return zlib.crc32(bytes(frame[12:20])) % self.num_queues

    def _link_rx(self, frame):
        if not self.regs.get(REG_RCTL, 0) & RCTL_EN:
            return
        q = 0 if self.num_queues == 1 else self.steer(frame)
        if not self._deliver_rx(frame, q):
            pending = self._pending_rx[q]
            pending.append(frame)
            if len(pending) > self.rx_pending_cap:
                pending.pop(0)
                self.rx_no_buffer += 1
                self.rx_missed += 1

    def _drain_pending_rx(self, q=0):
        pending = self._pending_rx[q]
        while pending:
            if not self._deliver_rx(pending[0], q):
                return
            pending.pop(0)

    def _deliver_rx(self, frame, q=0):
        cached = self._rx_ring_cache[q]
        if cached is None or cached[0].freed:
            region, count = self._ring(
                self._off_rdbal[q], self._off_rdbah[q], self._off_rdlen[q])
            if region is None or count == 0:
                return False
            # The memo bundles every per-queue constant the per-frame
            # path needs, so one list index replaces six.
            self._rx_ring_cache[q] = cached = (
                region, count, self._off_rdh[q], self._off_rdt[q],
                self._off_icr[q], self._off_ims[q],
            )
        region, count, off_rdh, off_rdt, off_icr, off_ims = cached
        regs = self.regs
        head = regs[off_rdh]
        tail = regs[off_rdt] % count
        if head == tail:  # ring full from the device's perspective
            self.rx_no_buffer += 1
            return False
        off = head * DESC_SIZE
        buf_addr, = _RXD_ADDR.unpack_from(region.data, off)
        n = len(frame)
        buf = self._rx_buf_cache[q]
        if (buf is not None and buf[0] <= buf_addr
                and buf_addr + n <= buf[1] and not buf[2].freed):
            data = buf[2].data
            start = buf_addr - buf[0]
            data[start:start + n] = frame
        else:
            buf_region, buf_off = self._kernel.memory.dma_find(buf_addr)
            if buf_region is None or buf_off + n > len(buf_region.data):
                return False
            buf_region.data[buf_off:buf_off + n] = frame
            base = buf_region.dma_addr
            self._rx_buf_cache[q] = (base, base + len(buf_region.data),
                                     buf_region)
        _RXD_WRITEBACK.pack_into(
            region.data, off + 8,
            n, 0, RXD_STAT_DD | RXD_STAT_EOP, 0, 0,
        )
        head += 1
        regs[off_rdh] = head if head < count else 0
        self.frames_received += 1
        self.rx_queue_frames[q] += 1
        # Inlined _assert_irq(ICR_RXT0, q): latch, then fire only when
        # the cause is unmasked and no throttle window is open.  With
        # throttling off (irq mode) the line is raised directly -- the
        # cause was just confirmed unmasked, so _maybe_fire's re-check
        # is redundant.
        icr = regs[off_icr] | ICR_RXT0
        regs[off_icr] = icr
        if icr & regs[off_ims]:
            if self._itr_window_ns[q] <= 0:
                self._kernel.irq.raise_irq(self.irq + q)
            elif not self._itr_event[q].pending:
                self._maybe_fire(q)
        return True
