"""RealTek RTL8139 fast-ethernet NIC model.

Port-I/O programmed like the real chip: MAC address in the IDR registers,
four transmit slots (TSD/TSAD), a single receive ring buffer the device
writes packet-header-prefixed frames into, the CR/ISR/IMR command and
interrupt scheme with write-1-to-clear status bits.
"""

import struct
from collections import deque

from ..kernel.pci import PciBar, PciFunction

REALTEK_VENDOR_ID = 0x10EC
RTL8139_DEVICE_ID = 0x8139

# Register offsets within the 256-byte port window.
IDR0 = 0x00          # 6 bytes of MAC address
MAR0 = 0x08          # multicast filter
TSD0 = 0x10          # 4 x transmit status (dword)
TSAD0 = 0x20         # 4 x transmit start address (dword)
RBSTART = 0x30
ERBCR = 0x34
ERSR = 0x36
CR = 0x37
CAPR = 0x38
CBR = 0x3A
IMR = 0x3C
ISR = 0x3E
TCR = 0x40
RCR = 0x44
TCTR = 0x48
MPC = 0x4C
CFG9346 = 0x50
CONFIG0 = 0x51
CONFIG1 = 0x52
MSR = 0x58
BMCR = 0x62
BMSR = 0x64

# CR bits.
CR_BUFE = 0x01
CR_TE = 0x04
CR_RE = 0x08
CR_RST = 0x10

# ISR/IMR bits.
ISR_ROK = 0x0001
ISR_RER = 0x0002
ISR_TOK = 0x0004
ISR_TER = 0x0008
ISR_RXOVW = 0x0010

# TSD bits.
TSD_OWN = 1 << 13
TSD_TOK = 1 << 15

# RX packet header status.
RX_STAT_ROK = 0x0001

# MSR bits.
MSR_LINKB = 0x04  # inverse link indicator: 0 = link up

RX_RING_SIZE = 32 * 1024
NUM_TX_DESC = 4


class Rtl8139Device:
    BAR_SIZE = 0x100

    def __init__(self, kernel, link, mac=b"\x00\xE0\x4C\x39\x13\x9A",
                 irq=11, io_base=0xC000, rx_coalesce_ns=0):
        self._kernel = kernel
        self.link = link
        link.nic_rx = self._link_rx
        self.mac = bytes(mac)
        self.irq = irq
        # Interrupt-coalescing window (the 8139C+'s IntrMitigate knob,
        # simplified): after raising an interrupt the device holds
        # further deliveries for this many ns; causes latch in ISR and
        # are delivered in one interrupt when the window closes.
        # 0 (the default, and the classic 8139's behavior) delivers
        # every unmasked cause immediately.
        self.rx_coalesce_ns = rx_coalesce_ns

        self.pci = PciFunction(
            vendor_id=REALTEK_VENDOR_ID,
            device_id=RTL8139_DEVICE_ID,
            irq=irq,
            bars=[PciBar(io_base, self.BAR_SIZE, is_mmio=False, handler=self)],
            name="rtl8139",
        )

        self.resets = 0
        self.frames_transmitted = 0
        self.frames_received = 0
        self.rx_overflows = 0
        self._reset_state()

    def _reset_state(self):
        self.regs = bytearray(256)
        self.regs[IDR0:IDR0 + 6] = self.mac
        self.regs[CR] = CR_BUFE
        self.regs[MSR] = 0x00  # link up (LINKB=0)
        struct.pack_into("<H", self.regs, BMSR, 0x7849 | 0x0004 | 0x0020)
        self._rx_write_off = 0
        self._rx_read_off = 0
        self._rx_enabled = False
        self._tx_enabled = False
        # RBSTART shadow + memoized dma_find result for the rx ring;
        # invalidated whenever RBSTART is rewritten (and here, on
        # reset).  Saves a linear DMA-region scan per received frame.
        self._rbstart = 0
        self._rx_dma = None
        # Drop any in-flight TX completions and their pump event.
        stale = getattr(self, "_tx_pump_event", None)
        if stale is not None:
            stale.cancel()
        self._tx_pump_event = None
        self._tx_done = deque()
        # Cancel a pending coalesce-window expiry; a stale one would
        # re-deliver against the post-reset ISR.
        stale = getattr(self, "_coalesce_event", None)
        if stale is not None:
            stale.cancel()
        self._coalesce_event = None

    # -- helpers --------------------------------------------------------------

    def _reg16(self, off):
        return struct.unpack_from("<H", self.regs, off)[0]

    def _set_reg16(self, off, val):
        struct.pack_into("<H", self.regs, off, val & 0xFFFF)

    def _reg32(self, off):
        return struct.unpack_from("<I", self.regs, off)[0]

    def _set_reg32(self, off, val):
        struct.pack_into("<I", self.regs, off, val & 0xFFFFFFFF)

    def _assert_irq(self, bits):
        # Hot path (once per rx frame / tx batch): ISR |= bits and the
        # IMR gate, as direct byte arithmetic on the register file.
        regs = self.regs
        isr = (regs[ISR] | regs[ISR + 1] << 8) | bits
        regs[ISR] = isr & 0xFF
        regs[ISR + 1] = isr >> 8
        if isr & (regs[IMR] | regs[IMR + 1] << 8):
            self._deliver_irq()

    def _deliver_irq(self):
        window = self.rx_coalesce_ns
        if window <= 0:
            self._kernel.irq.raise_irq(self.irq)
            return
        ev = self._coalesce_event
        if ev is not None and not ev.cancelled:
            return  # window open: causes accumulate in ISR
        # Arm the window BEFORE delivering so causes asserted from the
        # handler's own work coalesce instead of re-arming windows.
        self._coalesce_event = self._kernel.events.schedule_after(
            window, self._coalesce_expire, name="rtl8139-coalesce"
        )
        self._kernel.irq.raise_irq(self.irq)

    def _coalesce_expire(self):
        self._coalesce_event = None
        if self._reg16(ISR) & self._reg16(IMR):
            self._assert_irq(0)

    # -- I/O handler interface -----------------------------------------------------

    def read(self, offset, size):
        if size == 1:
            return self.regs[offset]
        if size == 2:
            return self.regs[offset] | self.regs[offset + 1] << 8
        return self._reg32(offset)

    def write(self, offset, value, size):
        regs = self.regs
        if offset == CR and size == 1:
            self._write_cr(value)
            return
        if offset == ISR and size == 2:
            # Write-1-to-clear.
            isr = (regs[ISR] | regs[ISR + 1] << 8) & ~value
            regs[ISR] = isr & 0xFF
            regs[ISR + 1] = isr >> 8
            return
        if TSD0 <= offset < TSD0 + 4 * NUM_TX_DESC and size == 4:
            slot = (offset - TSD0) // 4
            self._write_tsd(slot, value)
            return
        if offset == CAPR and size == 2:
            self._write_capr(value)
            return
        if size == 1:
            regs[offset] = value & 0xFF
        elif size == 2:
            self._set_reg16(offset, value)
        else:
            self._set_reg32(offset, value)
        if RBSTART <= offset < RBSTART + 4:
            # Rx ring moved: refresh the shadow, drop the dma_find memo.
            self._rbstart = self._reg32(RBSTART)
            self._rx_dma = None

    def _write_capr(self, value):
        regs = self.regs
        regs[CAPR] = value & 0xFF
        regs[CAPR + 1] = value >> 8
        # The driver writes cur_rx - 16; the hardware's read pointer
        # is therefore CAPR + 16.
        read_off = self._rx_read_off = (value + 16) % RX_RING_SIZE
        if read_off == self._rx_write_off:
            regs[CR] |= CR_BUFE
        else:
            regs[CR] &= ~CR_BUFE

    # -- command register -------------------------------------------------------------

    def _write_cr(self, value):
        if value & CR_RST:
            self.resets += 1
            mac = bytes(self.regs[IDR0:IDR0 + 6])
            self._reset_state()
            self.regs[IDR0:IDR0 + 6] = mac
            # Reset completes after a short delay; RST bit self-clears.
            self.regs[CR] = CR_BUFE
            self._kernel.consume(10_000, busy=False, category="nic-reset")
            return
        self._rx_enabled = bool(value & CR_RE)
        self._tx_enabled = bool(value & CR_TE)
        buf_empty = self.regs[CR] & CR_BUFE
        self.regs[CR] = (value & (CR_RE | CR_TE)) | buf_empty

    # -- transmit ----------------------------------------------------------------------

    def _write_tsd(self, slot, value):
        self._set_reg32(TSD0 + 4 * slot, value)
        if value & TSD_OWN:
            return  # driver reclaiming, nothing to send
        if not self._tx_enabled:
            return
        length = value & 0x1FFF
        addr = self._reg32(TSAD0 + 4 * slot)
        region, off = self._kernel.memory.dma_find(addr)
        if region is None:
            self._assert_irq(ISR_TER)
            return
        frame = memoryview(region.data)[off:off + length]
        done_ns = self.link.transmit(frame)
        self.frames_transmitted += 1
        # Completion status lands at wire time (transmit throughput is
        # link-limited as on hardware), but write-backs are batched: one
        # pump event completes every slot whose wire time has passed and
        # raises a single TOK interrupt for the batch.
        self._tx_done.append((done_ns, slot, value))
        self._arm_tx_pump()

    def _arm_tx_pump(self):
        if not self._tx_done:
            return
        due_ns = self._tx_done[0][0]
        ev = self._tx_pump_event
        if ev is not None and not ev.cancelled:
            if ev.time_ns <= due_ns:
                return
            ev.cancel()
        self._tx_pump_event = self._kernel.events.schedule_at(
            due_ns, self._tx_pump, name="rtl8139-txdone"
        )

    def _tx_pump(self):
        self._tx_pump_event = None
        now_ns = self._kernel.clock.now_ns
        completed = False
        while self._tx_done and self._tx_done[0][0] <= now_ns:
            _due, slot, value = self._tx_done.popleft()
            self._set_reg32(TSD0 + 4 * slot, value | TSD_OWN | TSD_TOK)
            completed = True
        if completed:
            self._assert_irq(ISR_TOK)
        self._arm_tx_pump()

    # -- receive ---------------------------------------------------------------------------

    def _link_rx(self, frame):
        if not self._rx_enabled:
            return
        dma = self._rx_dma
        if dma is None or dma[0].freed:
            region, base_off = self._kernel.memory.dma_find(self._rbstart)
            if region is None:
                return
            dma = self._rx_dma = (region, base_off)
        region, base_off = dma
        flen = len(frame)
        # 4-byte header (status, length incl 4-byte CRC), then frame data,
        # dword aligned.
        total_aligned = (flen + 8 + 3) & ~3
        off = self._rx_write_off
        used = off - self._rx_read_off
        if used < 0:
            used += RX_RING_SIZE
        if used + total_aligned >= RX_RING_SIZE:
            self.rx_overflows += 1
            self._assert_irq(ISR_RXOVW)
            return
        data = region.data
        # Header written in place: `off` is dword-aligned and the ring
        # size is a multiple of 4, so the header never wraps.
        size_field = flen + 4
        b = base_off + off
        data[b] = RX_STAT_ROK & 0xFF
        data[b + 1] = RX_STAT_ROK >> 8
        data[b + 2] = size_field & 0xFF
        data[b + 3] = size_field >> 8
        # Frame then 4 pad bytes, each with at most one wraparound
        # split: same byte layout as building header+frame+pad and
        # copying it, without the per-frame concatenation.
        start = off + 4
        end = start + flen
        if end <= RX_RING_SIZE:
            data[base_off + start:base_off + end] = frame
            z = end if end < RX_RING_SIZE else 0
        else:
            split = RX_RING_SIZE - start
            data[base_off + start:base_off + RX_RING_SIZE] = frame[:split]
            z = flen - split
            data[base_off:base_off + z] = frame[split:]
        zend = z + 4
        if zend <= RX_RING_SIZE:
            data[base_off + z:base_off + zend] = b"\x00\x00\x00\x00"
        else:
            cut = RX_RING_SIZE - z
            data[base_off + z:base_off + RX_RING_SIZE] = bytes(cut)
            data[base_off:base_off + 4 - cut] = bytes(4 - cut)
        w = off + total_aligned
        if w >= RX_RING_SIZE:
            w -= RX_RING_SIZE
        self._rx_write_off = w
        regs = self.regs
        regs[CBR] = w & 0xFF
        regs[CBR + 1] = w >> 8
        regs[CR] &= ~CR_BUFE
        self.frames_received += 1
        # Inlined _assert_irq(ISR_ROK): the per-frame case.
        isr = (regs[ISR] | regs[ISR + 1] << 8) | ISR_ROK
        regs[ISR] = isr & 0xFF
        regs[ISR + 1] = isr >> 8
        if isr & (regs[IMR] | regs[IMR + 1] << 8):
            self._deliver_irq()

