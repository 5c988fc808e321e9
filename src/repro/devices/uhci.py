"""UHCI USB 1.1 host controller + flash-disk function model.

The controller is programmed through the classic UHCI port-I/O register
file (USBCMD/USBSTS/USBINTR/FRNUM/FLBASEADD/PORTSC).  The transfer
schedule uses a simplified transfer-descriptor ring in DMA memory -- the
same control flow as real UHCI (driver builds TDs in DMA memory, the
controller executes them frame by frame at 1 ms intervals within the USB
1.1 bandwidth budget, completion is signalled through TD status plus an
interrupt) with the QH/link-pointer plumbing reduced to a ring.

The TD format (16 bytes, little endian):

    u32 buffer_addr    u16 length      u8 flags    u8 dev_addr
    u8 endpoint        u8 reserved     u16 actual

flags: IN=0x01, ACTIVE=0x02, DONE=0x04, ERROR=0x08.

:class:`UsbFlashDiskModel` is a bulk-only mass-storage function with a
trivial block protocol, enough for the paper's tar-to-flash workload.
"""

import struct

from ..kernel.pci import PciBar, PciFunction

INTEL_VENDOR_ID = 0x8086
UHCI_DEVICE_ID = 0x7020  # 82371SB PIIX3 USB

# Registers.
USBCMD = 0x00
USBSTS = 0x02
USBINTR = 0x04
FRNUM = 0x06
FLBASEADD = 0x08
SOFMOD = 0x0C
PORTSC1 = 0x10
PORTSC2 = 0x12

# USBCMD bits.
CMD_RS = 0x0001
CMD_HCRESET = 0x0002
CMD_GRESET = 0x0004
CMD_MAXP = 0x0080

# USBSTS bits (write-1-to-clear).
STS_USBINT = 0x0001
STS_ERROR = 0x0002
STS_HCHALTED = 0x0020

# PORTSC bits.
PORT_CCS = 0x0001   # current connect status
PORT_CSC = 0x0002   # connect status change (w1c)
PORT_PE = 0x0004    # port enabled
PORT_PEC = 0x0008   # enable change (w1c)
PORT_LSDA = 0x0100  # low-speed device attached
PORT_PR = 0x0200    # port reset

# TD flags.
TD_IN = 0x01
TD_ACTIVE = 0x02
TD_DONE = 0x04
TD_ERROR = 0x08

TD_SIZE = 16
TD_RING_ENTRIES = 64

# USB 1.1 full-speed bulk bandwidth: ~19 64-byte packets per 1 ms frame.
FULL_SPEED_BYTES_PER_FRAME = 1216
FRAME_NS = 1_000_000
# Empty frames before the controller stops scheduling frame events and
# coasts.  Submits are followed by a register access (the driver's
# status check doubles as a doorbell), which resumes 1 ms framing with
# the frame counter caught up, so coasting is invisible to drivers.
IDLE_FRAMES_LIMIT = 4


class UhciDevice:
    BAR_SIZE = 0x20

    def __init__(self, kernel, irq=9, io_base=0xE000):
        self._kernel = kernel
        self.irq = irq
        self.pci = PciFunction(
            vendor_id=INTEL_VENDOR_ID,
            device_id=UHCI_DEVICE_ID,
            irq=irq,
            bars=[PciBar(io_base, self.BAR_SIZE, is_mmio=False, handler=self)],
            name="uhci",
        )
        self.port_devices = [None, None]  # function models by port
        self.resets = 0
        self.frames_processed = 0
        self.tds_completed = 0
        self._reset_state()

    def _reset_state(self):
        self.cmd = 0
        self.sts = STS_HCHALTED
        self.intr = 0
        self.frnum = 0
        self.flbase = 0
        self.portsc = [0, 0]
        for i, dev in enumerate(self.port_devices):
            if dev is not None:
                self.portsc[i] = PORT_CCS | PORT_CSC
        self._td_index = 0
        self._frame_event = None
        self._running = False
        self._idle_frames = 0
        self._coast_since_ns = None

    # -- topology --------------------------------------------------------------

    def attach(self, port, device_model):
        """Plug a USB function model into a root port."""
        self.port_devices[port] = device_model
        self.portsc[port] |= PORT_CCS | PORT_CSC

    def detach(self, port):
        self.port_devices[port] = None
        self.portsc[port] &= ~(PORT_CCS | PORT_PE)
        self.portsc[port] |= PORT_CSC

    def _device_for(self, dev_addr):
        for i, dev in enumerate(self.port_devices):
            if dev is not None and dev.address == dev_addr:
                if self.portsc[i] & PORT_PE:
                    return dev
        return None

    # -- I/O handler interface ------------------------------------------------------

    def read(self, offset, size):
        self._kick()
        if offset == USBCMD:
            return self.cmd
        if offset == USBSTS:
            return self.sts
        if offset == USBINTR:
            return self.intr
        if offset == FRNUM:
            return self.frnum
        if offset == FLBASEADD:
            return self.flbase
        if offset in (PORTSC1, PORTSC2):
            return self.portsc[(offset - PORTSC1) // 2]
        return 0

    def write(self, offset, value, size):
        self._kick()
        if offset == USBCMD:
            self._write_cmd(value)
        elif offset == USBSTS:
            self.sts &= ~value  # write-1-to-clear
        elif offset == USBINTR:
            self.intr = value
        elif offset == FRNUM:
            self.frnum = value & 0x7FF
        elif offset == FLBASEADD:
            self.flbase = value & ~0xFFF
        elif offset in (PORTSC1, PORTSC2):
            self._write_portsc((offset - PORTSC1) // 2, value)

    def _write_cmd(self, value):
        if value & (CMD_HCRESET | CMD_GRESET):
            self.resets += 1
            devices = self.port_devices
            self._reset_state()
            self.port_devices = devices
            self._kernel.consume(10_000_000, busy=False, category="usb-reset")
            return
        was_running = self._running
        self.cmd = value
        self._running = bool(value & CMD_RS)
        if self._running:
            self.sts &= ~STS_HCHALTED
            if not was_running:
                self._schedule_frame()
        else:
            self.sts |= STS_HCHALTED

    def _write_portsc(self, port, value):
        sc = self.portsc[port]
        sc &= ~(value & (PORT_CSC | PORT_PEC))  # w1c change bits
        if value & PORT_PR:
            sc |= PORT_PR
        elif sc & PORT_PR:
            # Reset deasserted: enable the port if a device is present.
            sc &= ~PORT_PR
            if sc & PORT_CCS:
                sc |= PORT_PE
        if value & PORT_PE:
            sc |= PORT_PE
        elif not value & PORT_PE and not sc & PORT_PR and value & 0x1000:
            sc &= ~PORT_PE
        self.portsc[port] = sc

    # -- frame processing -----------------------------------------------------------

    def _schedule_frame(self):
        if not self._running:
            return
        self._frame_event = self._kernel.events.schedule_after(
            FRAME_NS, self._process_frame, name="uhci-frame"
        )

    def _kick(self):
        """Resume framing after an idle coast (any register access).

        While coasting no frame events are scheduled at all -- an idle
        controller costs the simulator nothing.  The frame counter
        catches up from the coast duration so FRNUM reads stay
        consistent with wall (virtual) time.
        """
        if self._coast_since_ns is None or not self._running:
            return
        elapsed = self._kernel.clock.now_ns - self._coast_since_ns
        skipped = elapsed // FRAME_NS
        self.frnum = (self.frnum + skipped) & 0x7FF
        self.frames_processed += skipped
        self._coast_since_ns = None
        self._idle_frames = 0
        if self._frame_event is None:
            self._schedule_frame()

    def _process_frame(self):
        self._frame_event = None
        if not self._running:
            return
        self.frnum = (self.frnum + 1) & 0x7FF
        self.frames_processed += 1
        budget = FULL_SPEED_BYTES_PER_FRAME
        completed = False
        region, base_off = self._kernel.memory.dma_find(self.flbase)
        if region is not None:
            while budget > 0:
                off = base_off + self._td_index * TD_SIZE
                if off + TD_SIZE > len(region.data):
                    break
                buf, length, flags, dev_addr, endpoint, _res, _act = (
                    struct.unpack_from("<IHBBBBH", region.data, off)
                )
                if not flags & TD_ACTIVE:
                    break
                if length > budget:
                    break  # finish this TD next frame
                actual, new_flags = self._execute_td(
                    buf, length, flags, dev_addr, endpoint
                )
                struct.pack_into(
                    "<IHBBBBH", region.data, off,
                    buf, length, new_flags, dev_addr, endpoint, 0, actual,
                )
                budget -= max(actual, 1)
                self._td_index = (self._td_index + 1) % TD_RING_ENTRIES
                self.tds_completed += 1
                completed = True
        if completed:
            self.sts |= STS_USBINT
            if self.intr:
                self._kernel.irq.raise_irq(self.irq)
            self._idle_frames = 0
        else:
            self._idle_frames += 1
            if self._idle_frames >= IDLE_FRAMES_LIMIT:
                self._coast_since_ns = self._kernel.clock.now_ns
                return  # coast: no frame event until the next doorbell
        self._schedule_frame()

    def _execute_td(self, buf, length, flags, dev_addr, endpoint):
        device = self._device_for(dev_addr)
        if device is None:
            return 0, (flags & ~TD_ACTIVE) | TD_DONE | TD_ERROR
        memory = self._kernel.memory
        if flags & TD_IN:
            data = device.bulk_in(endpoint, length)
            region, off = memory.dma_find(buf)
            if region is None:
                return 0, (flags & ~TD_ACTIVE) | TD_DONE | TD_ERROR
            region.data[off:off + len(data)] = data
            return len(data), (flags & ~TD_ACTIVE) | TD_DONE
        region, off = memory.dma_find(buf)
        if region is None:
            return 0, (flags & ~TD_ACTIVE) | TD_DONE | TD_ERROR
        data = bytes(region.data[off:off + length])
        device.bulk_out(endpoint, data)
        return length, (flags & ~TD_ACTIVE) | TD_DONE


class UsbFlashDiskModel:
    """A bulk-only USB flash disk with a minimal block protocol.

    OUT endpoint 2 carries commands and write data; IN endpoint 1 returns
    read data and status.  Command header (8 bytes):

        u8 opcode (1=WRITE, 2=READ)   u8 pad   u16 block_count   u32 lba

    WRITE is followed by ``block_count * 512`` bytes of data in subsequent
    OUT transfers; READ makes the data available on the IN endpoint.
    """

    BLOCK_SIZE = 512

    def __init__(self, capacity_blocks=65536, address=0):
        self.capacity_blocks = capacity_blocks
        self.address = address
        self.blocks = {}
        self.writes = 0
        self.reads = 0
        self._expect_write = None  # (lba, remaining_bytes, buffer)
        self._cmd_buffer = bytearray()  # header bytes awaiting completion
        self._in_queue = bytearray()

    def set_address(self, address):
        self.address = address

    @staticmethod
    def write_command(lba, blocks, data):
        """A WRITE of ``blocks`` blocks at ``lba``: header, then ``data``."""
        return struct.pack("<BBHI", 1, 0, blocks, lba) + data

    # -- endpoint handlers (called by the controller) ---------------------------

    def bulk_out(self, endpoint, data):
        if self._expect_write is not None:
            self._absorb_write_data(data)
            return
        # A command header may be split across bulk transfers: buffer
        # bytes until the full 8-byte header has arrived.
        self._cmd_buffer += data
        if len(self._cmd_buffer) < 8:
            return
        header = bytes(self._cmd_buffer[:8])
        rest = bytes(self._cmd_buffer[8:])
        self._cmd_buffer = bytearray()
        opcode, _pad, count, lba = struct.unpack_from("<BBHI", header, 0)
        if opcode == 1:  # WRITE
            self._expect_write = [lba, count * self.BLOCK_SIZE, bytearray()]
            self._absorb_write_data(rest)
        elif opcode == 2:  # READ
            out = bytearray()
            for i in range(count):
                out += self.blocks.get(lba + i, bytes(self.BLOCK_SIZE))
            self._in_queue += out
            self.reads += count

    def _absorb_write_data(self, data):
        lba, remaining, buf = self._expect_write
        take = min(remaining, len(data))
        buf += data[:take]
        remaining -= take
        if remaining > 0:
            self._expect_write = [lba, remaining, buf]
            return
        for i in range(0, len(buf), self.BLOCK_SIZE):
            block = bytes(buf[i:i + self.BLOCK_SIZE])
            if len(block) < self.BLOCK_SIZE:
                block += bytes(self.BLOCK_SIZE - len(block))
            self.blocks[lba + i // self.BLOCK_SIZE] = block
            self.writes += 1
        self._expect_write = None

    def bulk_in(self, endpoint, length):
        take = min(length, len(self._in_queue))
        data = bytes(self._in_queue[:take])
        del self._in_queue[:take]
        return data
