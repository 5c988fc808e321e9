"""Ensoniq ES1371 / Creative AudioPCI sound chip model.

Models the pieces the ens1371 driver programs: the control/status pair,
the AC'97 codec access register with its ready/WIP handshake, the sample
rate converter RAM port with its busy bit, the memory-page window through
which the DAC2 (playback) frame address and size are set, and the DAC2
sample counter that generates a period interrupt stream while playback
runs.

Playback consumption is event-driven: while DAC2 is enabled the device
consumes the DMA audio buffer at the programmed rate, raising its
interrupt each time the sample counter expires -- so a 256 Kbps MP3
decoded to 44.1 kHz stereo produces the same interrupt cadence the real
workload sees (one per period).
"""

import sys
from array import array

from ..kernel.pci import PciBar, PciFunction

_BIG_ENDIAN_HOST = sys.byteorder == "big"


def _sum_le_words(data, start, count):
    """Sum of ``count`` little-endian u32 words at ``data[start:]``.

    Words that would run past the end of ``data`` count as 0.
    """
    count = min(count, (len(data) - start) // 4)
    if count <= 0:
        return 0
    words = array("I", data[start:start + 4 * count])
    if _BIG_ENDIAN_HOST:
        words.byteswap()
    return sum(words)


ENSONIQ_VENDOR_ID = 0x1274
ES1371_DEVICE_ID = 0x1371

# Port-window register offsets.
REG_CONTROL = 0x00
REG_STATUS = 0x04
REG_UART_DATA = 0x08
REG_MEMPAGE = 0x0C
REG_SRC = 0x10
REG_CODEC = 0x14
REG_LEGACY = 0x18
REG_SCTRL = 0x20
REG_DAC2_SCOUNT = 0x28
REG_ADC_SCOUNT = 0x2C
# Memory-page window (0x30..0x3F), page selected via REG_MEMPAGE.
REG_DAC2_FRAME_ADDR = 0x38
REG_DAC2_FRAME_SIZE = 0x3C
MEMPAGE_DAC2 = 0x0C

# CONTROL bits.
CTRL_DAC2_EN = 1 << 5
CTRL_ADC_EN = 1 << 4

# STATUS bits.
STAT_INTR = 1 << 31
STAT_DAC2 = 1 << 1

# SCTRL bits.
SCTRL_P2_INTR_EN = 1 << 9
SCTRL_P2_PAUSE = 1 << 12
SCTRL_P2_SMB = 1 << 11   # 16-bit samples
SCTRL_P2_SSB = 1 << 2    # stereo

# SRC bits.
SRC_RAM_BUSY = 1 << 23
SRC_DISABLE = 1 << 22

# CODEC bits.
CODEC_RDY = 1 << 31
CODEC_WIP = 1 << 30
CODEC_PIRD = 1 << 23  # read operation

AC97_VENDOR_ID1 = 0x7C
AC97_VENDOR_ID2 = 0x7E


class Ens1371Device:
    BAR_SIZE = 0x40

    def __init__(self, kernel, irq=5, io_base=0xD000):
        self._kernel = kernel
        self.irq = irq
        self.pci = PciFunction(
            vendor_id=ENSONIQ_VENDOR_ID,
            device_id=ES1371_DEVICE_ID,
            irq=irq,
            bars=[PciBar(io_base, self.BAR_SIZE, is_mmio=False, handler=self)],
            name="ens1371",
        )

        self.codec_regs = self._build_codec()
        self.src_ram = [0] * 128
        self.resets = 0
        self.period_interrupts = 0
        self.samples_consumed = 0
        self.audio_checksum = 0
        self._reset_state()

    def _build_codec(self):
        regs = {i: 0 for i in range(0, 0x80, 2)}
        regs[0x00] = 0x0D40          # reset/capabilities
        regs[0x02] = 0x8000          # master volume (muted)
        regs[0x18] = 0x8808          # PCM out volume
        regs[0x26] = 0x000F          # powerdown: all ready
        regs[AC97_VENDOR_ID1] = 0x4352  # 'CR' (Cirrus/Crystal)
        regs[AC97_VENDOR_ID2] = 0x5914
        return regs

    def _reset_state(self):
        self.control = 0
        self.status = 0
        self.sctrl = 0
        self.mempage = 0
        self.src_reg = 0
        self.codec_reg = CODEC_RDY
        self.dac2_frame_addr = 0
        self.dac2_frame_size = 0
        self.dac2_scount_reload = 0
        self.dac2_scount_cur = 0
        self.dac2_pos_bytes = 0
        self._playing = False
        self._period_event = None

    # -- I/O handler interface -------------------------------------------------

    def read(self, offset, size):
        if offset == REG_CONTROL:
            return self.control
        if offset == REG_STATUS:
            return self.status
        if offset == REG_MEMPAGE:
            return self.mempage
        if offset == REG_SRC:
            return self.src_reg & ~SRC_RAM_BUSY  # always ready by read time
        if offset == REG_CODEC:
            return self.codec_reg
        if offset == REG_SCTRL:
            return self.sctrl
        if offset == REG_DAC2_SCOUNT:
            return (self.dac2_scount_cur << 16) | self.dac2_scount_reload
        if offset == REG_DAC2_FRAME_ADDR and self.mempage == MEMPAGE_DAC2:
            return self.dac2_frame_addr
        if offset == REG_DAC2_FRAME_SIZE and self.mempage == MEMPAGE_DAC2:
            cur_frames = self.dac2_pos_bytes // 4
            return (cur_frames << 16) | (self.dac2_frame_size & 0xFFFF)
        return 0

    def write(self, offset, value, size):
        if offset == REG_CONTROL:
            old = self.control
            self.control = value
            if value & CTRL_DAC2_EN and not old & CTRL_DAC2_EN:
                self._start_playback()
            elif not value & CTRL_DAC2_EN and old & CTRL_DAC2_EN:
                self._stop_playback()
        elif offset == REG_STATUS:
            pass  # read-only
        elif offset == REG_MEMPAGE:
            self.mempage = value & 0xF
        elif offset == REG_SRC:
            self._write_src(value)
        elif offset == REG_CODEC:
            self._write_codec(value)
        elif offset == REG_SCTRL:
            # Clearing P2_INTR_EN acknowledges the DAC2 interrupt; the
            # driver clears and re-sets the bit to ack (as on hardware).
            if self.sctrl & SCTRL_P2_INTR_EN and not value & SCTRL_P2_INTR_EN:
                self.status &= ~(STAT_INTR | STAT_DAC2)
            self.sctrl = value
        elif offset == REG_DAC2_SCOUNT:
            self.dac2_scount_reload = value & 0xFFFF
            self.dac2_scount_cur = value & 0xFFFF
        elif offset == REG_DAC2_FRAME_ADDR and self.mempage == MEMPAGE_DAC2:
            self.dac2_frame_addr = value
        elif offset == REG_DAC2_FRAME_SIZE and self.mempage == MEMPAGE_DAC2:
            self.dac2_frame_size = value & 0xFFFF

    # -- SRC (sample rate converter) -----------------------------------------------

    def _write_src(self, value):
        self.src_reg = value
        addr = (value >> 25) & 0x7F
        if value & (1 << 24):  # write enable
            self.src_ram[addr] = value & 0xFFFF
        # Each SRC RAM access takes a poll-visible while on hardware.
        self._kernel.consume(1_000, busy=False, category="src")

    # -- AC97 codec ---------------------------------------------------------------------

    def _write_codec(self, value):
        reg = (value >> 16) & 0x7F
        self._kernel.consume(
            self._kernel.costs.phy_reg_ns // 2, busy=False, category="ac97"
        )
        if value & CODEC_PIRD:
            data = self.codec_regs.get(reg & ~1, 0)
            self.codec_reg = CODEC_RDY | data
        else:
            self.codec_regs[reg & ~1] = value & 0xFFFF
            self.codec_reg = CODEC_RDY

    # -- playback engine ----------------------------------------------------------------------

    def _frame_bytes_per_sample(self):
        nbytes = 1
        if self.sctrl & SCTRL_P2_SMB:
            nbytes *= 2
        if self.sctrl & SCTRL_P2_SSB:
            nbytes *= 2
        return nbytes

    def _sample_rate(self):
        # The real chip derives the DAC2 rate from SRC RAM; the driver
        # writes the rate via a known SRC register.  We store it there.
        rate = self.src_ram[0x75 % 128]
        return rate if rate else 44100

    def _period_ns(self):
        samples = self.dac2_scount_reload + 1
        return int(samples * 1e9 / self._sample_rate())

    def _start_playback(self):
        if self._playing:
            return
        self._playing = True
        self._schedule_period()

    def _stop_playback(self):
        self._playing = False
        if self._period_event is not None:
            self._period_event.cancel()
            self._period_event = None

    def _schedule_period(self):
        if not self._playing:
            return
        self._period_event = self._kernel.events.schedule_after(
            self._period_ns(), self._period_elapsed, name="ens1371-period"
        )

    def _period_elapsed(self):
        self._period_event = None
        if not self._playing:
            return
        samples = self.dac2_scount_reload + 1
        nbytes = samples * self._frame_bytes_per_sample()
        self._consume_audio(nbytes)
        self.samples_consumed += samples
        if self.sctrl & SCTRL_P2_INTR_EN:
            self.period_interrupts += 1
            self.status |= STAT_INTR | STAT_DAC2
            self._kernel.irq.raise_irq(self.irq)
        self._schedule_period()

    def _consume_audio(self, nbytes):
        """Fold one period of the DMA ring into ``audio_checksum``.

        The checksum is the mod-2**32 sum of the little-endian 32-bit
        words at ring positions ``pos, pos+4, ...`` (``ceil(nbytes/4)``
        words, wrapping at the ring size); a word that runs past the
        end of the DMA region reads as 0.  The ring size is a multiple
        of 4, so a wrap lands on ``pos % 4`` and each pass over the ring
        is one contiguous run, summed in C.
        """
        region, off = self._kernel.memory.dma_find(self.dac2_frame_addr)
        if region is None:
            return
        size_bytes = (self.dac2_frame_size + 1) * 4
        words = max(0, (nbytes + 3) // 4)
        pos = self.dac2_pos_bytes % size_bytes
        total = self.audio_checksum
        while words:
            run = min(words, (size_bytes - pos + 3) // 4)
            total += _sum_le_words(region.data, off + pos, run)
            words -= run
            pos &= 3
        self.audio_checksum = total & 0xFFFFFFFF
        self.dac2_pos_bytes = (self.dac2_pos_bytes + nbytes) % size_bytes

    def ack_interrupt(self):
        """Driver acknowledges by toggling P2_INTR_EN; model helper."""
        self.status &= ~(STAT_INTR | STAT_DAC2)
