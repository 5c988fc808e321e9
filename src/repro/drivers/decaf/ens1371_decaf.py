"""ens1371 decaf driver: user-level sound logic in managed style.

Codec bring-up, sample-rate programming and the PCM ops (minus
``pointer``) converted from the legacy driver: exceptions instead of
errno chains, and all codec/SRC register pokes performed from user
level through the decaf runtime.
"""

from ..legacy.ens1371 import (
    AC97_MASTER,
    AC97_PCM,
    AC97_VENDOR_ID1,
    AC97_VENDOR_ID2,
    ES_1371_CODEC_PIRD,
    ES_1371_CODEC_RDY,
    ES_1371_CODEC_WIP,
    ES_1371_DAC2_RATE_REG,
    ES_1371_SRC_RAM_BUSY,
    ES_1371_SRC_RAM_WE,
    ES_DAC2_EN,
    ES_P2_INTR_EN,
    ES_P2_MODE_16BIT,
    ES_P2_MODE_STEREO,
    ES_PAGE_DAC,
    ES_REG_1371_CODEC,
    ES_REG_1371_SMPRATE,
    ES_REG_CONTROL,
    ES_REG_DAC2_COUNT,
    ES_REG_DAC2_FRAME,
    ES_REG_DAC2_SIZE,
    ES_REG_MEM_PAGE,
    ES_REG_SERIAL,
)
from .exceptions import (
    DriverException,
    HardwareException,
    ResourceException,
    TimeoutException,
)


class Ens1371DecafDriver:
    def __init__(self, rt, down):
        self.rt = rt
        self.down = down  # downcall stubs: the kernel entry points
        self._dac2_dma_addr = 0
        self._buffer_bytes = 0
        self.periods_noted = 0

    # -- low-level access, from user level ----------------------------------------

    def _wait_src_ready(self, chip):
        for _i in range(500):
            r = self.rt.inl(chip.port + ES_REG_1371_SMPRATE)
            if not r & ES_1371_SRC_RAM_BUSY:
                return r
            self.rt.udelay(1)
        raise TimeoutException("SRC RAM busy")

    def src_write(self, chip, reg, data):
        self._wait_src_ready(chip)
        self.rt.outl((reg << 25) | ES_1371_SRC_RAM_WE | (data & 0xFFFF),
                     chip.port + ES_REG_1371_SMPRATE)

    def codec_write(self, chip, reg, val):
        for _i in range(1000):
            r = self.rt.inl(chip.port + ES_REG_1371_CODEC)
            if not r & ES_1371_CODEC_WIP:
                self.rt.outl((reg << 16) | (val & 0xFFFF),
                             chip.port + ES_REG_1371_CODEC)
                return
            self.rt.udelay(1)
        raise TimeoutException("codec write-in-progress stuck")

    def codec_read(self, chip, reg):
        for _i in range(1000):
            r = self.rt.inl(chip.port + ES_REG_1371_CODEC)
            if not r & ES_1371_CODEC_WIP:
                self.rt.outl((reg << 16) | ES_1371_CODEC_PIRD,
                             chip.port + ES_REG_1371_CODEC)
                for _j in range(1000):
                    r = self.rt.inl(chip.port + ES_REG_1371_CODEC)
                    if r & ES_1371_CODEC_RDY:
                        return r & 0xFFFF
                    self.rt.udelay(1)
                raise TimeoutException("codec read never ready")
            self.rt.udelay(1)
        raise TimeoutException("codec write-in-progress stuck")

    def dac2_rate(self, chip, rate):
        self.src_write(chip, ES_1371_DAC2_RATE_REG, rate)
        chip.dac2_rate = rate

    # -- chip bring-up: converted from snd_ens1371_chip_init ---------------------------

    def chip_init(self, chip):
        self.rt.outl(0, chip.port + ES_REG_CONTROL)
        self.rt.outl(0, chip.port + ES_REG_SERIAL)
        self.rt.msleep(20)

        v1 = self.codec_read(chip, AC97_VENDOR_ID1)
        v2 = self.codec_read(chip, AC97_VENDOR_ID2)
        chip.codec_vendor = (v1 << 16) | v2

        self.codec_write(chip, AC97_MASTER, 0x0000)
        self.codec_write(chip, AC97_PCM, 0x0808)
        self.dac2_rate(chip, 44100)

    # -- probe / remove -------------------------------------------------------------------

    def mixer_init(self, chip):
        """Register the AC97 mixer: codec write from user level plus
        one kernel call per control element -- the chatty registration
        interface behind ens1371's high crossing count (Table 3)."""
        from ..legacy.ens1371 import AC97_MIXER_CONTROLS

        for name, reg in AC97_MIXER_CONTROLS:
            self.codec_write(chip, reg, 0x0808)
            self.down.k_ctl_add(name, exc=ResourceException)

    def probe(self, chip):
        self.down.k_pci_setup(chip, exc=ResourceException)
        try:
            self.down.k_request_irq(chip, exc=ResourceException)
            try:
                self.chip_init(chip)
                self.down.k_new_card(exc=ResourceException)
                self.mixer_init(chip)
                self.down.k_card_register(exc=ResourceException)
            except DriverException:
                self.down.k_free_irq(chip)
                raise
        except DriverException:
            self.down.k_pci_teardown()
            raise
        return 0

    def remove(self, chip):
        self.rt.outl(0, chip.port + ES_REG_CONTROL)
        self.rt.outl(0, chip.port + ES_REG_SERIAL)
        self.down.k_free_card()
        self.down.k_free_dac2_buffer()
        self.down.k_free_irq(chip)
        self.down.k_pci_teardown()
        return 0

    # -- PCM ops (minus pointer) ---------------------------------------------------------------

    def playback_open(self, chip):
        return 0

    def playback_close(self, chip):
        return 0

    def playback_hw_params(self, chip, buffer_bytes, period_bytes,
                           frame_bytes, rate):
        dma_addr = self.down.k_alloc_dac2_buffer(buffer_bytes,
                                                 exc=ResourceException)
        self._dac2_dma_addr = dma_addr
        self._buffer_bytes = buffer_bytes
        chip.dac2_size_frames = buffer_bytes // 4
        chip.dac2_period_frames = period_bytes // frame_bytes
        self.dac2_rate(chip, rate)
        return 0

    def playback_prepare(self, chip, sample_bytes, channels, period_bytes,
                         frame_bytes):
        mode = 0
        if sample_bytes == 2:
            mode |= ES_P2_MODE_16BIT
        if channels == 2:
            mode |= ES_P2_MODE_STEREO
        chip.sctrl = mode

        self.rt.outl(ES_PAGE_DAC, chip.port + ES_REG_MEM_PAGE)
        self.rt.outl(self._dac2_dma_addr, chip.port + ES_REG_DAC2_FRAME)
        self.rt.outl(chip.dac2_size_frames - 1,
                     chip.port + ES_REG_DAC2_SIZE)
        self.rt.outl((period_bytes // frame_bytes) - 1,
                     chip.port + ES_REG_DAC2_COUNT)
        self.rt.outl(chip.sctrl, chip.port + ES_REG_SERIAL)
        return 0

    def period_elapsed(self, chip):
        """One-way notification from the interrupt path: a playback
        period completed.  Arrives batched/coalesced at the next sync
        point -- bookkeeping only, since the actual period accounting
        (``snd_pcm_period_elapsed``) already ran in the kernel."""
        self.periods_noted += 1
        return 0

    def playback_trigger(self, chip, cmd):
        if cmd == 1:  # START
            chip.sctrl |= ES_P2_INTR_EN
            self.rt.outl(chip.sctrl, chip.port + ES_REG_SERIAL)
            chip.ctrl |= ES_DAC2_EN
            self.rt.outl(chip.ctrl, chip.port + ES_REG_CONTROL)
            chip.playing = 1
            return 0
        if cmd == 0:  # STOP
            chip.ctrl &= ~ES_DAC2_EN
            self.rt.outl(chip.ctrl, chip.port + ES_REG_CONTROL)
            chip.sctrl &= ~ES_P2_INTR_EN
            self.rt.outl(chip.sctrl, chip.port + ES_REG_SERIAL)
            chip.playing = 0
            return 0
        raise HardwareException("unknown trigger command %r" % (cmd,))
