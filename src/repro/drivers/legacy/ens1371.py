"""ens1371: Ensoniq ES1371 / Creative AudioPCI sound driver (legacy).

Mirrors sound/pci/ens1370.c (the ens1371 variant) from Linux 2.6.18:
AC'97 codec access with write-in-progress polling, sample-rate-converter
RAM programming, DAC2 (playback) frame setup through the memory-page
window, and a period interrupt handler that calls
``snd_pcm_period_elapsed``.
"""

from ...core.cstruct import CStruct, Opaque, Ptr, Str, U8, U16, U32, I32

linux = None  # bound at insmod

DRV_NAME = "ens1371"

ENSONIQ_VENDOR_ID = 0x1274
ES1371_DEVICE_ID = 0x1371

# Register offsets.
ES_REG_CONTROL = 0x00
ES_REG_STATUS = 0x04
ES_REG_MEM_PAGE = 0x0C
ES_REG_1371_SMPRATE = 0x10
ES_REG_1371_CODEC = 0x14
ES_REG_SERIAL = 0x20
ES_REG_DAC2_COUNT = 0x28
ES_REG_DAC2_FRAME = 0x38
ES_REG_DAC2_SIZE = 0x3C
ES_PAGE_DAC = 0x0C

# CONTROL bits.
ES_DAC2_EN = 1 << 5

# STATUS bits.
ES_INTR = 1 << 31
ES_DAC2 = 1 << 1

# SERIAL (SCTRL) bits.
ES_P2_INTR_EN = 1 << 9
ES_P2_PAUSE = 1 << 12
ES_P2_MODE_16BIT = 1 << 11
ES_P2_MODE_STEREO = 1 << 2

# CODEC bits.
ES_1371_CODEC_RDY = 1 << 31
ES_1371_CODEC_WIP = 1 << 30
ES_1371_CODEC_PIRD = 1 << 23

# SRC bits.
ES_1371_SRC_RAM_BUSY = 1 << 23
ES_1371_SRC_RAM_WE = 1 << 24
ES_1371_DAC2_RATE_REG = 0x75

AC97_MASTER = 0x02
AC97_PCM = 0x18
AC97_VENDOR_ID1 = 0x7C
AC97_VENDOR_ID2 = 0x7E


class ensoniq(CStruct):
    """struct ensoniq: the chip state shared across the split."""

    FIELDS = [
        ("port", U32),
        ("irq", U32),
        ("ctrl", U32),
        ("sctrl", U32),
        ("cssr", U32),
        ("dac2_addr", U32),
        ("dac2_size_frames", U32),
        ("dac2_period_frames", U32),
        ("dac2_rate", U32),
        ("playing", U8),
        ("codec_vendor", U32),
        ("card_name", Str(32)),
        ("pdev", Ptr("ensoniq"), Opaque()),
    ]


class ens_state:
    """The ensoniq members that never cross the split, one per chip:
    ``ensoniq_._kstate`` (see :mod:`repro.drivers.modulebase`)."""

    def __init__(self):
        self.ensoniq = None
        self.substream = None
        self.dac2_dma = None
        self.lock = None


# ---------------------------------------------------------------------------
# Low-level access
# ---------------------------------------------------------------------------

def outl(val, port):
    linux.outl(val, port)


def inl(port):
    return linux.inl(port)


def snd_es1371_wait_src_ready(ensoniq_):
    for _i in range(500):
        r = inl(ensoniq_.port + ES_REG_1371_SMPRATE)
        if not r & ES_1371_SRC_RAM_BUSY:
            return 0, r
        linux.udelay(1)
    return -linux.EIO, 0


def snd_es1371_src_write(ensoniq_, reg, data):
    err, _r = snd_es1371_wait_src_ready(ensoniq_)
    if err:
        return err
    outl((reg << 25) | ES_1371_SRC_RAM_WE | (data & 0xFFFF),
         ensoniq_.port + ES_REG_1371_SMPRATE)
    return 0


def snd_es1371_src_read(ensoniq_, reg):
    err, _r = snd_es1371_wait_src_ready(ensoniq_)
    if err:
        return err, 0
    outl(reg << 25, ensoniq_.port + ES_REG_1371_SMPRATE)
    err, r = snd_es1371_wait_src_ready(ensoniq_)
    if err:
        return err, 0
    return 0, r & 0xFFFF


def snd_es1371_codec_write(ensoniq_, reg, val):
    """AC97 register write with WIP poll."""
    for _i in range(1000):
        r = inl(ensoniq_.port + ES_REG_1371_CODEC)
        if not r & ES_1371_CODEC_WIP:
            outl((reg << 16) | (val & 0xFFFF),
                 ensoniq_.port + ES_REG_1371_CODEC)
            return 0
        linux.udelay(1)
    return -linux.EIO


def snd_es1371_codec_read(ensoniq_, reg):
    """AC97 register read; returns (errno, value)."""
    for _i in range(1000):
        r = inl(ensoniq_.port + ES_REG_1371_CODEC)
        if not r & ES_1371_CODEC_WIP:
            outl((reg << 16) | ES_1371_CODEC_PIRD,
                 ensoniq_.port + ES_REG_1371_CODEC)
            for _j in range(1000):
                r = inl(ensoniq_.port + ES_REG_1371_CODEC)
                if r & ES_1371_CODEC_RDY:
                    return 0, r & 0xFFFF
                linux.udelay(1)
            return -linux.EIO, 0
        linux.udelay(1)
    return -linux.EIO, 0


# ---------------------------------------------------------------------------
# Rate programming
# ---------------------------------------------------------------------------

def snd_es1371_dac2_rate(ensoniq_, rate):
    err = snd_es1371_src_write(ensoniq_, ES_1371_DAC2_RATE_REG, rate)
    if err:
        return err
    ensoniq_.dac2_rate = rate
    return 0


# ---------------------------------------------------------------------------
# Chip init
# ---------------------------------------------------------------------------

def snd_ens1371_chip_init(ensoniq_):
    """Reset and bring up codec + SRC; returns 0 or -errno."""
    outl(0, ensoniq_.port + ES_REG_CONTROL)
    outl(0, ensoniq_.port + ES_REG_SERIAL)
    linux.msleep(20)

    # Probe the AC97 codec: vendor ID registers.
    err, v1 = snd_es1371_codec_read(ensoniq_, AC97_VENDOR_ID1)
    if err:
        return err
    err, v2 = snd_es1371_codec_read(ensoniq_, AC97_VENDOR_ID2)
    if err:
        return err
    ensoniq_.codec_vendor = (v1 << 16) | v2

    # Unmute master and PCM volume.
    err = snd_es1371_codec_write(ensoniq_, AC97_MASTER, 0x0000)
    if err:
        return err
    err = snd_es1371_codec_write(ensoniq_, AC97_PCM, 0x0808)
    if err:
        return err

    err = snd_es1371_dac2_rate(ensoniq_, 44100)
    if err:
        return err
    return 0


# ---------------------------------------------------------------------------
# PCM ops (invoked by the sound core under the library lock)
# ---------------------------------------------------------------------------

class snd_ens1371_playback_ops:
    """The ops table registered with the PCM substream."""

    @staticmethod
    def open(substream):
        return snd_ens1371_playback_open(substream)

    @staticmethod
    def close(substream):
        return snd_ens1371_playback_close(substream)

    @staticmethod
    def hw_params(substream):
        return snd_ens1371_playback_hw_params(substream)

    @staticmethod
    def prepare(substream):
        return snd_ens1371_playback_prepare(substream)

    @staticmethod
    def trigger(substream, cmd):
        return snd_ens1371_playback_trigger(substream, cmd)

    @staticmethod
    def pointer(substream):
        return snd_ens1371_playback_pointer(substream)


def snd_ens1371_playback_open(substream):
    substream.private_data = substream.pcm.private_data
    return 0


def snd_ens1371_playback_close(substream):
    substream.private_data = None
    return 0


def snd_ens1371_playback_hw_params(substream):
    ensoniq_ = substream.private_data
    st = ensoniq_._kstate
    rt = substream.runtime
    size = rt.buffer_bytes
    if st.dac2_dma is not None:
        linux.dma_free_coherent(st.dac2_dma)
        st.dac2_dma = None
    st.dac2_dma = linux.dma_alloc_coherent(size, owner=DRV_NAME)
    if st.dac2_dma is None:
        return -linux.ENOMEM
    rt.dma_region = st.dac2_dma
    ensoniq_.dac2_size_frames = size // 4
    ensoniq_.dac2_period_frames = rt.period_bytes // rt.frame_bytes()
    err = snd_es1371_dac2_rate(ensoniq_, rt.rate)
    if err:
        return err
    return 0


def snd_ens1371_playback_prepare(substream):
    ensoniq_ = substream.private_data
    rt = substream.runtime

    mode = 0
    if rt.sample_bytes == 2:
        mode |= ES_P2_MODE_16BIT
    if rt.channels == 2:
        mode |= ES_P2_MODE_STEREO
    ensoniq_.sctrl = mode

    outl(ES_PAGE_DAC, ensoniq_.port + ES_REG_MEM_PAGE)
    outl(ensoniq_._kstate.dac2_dma.dma_addr, ensoniq_.port + ES_REG_DAC2_FRAME)
    outl(ensoniq_.dac2_size_frames - 1, ensoniq_.port + ES_REG_DAC2_SIZE)
    count = (rt.period_bytes // rt.frame_bytes()) - 1
    outl(count, ensoniq_.port + ES_REG_DAC2_COUNT)
    outl(ensoniq_.sctrl, ensoniq_.port + ES_REG_SERIAL)
    return 0


def snd_ens1371_playback_trigger(substream, cmd):
    ensoniq_ = substream.private_data
    if cmd == linux.SNDRV_PCM_TRIGGER_START:
        ensoniq_.sctrl |= ES_P2_INTR_EN
        outl(ensoniq_.sctrl, ensoniq_.port + ES_REG_SERIAL)
        ensoniq_.ctrl |= ES_DAC2_EN
        outl(ensoniq_.ctrl, ensoniq_.port + ES_REG_CONTROL)
        ensoniq_.playing = 1
        return 0
    if cmd == linux.SNDRV_PCM_TRIGGER_STOP:
        ensoniq_.ctrl &= ~ES_DAC2_EN
        outl(ensoniq_.ctrl, ensoniq_.port + ES_REG_CONTROL)
        ensoniq_.sctrl &= ~ES_P2_INTR_EN
        outl(ensoniq_.sctrl, ensoniq_.port + ES_REG_SERIAL)
        ensoniq_.playing = 0
        return 0
    return -linux.EINVAL


def snd_ens1371_playback_pointer(substream):
    ensoniq_ = substream.private_data
    outl(ES_PAGE_DAC, ensoniq_.port + ES_REG_MEM_PAGE)
    r = inl(ensoniq_.port + ES_REG_DAC2_SIZE)
    cur_frames = (r >> 16) & 0xFFFF
    return cur_frames * 4


# ---------------------------------------------------------------------------
# Interrupt handler (critical root)
# ---------------------------------------------------------------------------

def snd_ens1371_interrupt(irq, dev_id):
    ensoniq_ = dev_id
    status = inl(ensoniq_.port + ES_REG_STATUS)
    if not status & ES_INTR:
        return linux.IRQ_NONE
    if status & ES_DAC2:
        # Ack: toggle the period-interrupt enable.
        sctrl = ensoniq_.sctrl
        outl(sctrl & ~ES_P2_INTR_EN, ensoniq_.port + ES_REG_SERIAL)
        outl(sctrl, ensoniq_.port + ES_REG_SERIAL)
        substream = ensoniq_._kstate.substream
        if substream is not None:
            linux.snd_pcm_period_elapsed(substream)
    return linux.IRQ_HANDLED


# ---------------------------------------------------------------------------
# Probe / remove
# ---------------------------------------------------------------------------

def snd_ens1371_create(card, pdev):
    """Allocate and init the chip; returns 0 or -errno."""
    err = linux.pci_enable_device(pdev)
    if err:
        return err
    err = linux.pci_request_regions(pdev, DRV_NAME)
    if err:
        linux.pci_disable_device(pdev)
        return err

    ensoniq_ = ensoniq()
    ensoniq_._kstate = st = ens_state()
    ensoniq_.port = linux.pci_resource_start(pdev, 0)
    ensoniq_.irq = pdev.irq
    ensoniq_.card_name = "Ensoniq AudioPCI ES1371"
    st.ensoniq = ensoniq_
    st.lock = linux.spin_lock_init("ens1371")
    card.private_data = ensoniq_

    err = linux.request_irq(ensoniq_.irq, snd_ens1371_interrupt,
                            DRV_NAME, ensoniq_)
    if err:
        linux.pci_release_regions(pdev)
        linux.pci_disable_device(pdev)
        return err

    err = snd_ens1371_chip_init(ensoniq_)
    if err:
        linux.free_irq(ensoniq_.irq, ensoniq_)
        linux.pci_release_regions(pdev)
        linux.pci_disable_device(pdev)
        return err
    return 0


def snd_ens1371_pcm(ensoniq_, card):
    pcm = card.new_pcm("ES1371/1")
    pcm.playback.ops = snd_ens1371_playback_ops
    pcm.private_data = ensoniq_
    ensoniq_._kstate.substream = pcm.playback
    return 0


# The AC97 mixer controls this codec exposes; ALSA registers each as a
# separate control element (snd_ctl_add per entry).
AC97_MIXER_CONTROLS = (
    ("Master Playback Switch", 0x02), ("Master Playback Volume", 0x02),
    ("Headphone Playback Switch", 0x04), ("Headphone Playback Volume", 0x04),
    ("Master Mono Playback Switch", 0x06), ("Master Mono Playback Volume", 0x06),
    ("PC Speaker Playback Switch", 0x0A), ("PC Speaker Playback Volume", 0x0A),
    ("Phone Playback Switch", 0x0C), ("Phone Playback Volume", 0x0C),
    ("Mic Playback Switch", 0x0E), ("Mic Playback Volume", 0x0E),
    ("Mic Boost (+20dB)", 0x0E),
    ("Line Playback Switch", 0x10), ("Line Playback Volume", 0x10),
    ("CD Playback Switch", 0x12), ("CD Playback Volume", 0x12),
    ("Video Playback Switch", 0x14), ("Video Playback Volume", 0x14),
    ("Aux Playback Switch", 0x16), ("Aux Playback Volume", 0x16),
    ("PCM Playback Switch", 0x18), ("PCM Playback Volume", 0x18),
    ("Capture Source", 0x1A), ("Capture Switch", 0x1C),
    ("Capture Volume", 0x1C),
)


def snd_ens1371_mixer(card):
    """Register the AC97 mixer: one control element per entry, with the
    codec register initialized for each."""
    ensoniq_ = card.private_data
    for name, reg in AC97_MIXER_CONTROLS:
        err = snd_es1371_codec_write(ensoniq_, reg, 0x0808)
        if err:
            return err
        err = linux.snd_ctl_add(card, name)
        if err:
            return err
    return 0


def snd_ens1371_probe(pdev):
    card = linux.snd_card_new("AudioPCI")

    err = snd_ens1371_create(card, pdev)
    if err:
        return err
    ensoniq_ = card.private_data

    err = snd_ens1371_pcm(ensoniq_, card)
    if err:
        snd_ens1371_free(ensoniq_, pdev)
        return err

    err = snd_ens1371_mixer(card)
    if err:
        snd_ens1371_free(ensoniq_, pdev)
        return err

    err = linux.snd_card_register(card)
    if err:
        snd_ens1371_free(ensoniq_, pdev)
        return err
    pdev.driver_data = card
    return 0


def snd_ens1371_free(ensoniq_, pdev):
    st = ensoniq_._kstate
    outl(0, ensoniq_.port + ES_REG_CONTROL)
    outl(0, ensoniq_.port + ES_REG_SERIAL)
    linux.free_irq(ensoniq_.irq, ensoniq_)
    if st.dac2_dma is not None:
        linux.dma_free_coherent(st.dac2_dma)
        st.dac2_dma = None
    linux.pci_release_regions(pdev)
    linux.pci_disable_device(pdev)


def snd_ens1371_remove(pdev):
    card = pdev.driver_data
    linux.snd_card_free(card)
    pdev.driver_data = None
    snd_ens1371_free(card.private_data, pdev)


class Ens1371PciGlue:
    name = DRV_NAME
    id_table = ((ENSONIQ_VENDOR_ID, ES1371_DEVICE_ID),)

    def probe(self, kernel, pdev):
        return snd_ens1371_probe(pdev)

    def remove(self, kernel, pdev):
        snd_ens1371_remove(pdev)

    def matches(self, func):
        return (func.vendor_id, func.device_id) in self.id_table


def alsa_card_ens1371_init():
    return 0


def alsa_card_ens1371_exit():
    return 0


def make_module():
    from ..modulebase import LegacyDriverModule

    return LegacyDriverModule(
        name=DRV_NAME,
        driver_module=__import__(__name__, fromlist=["*"]),
        driver=Ens1371PciGlue(),
        init_fn=alsa_card_ens1371_init,
        cleanup_fn=alsa_card_ens1371_exit,
    )
