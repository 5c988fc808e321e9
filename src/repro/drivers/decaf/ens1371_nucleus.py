"""ens1371 driver nucleus.

Keeps the interrupt handler and the ``pointer`` op (called from
``snd_pcm_period_elapsed`` in irq context) in the kernel; every other
PCM op -- open, close, hw_params, prepare, trigger -- transfers to the
decaf driver.

This split is only legal on a kernel whose sound library calls driver
ops under a **mutex**: with the stock spinlock library, the prepare/
trigger upcalls would sleep in atomic context.  The nucleus checks at
init and refuses to load otherwise, making the paper's kernel
modification (section 3.1.3) an explicit, testable requirement.
"""

from ..legacy import ens1371 as legacy
from ..legacy.ens1371 import (
    DRV_NAME,
    ENSONIQ_VENDOR_ID,
    ES1371_DEVICE_ID,
    ES_DAC2_EN,
    ES_P2_INTR_EN,
    ES_REG_CONTROL,
    ES_REG_SERIAL,
    ensoniq,
)
from ..linuxapi import LinuxApi
from ..modulebase import DecafDriverModule
from .ens1371_decaf import Ens1371DecafDriver
from .plumbing import DecafPlumbing


class Ens1371Nucleus:
    # Legacy modules whose ``linux`` global this nucleus binds.
    bound_modules = (legacy,)

    def __init__(self, kernel):
        self.kernel = kernel
        self.linux = LinuxApi(kernel)
        for module in self.bound_modules:
            module.linux = self.linux
        self.state = legacy.ens_state()
        self.plumbing = None
        self.decaf = None
        self.pdev = None
        self.card = None
        self.irq_requested = False
        self.pci_glue = _PciGlue(self)

    def init(self):
        if not self.kernel.sound.use_mutex:
            # Stock sound library holds a spinlock around driver ops; a
            # decaf sound driver cannot run on it (section 3.1.3).
            self.kernel.printk(
                "ens1371-decaf: sound library uses spinlocks; "
                "decaf driver requires the mutex-based library"
            )
            return -self.linux.EINVAL
        bound = self.kernel.pci.register_driver(self.pci_glue)
        if bound == 0:
            self.kernel.pci.unregister_driver(self.pci_glue)
            return -self.linux.ENODEV
        return 0

    def cleanup(self):
        self.kernel.pci.unregister_driver(self.pci_glue)

    # -- probe -----------------------------------------------------------------

    def probe(self, pdev):
        self.pdev = pdev
        self.plumbing = DecafPlumbing(self.kernel, "ens1371",
                                      irq_line=pdev.irq)
        self.decaf = Ens1371DecafDriver(self.plumbing.decaf_rt, self)
        self.plumbing.decaf_rt.start()

        chip = ensoniq()
        chip.card_name = "Ensoniq AudioPCI ES1371 (decaf)"
        chip._kstate = self.state
        self.state.ensoniq = chip
        self.state.lock = self.linux.spin_lock_init("ens1371")
        self.plumbing.channel.kernel_tracker.register(chip)

        ret = self.plumbing.upcall(
            self.decaf.probe, args=[(chip, ensoniq)]
        )
        if ret:
            self.state.ensoniq = None
        else:
            self.plumbing.record("probe")
        return ret

    def remove(self, pdev):
        if self.decaf is None:
            return
        self.plumbing.upcall(
            self.decaf.remove, args=[(self.state.ensoniq, ensoniq)]
        )
        self.decaf = None

    # -- PCM op stubs (kernel -> decaf; legal under the mutex library) -------------

    def _chip_args(self):
        return [(self.state.ensoniq, ensoniq)]

    def stub_open(self, substream):
        substream.private_data = self.state.ensoniq
        ret = self.plumbing.upcall(self.decaf.playback_open,
                                   args=self._chip_args())
        if ret == 0:
            self.plumbing.record("pcm_open")
        return ret

    def stub_close(self, substream):
        ret = self.plumbing.upcall(self.decaf.playback_close,
                                   args=self._chip_args())
        substream.private_data = None
        if ret == 0:
            for op in ("pcm_open", "pcm_hw_params", "pcm_prepare",
                       "pcm_trigger"):
                self.plumbing.unrecord(op)
        return ret

    def stub_hw_params(self, substream):
        rt = substream.runtime
        ret = self.plumbing.upcall(
            self.decaf.playback_hw_params,
            args=self._chip_args(),
            extra=(rt.buffer_bytes, rt.period_bytes, rt.frame_bytes(),
                   rt.rate),
        )
        if ret == 0:
            rt.dma_region = self.state.dac2_dma
            self.plumbing.record("pcm_hw_params")
        return ret

    def stub_prepare(self, substream):
        rt = substream.runtime
        ret = self.plumbing.upcall(
            self.decaf.playback_prepare,
            args=self._chip_args(),
            extra=(rt.sample_bytes, rt.channels, rt.period_bytes,
                   rt.frame_bytes()),
        )
        if ret == 0:
            self.plumbing.record("pcm_prepare")
        return ret

    def stub_trigger(self, substream, cmd):
        ret = self.plumbing.upcall(
            self.decaf.playback_trigger, args=self._chip_args(),
            extra=(cmd,),
        )
        if ret == 0:
            if cmd:
                self.plumbing.record("pcm_trigger", cmd)
            else:
                self.plumbing.unrecord("pcm_trigger")
        return ret

    # pointer stays in the kernel: irq context (see legacy driver).
    def op_pointer(self, substream):
        return legacy.snd_ens1371_playback_pointer(substream)

    # -- kernel entry points ----------------------------------------------------------

    def k_pci_setup(self, chip):
        err = self.linux.pci_enable_device(self.pdev)
        if err:
            return err
        err = self.linux.pci_request_regions(self.pdev, DRV_NAME)
        if err:
            self.linux.pci_disable_device(self.pdev)
            return err
        chip.port = self.linux.pci_resource_start(self.pdev, 0)
        chip.irq = self.pdev.irq
        return 0

    def k_pci_teardown(self):
        self.linux.pci_release_regions(self.pdev)
        self.linux.pci_disable_device(self.pdev)
        return 0

    def _interrupt(self, irq, dev_id):
        ret = legacy.snd_ens1371_interrupt(irq, dev_id)
        if (ret == self.linux.IRQ_HANDLED and dev_id is not None
                and dev_id.playing and self.decaf is not None):
            # Period-elapsed is a one-way notification for the decaf
            # half; from irq context it may only be *queued* (nothing
            # crosses here).  Repeats coalesce, and the batch rides the
            # next sync-point crossing -- the data path itself stays
            # entirely in the kernel.
            self.plumbing.notify(self.decaf.period_elapsed,
                                 args=self._chip_args())
        return ret

    def k_request_irq(self, chip):
        ret = self.linux.request_irq(
            chip.irq, self._interrupt, DRV_NAME,
            self.state.ensoniq,
        )
        if ret == 0:
            self.irq_requested = True
        return ret

    def k_free_irq(self, chip):
        self.linux.free_irq(chip.irq, self.state.ensoniq)
        self.irq_requested = False
        return 0

    def k_ctl_add(self, name):
        if self.card is None:
            return -self.linux.EINVAL
        if name in self.card.controls:
            # Recovery replay re-adds the mixer controls; keep them.
            return 0
        return self.linux.snd_ctl_add(self.card, name)

    def k_new_card(self):
        if self.card is not None:
            # Recovery replay: the app still holds the old substream
            # (blocked mid-pcm_write); the card must survive the
            # user-half restart.
            return 0
        card = self.linux.snd_card_new("AudioPCI-decaf")
        pcm = card.new_pcm("ES1371/1")
        pcm.playback.ops = _PcmOpsStub(self)
        self.state.substream = pcm.playback
        self.card = card
        return 0

    def k_card_register(self):
        if self.card is not None and self.card.registered:
            return 0
        return self.linux.snd_card_register(self.card)

    def k_register_card(self):
        card = self.linux.snd_card_new("AudioPCI-decaf")
        pcm = card.new_pcm("ES1371/1")
        pcm.playback.ops = _PcmOpsStub(self)
        self.state.substream = pcm.playback
        self.card = card
        return self.linux.snd_card_register(card)

    def k_free_card(self):
        if self.card is not None:
            self.linux.snd_card_free(self.card)
            self.card = None
        return 0

    def k_alloc_dac2_buffer(self, nbytes):
        if self.state.dac2_dma is not None:
            self.linux.dma_free_coherent(self.state.dac2_dma)
        self.state.dac2_dma = self.linux.dma_alloc_coherent(
            nbytes, owner=DRV_NAME
        )
        if self.state.dac2_dma is None:
            return -self.linux.ENOMEM
        return self.state.dac2_dma.dma_addr

    def k_free_dac2_buffer(self):
        if self.state.dac2_dma is not None:
            self.linux.dma_free_coherent(self.state.dac2_dma)
            self.state.dac2_dma = None
        return 0

    # -- supervised recovery ------------------------------------------------------

    def fault_quiesce(self):
        """Kernel-side quiesce after a user-half failure (no upcalls).

        Silences DAC2 and its interrupt directly through the registers
        (the dead driver can't be asked to), then drops the irq and the
        PCI claim.  The card, pcm and substream survive -- the app is
        blocked mid-``pcm_write`` on the old substream.
        """
        chip = self.state.ensoniq
        if chip is None:
            return 0
        if self.irq_requested:
            chip.ctrl &= ~ES_DAC2_EN
            self.kernel.io.outl(chip.ctrl, chip.port + ES_REG_CONTROL)
            chip.sctrl &= ~ES_P2_INTR_EN
            self.kernel.io.outl(chip.sctrl, chip.port + ES_REG_SERIAL)
            chip.playing = False
            self.k_free_irq(chip)
        self.k_pci_teardown()
        return 0

    def rebuild_user_half(self):
        self.decaf = Ens1371DecafDriver(self.plumbing.decaf_rt, self)

    def replay_op(self, op, args):
        if op == "probe":
            return self.plumbing.upcall(
                self.decaf.probe, args=self._chip_args()
            )
        sub = self.state.substream
        if op == "pcm_open":
            return self.stub_open(sub)
        if op == "pcm_hw_params":
            return self.stub_hw_params(sub)
        if op == "pcm_prepare":
            return self.stub_prepare(sub)
        if op == "pcm_trigger":
            return self.stub_trigger(sub, args[0])
        return 0


class _PcmOpsStub:
    """Ops table whose entries are the nucleus's XPC stubs."""

    def __init__(self, nucleus):
        self._n = nucleus

    def open(self, substream):
        return self._n.stub_open(substream)

    def close(self, substream):
        return self._n.stub_close(substream)

    def hw_params(self, substream):
        return self._n.stub_hw_params(substream)

    def prepare(self, substream):
        return self._n.stub_prepare(substream)

    def trigger(self, substream, cmd):
        return self._n.stub_trigger(substream, cmd)

    def pointer(self, substream):
        return self._n.op_pointer(substream)


class _PciGlue:
    name = DRV_NAME
    id_table = ((ENSONIQ_VENDOR_ID, ES1371_DEVICE_ID),)

    def __init__(self, nucleus):
        self.nucleus = nucleus

    def probe(self, kernel, pdev):
        return self.nucleus.probe(pdev)

    def remove(self, kernel, pdev):
        self.nucleus.remove(pdev)

    def matches(self, func):
        return (func.vendor_id, func.device_id) in self.id_table


def make_module():
    return DecafDriverModule(DRV_NAME, Ens1371Nucleus)
