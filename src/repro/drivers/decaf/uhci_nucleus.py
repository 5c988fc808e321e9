"""uhci-hcd driver nucleus.

The UHCI host-controller driver is almost entirely data path: URB
enqueue/dequeue, schedule scanning from the interrupt handler, and
port management reached from the irq path.  All of it stays in the
kernel, reusing the legacy functions -- matching the paper's finding
that only 4% of uhci-hcd's functions could move to Java.

What *does* move is the probe/suspend orchestration, implemented in
:class:`~repro.drivers.decaf.uhci_decaf.UhciDecafDriver`.
"""

from ..legacy import uhci_hcd as legacy
from ..legacy.uhci_hcd import DRV_NAME, UhciHcdOps, uhci_hcd_state
from ..modulebase import DecafDriverModule
from .plumbing import DecafPlumbing, xpc_stubs
from .uhci_decaf import UhciDecafDriver


@xpc_stubs
class UhciNucleus:
    def __init__(self, kernel):
        self.kernel = kernel
        self.linux = legacy.linux
        self.state = legacy.uhci_state()
        self.plumbing = None
        self.decaf = None
        self.pdev = None
        self.rh_poll = None

    UPCALLS = {
        "probe": None,  # replayed as _reattach
        "reattach": None,
        "remove": None,
        "rh_status_check": None,
        "suspend": None,
        "resume": None,
    }

    def probe(self, pdev):
        self.pdev = pdev
        self.state.pdev = pdev
        self.plumbing = DecafPlumbing(self.kernel, "uhci_hcd",
                                      irq_line=pdev.irq, nucleus=self)
        self.rh_poll = self.plumbing.nuclear.defer_timer(
            self._rh_status_check, 256_000_000, "uhci-rh-poll")
        self.rebuild_user_half()
        self.plumbing.decaf_rt.start()

        uhci = uhci_hcd_state()
        uhci.rh_numports = legacy.UHCI_NUM_PORTS
        uhci._kstate = self.state
        self.state.uhci = uhci
        self.state.lock = self.linux.spin_lock_init("uhci")
        self.plumbing.channel.kernel_tracker.register(uhci)

        ret = self.plumbing.up.probe(uhci)
        if ret:
            self.state.uhci = None
        else:
            self.plumbing.record(self._reattach)
        return ret

    def _reattach(self):
        """Probe, as recovery replays it: the controller is still
        running, so a light reattach verifies it instead of re-running
        bring-up against live hardware, and the poll restarts."""
        ret = self.plumbing.up.reattach(self.state.uhci)
        if ret == 0:
            self.rh_poll.start()
        return ret

    def remove(self, pdev):
        if self.decaf is None:
            return
        self.rh_poll.stop()
        self.plumbing.up.remove(self.state.uhci)
        self.decaf = None

    # -- root-hub status poll: the nuclear runtime defers its timer ----
    #
    # Only runs under supervision: unsupervised rigs keep the seed
    # crossing counts (the uhci data path never invokes the decaf half).

    def supervision_started(self):
        if self.state.uhci is not None and not self.rh_poll.running:
            self.rh_poll.start()

    def _rh_status_check(self):
        if self.decaf is None or self.state.uhci is None:
            return False
        self.plumbing.up.rh_status_check(self.state.uhci)
        return True

    # -- kernel entry points ------------------------------------------------------

    def k_pci_setup(self, uhci):
        err = self.linux.pci_enable_device(self.pdev)
        if err:
            return err
        err = self.linux.pci_request_regions(self.pdev, DRV_NAME)
        if err:
            self.linux.pci_disable_device(self.pdev)
            return err
        uhci.io_addr = self.linux.pci_resource_start(self.pdev, 0)
        uhci.irq = self.pdev.irq
        return 0

    def k_pci_teardown(self):
        self.linux.pci_release_regions(self.pdev)
        self.linux.pci_disable_device(self.pdev)
        return 0

    def k_reset_hc(self, uhci):
        return legacy.uhci_reset_hc(uhci)

    def k_request_irq(self, uhci):
        return self.linux.request_irq(uhci.irq, legacy.uhci_irq,
                                      DRV_NAME, self.state.uhci)

    def k_free_irq(self, uhci):
        self.linux.free_irq(uhci.irq, self.state.uhci)
        return 0

    def k_start(self, uhci):
        # Starts the schedule and registers the HCD with the USB core;
        # kernel-resident because the schedule is the data path.
        err = legacy.uhci_start(self.state.uhci)
        if err:
            return err
        self.state.hcd_ops = UhciHcdOps()
        self.state.hcd_ops.hcd_priv = self.state.uhci
        self.linux.usb_register_hcd(self.state.hcd_ops)
        legacy.uhci_scan_ports(self.state.uhci)
        return 0

    def k_stop(self, uhci):
        self.rh_poll.stop()
        for device in list(self.state.port_devices):
            self.linux.usb_disconnect_device(device)
        self.state.port_devices = []
        if self.state.hcd_ops is not None:
            self.linux.usb_unregister_hcd(self.state.hcd_ops)
            self.state.hcd_ops = None
        legacy.uhci_stop(self.state.uhci)
        return 0

    def k_port_status(self, port):
        uhci = self.state.uhci
        if uhci is None:
            return -self.linux.ENODEV
        return legacy.uhci_readw(uhci, legacy.PORTSC1 + port * 2)

    def k_schedule_running(self):
        uhci = self.state.uhci
        if uhci is None:
            return 0
        return 0 if uhci.is_stopped else 1

    # -- supervised recovery ------------------------------------------------------

    def fault_quiesce(self):
        """Kernel-side quiesce after a user-half failure (no upcalls).

        Only the root-hub poll is stopped.  The schedule, the irq and
        the attached devices stay up: uhci-hcd's data path is entirely
        kernel-resident, so a user-half crash must not disconnect the
        flash disk mid-transfer (that asymmetry is the point of the
        4%-converted split).
        """
        self.rh_poll.stop()
        return 0

    def rebuild_user_half(self):
        self.decaf = UhciDecafDriver(self.plumbing.decaf_rt,
                                     self.plumbing.down)


def make_module():
    return DecafDriverModule(DRV_NAME, legacy, legacy.UhciPciGlue(),
                             UhciNucleus)
