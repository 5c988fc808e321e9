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
from .plumbing import Nucleus, xpc_stubs
from .uhci_decaf import UhciDecafDriver


@xpc_stubs
class UhciNucleus(Nucleus):
    LEGACY = legacy
    STATE = legacy.uhci_state
    DECAF = UhciDecafDriver
    POLL = (256_000_000, "uhci-rh-poll")

    UPCALLS = {
        "probe": None,  # replayed as _reattach
        "reattach": None,
        "remove": None,
        "rh_status_check": None,
        "suspend": None,
        "resume": None,
    }

    def setup(self, pdev):
        self.state.pdev = pdev
        uhci = uhci_hcd_state()
        uhci.rh_numports = legacy.UHCI_NUM_PORTS
        uhci._kstate = self.state
        self.state.uhci = uhci
        self.state.lock = self.linux.spin_lock_init("uhci")
        self.channel.kernel_tracker.register(uhci)

        ret = self.up.probe(uhci)
        if ret:
            self.state.uhci = None
        else:
            self.replay_log.record(self._reattach)
        return ret

    def _reattach(self):
        """Probe, as recovery replays it: the controller is still
        running, so a light reattach verifies it instead of re-running
        bring-up against live hardware, and the poll restarts."""
        ret = self.up.reattach(self.state.uhci)
        if ret == 0:
            self.poll.start()
        return ret

    def teardown(self, pdev):
        self.poll.stop()
        self.up.remove(self.state.uhci)

    # -- root-hub status poll: the nuclear runtime defers its timer ----
    #
    # Only runs under supervision: unsupervised rigs keep the seed
    # crossing counts (the uhci data path never invokes the decaf half).

    def supervision_started(self):
        if self.state.uhci is not None and not self.poll.running:
            self.poll.start()

    def poll_body(self):
        if self.decaf is None or self.state.uhci is None:
            return False
        self.up.rh_status_check(self.state.uhci)
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
        self.poll.stop()
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
        self.poll.stop()
        return 0

    def reclaim(self):
        """After :meth:`fault_quiesce`, for a dead user half: the
        schedule, the HCD and its devices, the irq and the PCI claim."""
        uhci = self.state.uhci
        self.k_stop(uhci)
        self.k_free_irq(uhci)
        self.k_pci_teardown()
