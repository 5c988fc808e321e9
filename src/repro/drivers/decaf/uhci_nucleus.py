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
from .plumbing import DecafPlumbing
from .uhci_decaf import UhciDecafDriver


class UhciNucleus:
    def __init__(self, kernel):
        self.kernel = kernel
        self.linux = legacy.linux
        self.state = legacy.uhci_state()
        self.plumbing = None
        self.decaf = None
        self.pdev = None
        self.rh_poll_timer = None
        self.rh_poll_period_ns = 256_000_000  # fleet slots stretch this

    def probe(self, pdev):
        self.pdev = pdev
        self.state.pdev = pdev
        self.plumbing = DecafPlumbing(self.kernel, "uhci_hcd",
                                      irq_line=pdev.irq)
        self.decaf = UhciDecafDriver(self.plumbing.decaf_rt, self)
        self.plumbing.decaf_rt.start()

        uhci = uhci_hcd_state()
        uhci.rh_numports = legacy.UHCI_NUM_PORTS
        uhci._kstate = self.state
        self.state.uhci = uhci
        self.state.lock = self.linux.spin_lock_init("uhci")
        self.plumbing.channel.kernel_tracker.register(uhci)

        ret = self.plumbing.upcall(
            self.decaf.probe, args=[(uhci, uhci_hcd_state)]
        )
        if ret:
            self.state.uhci = None
        else:
            self.plumbing.record("probe")
        return ret

    def remove(self, pdev):
        if self.decaf is None:
            return
        self.stop_rh_poll()
        self.plumbing.upcall(
            self.decaf.remove, args=[(self.state.uhci, uhci_hcd_state)]
        )
        self.decaf = None

    # -- deferred root-hub status poll: timer -> work item -> decaf driver ---------
    #
    # Only runs under supervision: unsupervised rigs keep the seed
    # crossing counts (the uhci data path never invokes the decaf half).

    def supervision_started(self):
        if self.state.uhci is not None and self.rh_poll_timer is None:
            self.start_rh_poll()

    def start_rh_poll(self):
        self.rh_poll_timer = self.plumbing.nuclear.defer_timer(
            self._rh_poll_work, name="uhci-rh-poll"
        )
        self.rh_poll_timer.mod_timer_after(self.rh_poll_period_ns)

    def stop_rh_poll(self):
        if self.rh_poll_timer is not None:
            self.rh_poll_timer.del_timer()
            self.rh_poll_timer = None

    def _rh_poll_work(self, _data):
        if self.decaf is None or self.state.uhci is None:
            return
        self.plumbing.upcall(
            self.decaf.rh_status_check,
            args=[(self.state.uhci, uhci_hcd_state)],
        )
        if self.rh_poll_timer is not None:
            self.rh_poll_timer.mod_timer_after(self.rh_poll_period_ns)

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
        self.stop_rh_poll()
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
        self.stop_rh_poll()
        return 0

    def rebuild_user_half(self):
        self.decaf = UhciDecafDriver(self.plumbing.decaf_rt, self)

    def replay_op(self, op, args):
        if op == "probe":
            # The controller is still running; replay maps the probe to
            # a light reattach that verifies it rather than re-running
            # bring-up against live hardware.
            ret = self.plumbing.upcall(
                self.decaf.reattach,
                args=[(self.state.uhci, uhci_hcd_state)],
            )
            if ret == 0:
                self.start_rh_poll()
            return ret
        return 0


def make_module():
    return DecafDriverModule(DRV_NAME, legacy, legacy.UhciPciGlue(),
                             UhciNucleus)
