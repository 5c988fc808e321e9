"""uhci-hcd decaf driver: the thin user-level half.

Only initialization orchestration and power management moved out of
the kernel for uhci-hcd (the paper converted 3 functions, 4% -- the
data path can reach nearly everything else).  The decaf half
sequences controller bring-up through kernel entry points, with
exception-based unwind.
"""

from .exceptions import DriverException, HardwareException, ResourceException


class UhciDecafDriver:
    def __init__(self, rt, down):
        self.rt = rt
        self.down = down  # downcall stubs: the kernel entry points
        self.rh_polls = 0
        self.port_changes = 0
        self._last_status = {}

    def probe(self, uhci):
        """Converted uhci_pci_probe: bring-up with nested unwind."""
        self.down.k_pci_setup(uhci, exc=ResourceException)
        try:
            self.down.k_reset_hc(uhci, exc=HardwareException)
            self.down.k_request_irq(uhci, exc=ResourceException)
            try:
                self.down.k_start(uhci, exc=HardwareException)
            except DriverException:
                self.down.k_free_irq(uhci)
                raise
        except DriverException:
            self.down.k_pci_teardown()
            raise
        return 0

    def remove(self, uhci):
        self.down.k_stop(uhci)
        self.down.k_free_irq(uhci)
        self.down.k_pci_teardown()
        return 0

    def suspend(self, uhci):
        """Converted suspend path: halt the schedule."""
        self.down.k_stop(uhci)
        uhci.is_stopped = 1
        return 0

    def resume(self, uhci):
        self.down.k_reset_hc(uhci, exc=HardwareException)
        self.down.k_start(uhci, exc=HardwareException)
        uhci.is_stopped = 0
        return 0

    # -- periodic root-hub status poll (timer -> work item -> here) ---------------

    def rh_status_check(self, uhci):
        """Poll the root-hub port-status registers for connect changes.

        Management-plane work mid-workload -- and therefore this
        driver's fault-injection point.
        """
        self.rh_polls += 1
        for port in range(uhci.rh_numports):
            status = self.down.k_port_status(port)
            if self._last_status.get(port) is not None \
                    and self._last_status[port] != status:
                self.port_changes += 1
            self._last_status[port] = status
        return 0

    # -- recovery reattach (replayed in place of probe) ---------------------------

    def reattach(self, uhci):
        """Adopt the still-running controller after a user-half restart.

        The schedule never stopped (the data path is kernel-resident);
        reattach just verifies the controller is alive instead of
        re-running bring-up against live hardware.
        """
        if not self.down.k_schedule_running():
            raise HardwareException("controller schedule stopped")
        self._last_status = {}
        return 0
