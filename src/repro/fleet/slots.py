"""Fleet slots: device instances on the fleet kernel.

A :class:`DeviceSlot` is a :class:`repro.family.DeviceInstance` whose
device gets slot-unique resources.  Every slot has its own loadable
module (insmod/rmmod, XPC channel, supervisor), and every slot's
module binds the one driver module of its family: drivers keep
per-device state on the device.  The family supplies the device, the
module, the endpoint and the traffic; the slot adds the fleet's
policy: each slot's bus glue binds only its own PCI function, nucleus
polls are stretched, decaf drivers are supervised from probe on, and
probe opens the endpoint for traffic.
"""

from ..family import FAMILIES, DeviceInstance


class DeviceSlot(DeviceInstance):
    """One device + driver instance under the fleet kernel."""

    family = None

    # Periodic health polls (root-hub status, link watch, resync) each
    # cost a couple of XPC crossings.  One driver polling at 250ms is
    # noise; hundreds of them make crossings the whole fleet's virtual
    # time, so fleet slots stretch every nucleus poll period.
    _POLL_PERIOD_ATTRS = ("rh_poll_period_ns", "watchdog_period_ns",
                          "link_poll_period_ns", "resync_period_ns")
    POLL_STRETCH = 64

    def __init__(self, index, decaf=False, family=None):
        family = FAMILIES[family] if family else type(self).family
        super().__init__(family, decaf, "%s%s.%d" % (
            family.key, "+decaf" if decaf else "", index))
        self.index = index
        self.traffic_units = 0   # packets / blocks / chunks / samples moved
        self.traffic_lost = 0    # units refused (queue stopped, recovery)

    def attach(self, kernel):
        """Plug the hardware in and build the driver module (once)."""
        return super().attach(kernel, slot=self.index)

    def probe(self, max_recoveries=1000):
        """insmod the slot's driver and start its traffic endpoint."""
        if self.bound:
            return 0
        self.insmod()
        if self.endpoint is None:
            raise RuntimeError("%s: probe registered no endpoint" % self.name)
        if self.decaf:
            self.supervise(max_recoveries)
        self.family.open(self)
        return 0

    def remove(self):
        # Leak accounting is fleet-global (owners are DRV_NAMEs shared
        # by every slot of a family); the harness asserts the global
        # allocation delta instead.
        self.rmmod(check_leaks=False)

    def release(self):
        self.family.close(self)
        super().release()

    def fit_glue(self, glue):
        """Bind exactly this slot's PCI function.

        ``PciBus.register_driver`` probes every unbound function the ID
        table matches: with N identical NICs on the bus, slot 7's
        driver would otherwise claim slot 3's silicon.  A real kernel
        registers one ``pci_driver`` that probes every device; here each
        slot registers its own, so that slots load and unload apart.
        """
        func, matches = self.device.pci, glue.matches
        glue.matches = lambda f: f is func and matches(f)
        return glue

    def fit_nucleus(self, nucleus):
        if getattr(nucleus, "pci_glue", None) is not None:
            nucleus.pci_glue = self.fit_glue(nucleus.pci_glue)
        for attr in self._POLL_PERIOD_ATTRS:
            period = getattr(nucleus, attr, None)
            if period is not None:
                setattr(nucleus, attr, period * self.POLL_STRETCH)

    def tick(self, units=None):
        """Move a little traffic; returns units actually moved."""
        return self.family.tick(self, units or self.family.tick_units)

    def poke(self):
        return self.family.poke(self)


class E1000Slot(DeviceSlot):
    family = FAMILIES["e1000"]


class Rtl8139Slot(DeviceSlot):
    family = FAMILIES["8139too"]


class UhciSlot(DeviceSlot):
    family = FAMILIES["uhci_hcd"]


class Ens1371Slot(DeviceSlot):
    family = FAMILIES["ens1371"]


class PsmouseSlot(DeviceSlot):
    family = FAMILIES["psmouse"]
