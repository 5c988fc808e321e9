"""Fleet slots: devices hot-plugged under shared driver modules.

A :class:`DeviceSlot` is a :class:`repro.family.DeviceInstance` whose
device gets slot-unique resources and is hot-plugged, the way a device
joins a running Linux machine.  The fleet kernel loads one module per
(family, variant), the first time a slot of that pair probes, and
keeps it loaded: probe plugs the slot's device in and the module's one
bus driver probes it; remove unplugs it.  A slot's ``driver_override``
names its pair's module, so a legacy and a decaf e1000 module loaded
side by side each bind only their own slots.  The family supplies the
device, the module, the endpoint and the traffic; the slot adds the
fleet's policy: decaf nuclei poll less often, decaf drivers are
supervised from probe on, and probe opens the endpoint for traffic.
"""

from ..family import FAMILIES, DeviceInstance


class DeviceSlot(DeviceInstance):
    """One device + driver instance under the fleet kernel."""

    # Periodic health polls (watchdog, link watch, root-hub status,
    # resync) each cost a couple of XPC crossings.  One driver polling
    # at 250ms is noise; hundreds of them make crossings the whole
    # fleet's virtual time, so a slot stretches every poll period of
    # the nucleus it probes.
    POLL_STRETCH = 64

    def __init__(self, index, decaf, family):
        family = FAMILIES[family]
        super().__init__(family, decaf, "%s%s.%d" % (
            family.key, "+decaf" if decaf else "", index))
        self.index = index
        # The module this slot's pair loads under.
        self.module_name = family.key + ("+decaf" if decaf else "")
        self.traffic_units = 0   # packets / blocks / chunks / samples moved
        self.traffic_lost = 0    # units refused (queue stopped, recovery)

    def attach(self, kernel):
        """Build the hardware; :meth:`probe` plugs it in."""
        self.kernel = kernel
        self.family.attach(self, slot=self.index)
        self.bus_device.driver_override = self.module_name
        return self

    def probe(self, max_recoveries=1000):
        """Plug the device in under its pair's module (loading the
        module if no slot of the pair has yet) and start its endpoint."""
        if self.bound:
            return 0
        kernel = self.kernel
        before = self._endpoints()
        self.family.plug(self)
        module = kernel.modules.loaded.get(self.module_name)
        if module is None:
            module = self.family.module(self.decaf)
            module.name = self.module_name
            ret = kernel.modules.insmod(module)
            if ret != 0:
                raise RuntimeError("%s: insmod failed with %d"
                                   % (self.name, ret))
        self.module = module
        if self.bus_device.driver is None:
            raise RuntimeError("%s: probe failed" % self.name)
        self._bound(before)
        if self.endpoint is None:
            raise RuntimeError("%s: probe registered no endpoint" % self.name)
        if self.decaf:
            self.nucleus.nuclear.poll_stretch = self.POLL_STRETCH
            self.supervise(max_recoveries)
        self.family.open(self)
        return 0

    def remove(self):
        """Tear the device's driver instance down and unplug it; the
        module stays loaded."""
        if not self.bound:
            return
        self._teardown()
        self.family.unplug(self)
        self.bound = False

    def release(self):
        self.family.close(self)
        super().release()

    def tick(self, units=None):
        """Move a little traffic; returns units actually moved."""
        return self.family.tick(self, units or self.family.tick_units)

    def poke(self):
        return self.family.poke(self)

