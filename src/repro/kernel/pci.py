"""PCI bus: enumeration, config space, BAR claiming, driver binding.

Device models construct a :class:`PciFunction` describing their config
space, BARs and interrupt line; drivers register a :class:`PciDriver` with
an ID table and get probed, exactly mirroring
``pci_register_driver`` / ``probe`` in Linux.  The binding rules
(:class:`BusType`) are shared with the serio bus.
"""

import struct

from .errors import EBUSY, ENODEV, SimulationError

# Config-space offsets (subset).
PCI_VENDOR_ID = 0x00
PCI_DEVICE_ID = 0x02
PCI_COMMAND = 0x04
PCI_STATUS = 0x06
PCI_REVISION_ID = 0x08
PCI_SUBSYSTEM_VENDOR_ID = 0x2C
PCI_SUBSYSTEM_ID = 0x2E
PCI_INTERRUPT_LINE = 0x3C

PCI_COMMAND_IO = 0x1
PCI_COMMAND_MEMORY = 0x2
PCI_COMMAND_MASTER = 0x4

PCI_ANY_ID = 0xFFFF


class PciBar:
    """One base-address register: a claimed port or MMIO window."""

    __slots__ = ("base", "size", "is_mmio", "handler")

    def __init__(self, base, size, is_mmio, handler):
        self.base = base
        self.size = size
        self.is_mmio = is_mmio
        self.handler = handler


class PciFunction:
    """A PCI device function as seen by the kernel and drivers."""

    def __init__(self, vendor_id, device_id, irq, bars,
                 subsystem_vendor=0, subsystem_device=0, revision=0,
                 name="pci-dev"):
        self.vendor_id = vendor_id
        self.device_id = device_id
        self.irq = irq
        self.bars = list(bars)
        self.subsystem_vendor = subsystem_vendor
        self.subsystem_device = subsystem_device
        self.revision = revision
        self.name = name
        self.config = bytearray(256)
        self.enabled = False
        self.is_busmaster = False
        self.driver = None
        self.driver_data = None
        self.driver_override = None  # see BusType
        self._regions = []
        struct.pack_into("<H", self.config, PCI_VENDOR_ID, vendor_id)
        struct.pack_into("<H", self.config, PCI_DEVICE_ID, device_id)
        struct.pack_into("<H", self.config, PCI_SUBSYSTEM_VENDOR_ID, subsystem_vendor)
        struct.pack_into("<H", self.config, PCI_SUBSYSTEM_ID, subsystem_device)
        self.config[PCI_REVISION_ID] = revision & 0xFF
        self.config[PCI_INTERRUPT_LINE] = irq & 0xFF

    # Linux-style resource accessors.
    def resource_start(self, bar):
        return self.bars[bar].base

    def resource_len(self, bar):
        return self.bars[bar].size


class PciDriver:
    """Driver registration record: subclass or fill in callables.

    ``probe(kernel, pci_func)`` returns 0 or negative errno;
    ``remove(kernel, pci_func)`` tears down.
    """

    name = "pci-driver"
    id_table = ()  # iterable of (vendor_id, device_id)
    owner = None   # the registering module's name (register_driver)

    def probe(self, kernel, pci_func):
        raise NotImplementedError

    def remove(self, kernel, pci_func):
        raise NotImplementedError

    def matches(self, func):
        for vendor, device in self.id_table:
            if vendor in (func.vendor_id, PCI_ANY_ID) and device in (
                func.device_id,
                PCI_ANY_ID,
            ):
                return True
        return False


class BusType:
    """Driver binding shared by the PCI and serio buses (the Linux
    driver core).

    A device binds the first registered driver that matches it, when
    the driver registers or when the device is plugged in later; a
    driver's ``probe`` returning 0 binds it.  Unplugging a bound device,
    or unregistering its driver, calls the driver's ``remove``.

    ``register_driver(driver, owner)`` records the registering module
    as ``driver.owner``, as ``__pci_register_driver`` does.  A device's
    ``driver_override``, when set, restricts it to the driver that
    module owns.  Linux keys the override on the driver's name; here a
    legacy and a decaf variant of one driver register under the same
    name, so it keys on the owner module instead.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self._devices = []
        self._drivers = []

    def _add_device(self, dev):
        self._devices.append(dev)
        for driver in self._drivers:
            if self._binds(driver, dev):
                self._probe(driver, dev)

    def _remove_device(self, dev):
        if dev.driver is not None:
            dev.driver.remove(self._kernel, dev)
            dev.driver = None
        self._devices.remove(dev)

    def register_driver(self, driver, owner=None):
        """Returns number of devices bound (Linux returns 0; callers may
        treat 'no device' as -ENODEV themselves, as many drivers do)."""
        driver.owner = owner
        self._drivers.append(driver)
        bound = 0
        for dev in self._devices:
            if self._binds(driver, dev) and self._probe(driver, dev) == 0:
                bound += 1
        return bound

    def unregister_driver(self, driver):
        for dev in self._devices:
            if dev.driver is driver:
                driver.remove(self._kernel, dev)
                dev.driver = None
        self._drivers.remove(driver)

    @staticmethod
    def _binds(driver, dev):
        override = dev.driver_override
        return (dev.driver is None and driver.matches(dev)
                and (override is None or override == driver.owner))

    def _probe(self, driver, dev):
        ret = driver.probe(self._kernel, dev)
        if ret == 0:
            dev.driver = driver
        return ret


class PciBus(BusType):
    @property
    def functions(self):
        return list(self._devices)

    def add_function(self, func):
        """Plug a function in; a registered driver that matches probes it."""
        self._add_device(func)

    def remove_function(self, func):
        """Hot-unplug: the bound driver's ``remove`` runs first."""
        self._remove_device(func)

    # -- Linux helper API used by drivers --------------------------------------

    def enable_device(self, func):
        func.enabled = True
        cmd = struct.unpack_from("<H", func.config, PCI_COMMAND)[0]
        cmd |= PCI_COMMAND_IO | PCI_COMMAND_MEMORY
        struct.pack_into("<H", func.config, PCI_COMMAND, cmd)
        return 0

    def disable_device(self, func):
        func.enabled = False

    def set_master(self, func):
        func.is_busmaster = True
        cmd = struct.unpack_from("<H", func.config, PCI_COMMAND)[0]
        struct.pack_into("<H", func.config, PCI_COMMAND, cmd | PCI_COMMAND_MASTER)

    def request_regions(self, func, name):
        """Claim all BARs in the kernel I/O space; returns 0 or -EBUSY."""
        if func._regions:
            return -EBUSY
        try:
            for bar in func.bars:
                region = self._kernel.io.register(
                    bar.base, bar.size, bar.handler, name, bar.is_mmio
                )
                func._regions.append(region)
        except SimulationError:
            self.release_regions(func)
            return -EBUSY
        return 0

    def release_regions(self, func):
        for region in func._regions:
            self._kernel.io.unregister(region)
        func._regions = []

    def read_config_word(self, func, offset):
        self._kernel.consume(self._kernel.costs.port_io_ns, category="io")
        return struct.unpack_from("<H", func.config, offset)[0]

    def write_config_word(self, func, offset, value):
        self._kernel.consume(self._kernel.costs.port_io_ns, category="io")
        struct.pack_into("<H", func.config, offset, value & 0xFFFF)

    def read_config_dword(self, func, offset):
        self._kernel.consume(self._kernel.costs.port_io_ns, category="io")
        return struct.unpack_from("<I", func.config, offset)[0]

    def write_config_dword(self, func, offset, value):
        self._kernel.consume(self._kernel.costs.port_io_ns, category="io")
        struct.pack_into("<I", func.config, offset, value & 0xFFFFFFFF)

    def find_function(self, vendor_id, device_id):
        for func in self._devices:
            if func.vendor_id == vendor_id and func.device_id == device_id:
                return func
        return None
