"""Module glue shared by legacy and decaf drivers.

A driver loads once, as one :class:`KernelModule`, and serves every
device it matches, the way a Linux module does: init binds the driver
source's ``linux`` global, runs the driver's init function and
registers one bus driver (a ``pci_driver``, or a serio driver for
psmouse).  The bus probes that driver against every device present and
every device plugged in later, and unplugging a device removes only
that device.  :class:`LegacyDriverModule` registers the legacy
driver's own glue.  :class:`DecafDriverModule` registers a driver with
the same name and ID table whose probe builds one nucleus -- with its
own XPC plumbing and decaf runtime -- per device.

Per-device state lives on the device: each legacy driver's ``*_state``
object holds the members of the C private struct that never cross the
split (locks, timers, NAPI contexts, DMA regions).  Probe creates one
per device and hangs it off the device's marshaled struct as
``<struct>._kstate`` -- an underscore attribute, so it is neither
marshaled nor dirty-tracked, and DriverSlicer's field analysis never
sees it.  Entry points reach the struct the way the C driver does
(``netdev.priv``, ``pdev.driver_data``, ``serio.drvdata``, the irq
``dev_id``, the pcm's and the hcd's private data); each nucleus holds
its own device's object as ``self.state``.  Module parameters stay
module globals.  ``linux`` is a module's only global tied to a kernel;
the last module on that kernel to unload clears it
(:func:`unbind_linux`).
"""

from ..kernel.errors import ENODEV
from ..kernel.module import KernelModule
from .linuxapi import LinuxApi


def unbind_linux(kernel, modules):
    """Clear ``linux`` on ``modules`` unless a module still loaded on
    ``kernel`` binds them: a driver module's globals must not keep an
    unloaded kernel alive."""
    left = {module for module in modules
            if module.linux is not None and module.linux.kernel is kernel}
    for other in kernel.modules.loaded.values():
        if not left:
            return
        left.difference_update(getattr(other, "bound_modules", ()))
    for module in left:
        module.linux = None


class LegacyDriverModule(KernelModule):
    """A legacy driver.  ``driver`` is its bus glue (``name``,
    ``matches``, ``probe``, ``remove``), registered on ``bus``: "pci",
    or "input" for the serio bus."""

    def __init__(self, name, driver_module, driver, init_fn=None,
                 cleanup_fn=None, extra_modules=(), bus="pci"):
        self.name = name
        self.bound_modules = (driver_module,) + tuple(extra_modules)
        self.driver = driver
        self.bus = bus
        self.init_fn = init_fn
        self.cleanup_fn = cleanup_fn

    def init_module(self, kernel):
        linux = LinuxApi(kernel)
        for module in self.bound_modules:
            module.linux = linux
        ret = self.init_fn() if self.init_fn is not None else 0
        if ret:
            return ret
        bus = getattr(kernel, self.bus)
        if bus.register_driver(self.driver, owner=self.name) == 0:
            # A registration that binds no device fails the load.
            bus.unregister_driver(self.driver)
            return -ENODEV
        return 0

    def cleanup_module(self, kernel):
        getattr(kernel, self.bus).unregister_driver(self.driver)
        if self.cleanup_fn is not None:
            self.cleanup_fn()
        unbind_linux(kernel, self.bound_modules)


class DecafDriverModule(LegacyDriverModule):
    """A decaf driver: per device, a nucleus (kernel) and a decaf
    driver (user, managed).

    The registered driver keeps the legacy ``glue``'s name and ID
    table.  Its probe builds a fresh nucleus with
    ``make_nucleus(kernel)`` and keys it by the bus device in
    :attr:`nuclei`; its remove tears down that one nucleus and closes
    its XPC plumbing.
    """

    def __init__(self, name, driver_module, glue, make_nucleus, **kwargs):
        super().__init__(name, driver_module, _NucleusDriver(self, glue),
                         **kwargs)
        self.make_nucleus = make_nucleus
        self.nuclei = {}

    def probe(self, kernel, dev):
        nucleus = self.make_nucleus(kernel)
        ret = nucleus.probe(dev)
        if ret:
            _close(nucleus)
        else:
            self.nuclei[dev] = nucleus
        return ret

    def remove(self, kernel, dev):
        nucleus = self.nuclei.pop(dev)
        nucleus.remove(dev)
        _close(nucleus)


class _NucleusDriver:
    """The bus driver a decaf module registers."""

    def __init__(self, module, glue):
        self.name = glue.name
        self.matches = glue.matches
        self.probe = module.probe
        self.remove = module.remove


def _close(nucleus):
    if nucleus.plumbing is not None:
        nucleus.plumbing.close()
