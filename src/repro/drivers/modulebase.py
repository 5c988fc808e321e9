"""Module glue shared by legacy and decaf drivers.

A driver loads once, as one :class:`KernelModule`, and serves every
device it matches, the way a Linux module does: init binds the driver
source's ``linux`` global, runs the driver's init function and
registers one bus driver (a ``pci_driver``, or a serio driver for
psmouse).  The bus probes that driver against every device present and
every device plugged in later, and unplugging a device removes only
that device.  :class:`LegacyDriverModule` registers the legacy
driver's own glue.  :class:`DecafDriverModule` is derived from the
legacy driver's own module object (its ``make_module(...)``): the same
name, source modules, parameters, init and cleanup functions and bus,
registering a driver with the same name and ID table whose probe
builds one nucleus (:class:`repro.drivers.decaf.plumbing.Nucleus`) --
with its own XPC channel and decaf runtime -- per device.

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

import copy

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
        ret = self._init()
        if ret:
            return ret
        bus = getattr(kernel, self.bus)
        if bus.register_driver(self.driver, owner=self.name) == 0:
            # A registration that binds no device fails the load.
            bus.unregister_driver(self.driver)
            return -ENODEV
        return 0

    def _init(self):
        return self.init_fn() if self.init_fn is not None else 0

    def cleanup_module(self, kernel):
        getattr(kernel, self.bus).unregister_driver(self.driver)
        if self.cleanup_fn is not None:
            self.cleanup_fn()
        unbind_linux(kernel, self.bound_modules)


class DecafDriverModule(LegacyDriverModule):
    """A decaf driver, derived from its legacy driver's module: per
    device, a nucleus (kernel) and a decaf driver (user, managed).

    It keeps everything of the ``legacy`` module -- name, bound source
    modules, the init function that sets its parameters, the cleanup
    function, the bus -- but the bus driver it registers: a copy of the
    legacy glue (same name and ID table) whose probe builds a fresh
    ``nucleus_cls(kernel, options)`` per device, keyed by the bus device
    in :attr:`nuclei`, and whose remove removes that one nucleus.  The
    nucleus class's ``module_init`` runs after the legacy init.
    """

    def __init__(self, legacy, nucleus_cls, options=None):
        vars(self).update(vars(legacy))
        self.driver = copy.copy(legacy.driver)
        self.driver.probe = self.probe
        self.driver.remove = self.remove
        self.nucleus_cls = nucleus_cls
        self.options = options
        self.nuclei = {}

    def _init(self):
        return super()._init() or self.nucleus_cls.module_init()

    def probe(self, kernel, dev):
        nucleus = self.nucleus_cls(kernel, self.options)
        ret = nucleus.probe(dev)
        if ret == 0:
            self.nuclei[dev] = nucleus
        return ret

    def remove(self, kernel, dev):
        self.nuclei.pop(dev).remove(dev)
