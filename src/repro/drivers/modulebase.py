"""Module glue shared by legacy and decaf drivers.

A :class:`LegacyDriverModule` binds one legacy driver source module (its
``linux`` global, its PCI glue) into a loadable :class:`KernelModule`.
Decaf drivers use :class:`DecafDriverModule`, which additionally owns
the XPC plumbing and the decaf runtime startup.

One driver source module serves every device it drives, so any number
of loaded instances may bind the same module.  Per-device state lives
on the device: each legacy driver's ``*_state`` object holds the
members of the C private struct that never cross the split (locks,
timers, NAPI contexts, DMA regions).  Probe creates one per device and
hangs it off the device's marshaled struct as ``<struct>._kstate`` --
an underscore attribute, so it is neither marshaled nor dirty-tracked,
and DriverSlicer's field analysis never sees it.  Entry points reach
the struct the way the C driver does (``netdev.priv``,
``pdev.driver_data``, ``serio.drvdata``, the irq ``dev_id``, the pcm's
and the hcd's private data); each nucleus holds its own device's object
as ``self.state``.  Module parameters stay module globals.  ``linux`` is
a module's only global tied to a kernel; the last instance on that
kernel to unload clears it (:func:`unbind_linux`).
"""

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
    def __init__(self, name, driver_module, pci_glue=None,
                 init_fn=None, cleanup_fn=None, extra_modules=()):
        self.name = name
        self.bound_modules = (driver_module,) + tuple(extra_modules)
        self.pci_glue = pci_glue
        self.init_fn = init_fn
        self.cleanup_fn = cleanup_fn

    def init_module(self, kernel):
        linux = LinuxApi(kernel)
        for module in self.bound_modules:
            module.linux = linux
        if self.init_fn is not None:
            ret = self.init_fn()
            if ret:
                return ret
        if self.pci_glue is not None:
            bound = kernel.pci.register_driver(self.pci_glue)
            if bound == 0:
                kernel.pci.unregister_driver(self.pci_glue)
                from ..kernel.errors import ENODEV

                return -ENODEV
        return 0

    def cleanup_module(self, kernel):
        if self.pci_glue is not None:
            kernel.pci.unregister_driver(self.pci_glue)
        if self.cleanup_fn is not None:
            self.cleanup_fn()
        unbind_linux(kernel, self.bound_modules)


class DecafDriverModule(KernelModule):
    """A decaf driver: nucleus (kernel) + decaf driver (user, managed).

    ``setup(kernel)`` must return an object with ``pci_glue`` (optional),
    ``init()``/``cleanup()`` and ``bound_modules`` (the legacy modules
    whose ``linux`` it binds); it is built by the driver's nucleus
    module and wires XPC, the runtimes and the decaf-driver instance.
    """

    def __init__(self, name, setup):
        self.name = name
        self._setup = setup
        self.instance = None
        self.bound_modules = ()

    def init_module(self, kernel):
        self.instance = self._setup(kernel)
        self.bound_modules = self.instance.bound_modules
        ret = self.instance.init()
        if ret:
            self.instance = None
        return ret

    def cleanup_module(self, kernel):
        if self.instance is not None:
            self.instance.cleanup()
            plumbing = getattr(self.instance, "plumbing", None)
            if plumbing is not None:
                plumbing.close()
            self.instance = None
        unbind_linux(kernel, self.bound_modules)
