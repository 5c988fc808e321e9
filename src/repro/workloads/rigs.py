"""Test rigs: kernel + device + driver, native or decaf.

A :class:`Rig` owns one simulated machine with one device and its
driver loaded.  ``decaf=True`` loads the split driver; ``decaf=False``
the legacy kernel-only driver.  The rig exposes the counters Table 3
needs: insmod latency and, for decaf rigs, the XPC crossing counts and
decaf-invocation counts.
"""

from ..devices import (
    E1000Device,
    Ens1371Device,
    EthernetLink,
    Ps2MouseDevice,
    Rtl8139Device,
    UhciDevice,
    UsbFlashDiskModel,
)
from ..kernel import make_kernel


def _install_health(kernel, health):
    """Install a HealthPlane when a builder is asked for one.

    ``health`` may be False (off), True (defaults), or a dict of
    HealthPlane keyword arguments (``dump_dir``, ``flight_capacity``,
    watchdog thresholds...).  Installed *before* the driver module is
    built so XPC channels self-register with the watchdog.
    """
    if not health:
        return None
    from ..health import HealthPlane

    kwargs = dict(health) if isinstance(health, dict) else {}
    return HealthPlane(kernel, **kwargs).install()


class Rig:
    def __init__(self, name, kernel, device, module, decaf, link=None,
                 extra=None):
        self.name = name
        self.kernel = kernel
        self.device = device
        self.module = module
        self.decaf = decaf
        self.link = link
        self.extra = extra or {}
        self.init_latency_ns = None
        self.supervisor = None
        self.injector = None

    def insmod(self):
        ret = self.kernel.modules.insmod(self.module)
        if ret != 0:
            raise RuntimeError("%s: insmod failed with %d" % (self.name, ret))
        self.init_latency_ns = self.kernel.modules.last_init_latency_ns
        return ret

    def rmmod(self, check_leaks=False):
        self.kernel.modules.rmmod(self.module.name, check_leaks=check_leaks)

    @property
    def xpc(self):
        if not self.decaf:
            return None
        return self.module.instance.plumbing.xpc

    def crossings(self):
        return self.xpc.kernel_user_crossings if self.xpc else 0

    def lang_crossings(self):
        return self.xpc.lang_crossings if self.xpc else 0

    def deferred_stats(self):
        """Deferred-notification counters (batched one-way crossings)."""
        if not self.xpc:
            return {"calls": 0, "coalesced": 0, "flushes": 0}
        return {
            "calls": self.xpc.deferred_calls,
            "coalesced": self.xpc.deferred_coalesced,
            "flushes": self.xpc.deferred_flushes,
        }

    def netdev(self):
        return self.kernel.net.find("eth0")

    @property
    def health(self):
        """The kernel's HealthPlane, or None (``health=`` builder arg)."""
        return self.kernel.health

    # -- fault isolation / supervised recovery (decaf rigs) -------------------

    @property
    def channel(self):
        if not self.decaf:
            return None
        return self.module.instance.plumbing.channel

    def supervise(self, max_recoveries=3):
        """Attach a DriverSupervisor to the loaded decaf driver."""
        if not self.decaf:
            raise RuntimeError("%s: only decaf rigs can be supervised"
                               % self.name)
        from ..recovery import DriverSupervisor

        self.supervisor = DriverSupervisor(
            self.kernel, self.module.instance,
            max_recoveries=max_recoveries,
        )
        return self.supervisor

    def inject_faults(self, plan):
        """Arm a FaultPlan against this rig; returns the injector."""
        from ..faults import FaultInjector

        self.injector = FaultInjector(self, plan)
        self.injector.arm()
        return self.injector

    def recovery_pending(self):
        sup = self.supervisor
        return bool(sup is not None and sup.recovery_pending())

    def fault_stats(self):
        """(faults fired, recoveries completed, kernel-side work lost)."""
        fired = self.injector.plan.fired if self.injector else 0
        sup = self.supervisor
        return (fired,
                sup.recoveries if sup else 0,
                sup.work_lost if sup else 0)


def make_8139too_rig(decaf=False, irq_mode="napi", nr_cpus=1,
                     rx_coalesce_ns=0, health=False):
    """``irq_mode="napi"`` (default) polls RX under a softirq budget;
    ``irq_mode="irq"`` keeps the seed per-packet interrupt path.
    ``rx_coalesce_ns`` opens the device's interrupt-coalescing window."""
    napi = irq_mode == "napi"
    kernel = make_kernel(nr_cpus=nr_cpus)
    _install_health(kernel, health)
    link = EthernetLink(kernel, bits_per_second=100_000_000, name="100M")
    nic = Rtl8139Device(kernel, link, rx_coalesce_ns=rx_coalesce_ns)
    kernel.pci.add_function(nic.pci)
    if decaf:
        from ..drivers.decaf import rtl8139_nucleus

        module = rtl8139_nucleus.make_module(napi=napi)
    else:
        from ..drivers.legacy import rtl8139

        module = rtl8139.make_module(napi=napi)
    return Rig("8139too", kernel, nic, module, decaf, link=link)


def make_e1000_rig(decaf=False, options=None, irq_mode="napi", nr_cpus=1,
                   num_queues=1, rx_pending_cap=256, health=False):
    """``irq_mode="napi"`` (default) polls RX under a softirq budget;
    ``irq_mode="irq"`` keeps the seed per-packet interrupt path and
    disables the device's ITR window so every cause fires an IRQ.
    ``num_queues`` > 1 enables the multi-queue datapath: the device
    RSS-steers flows across that many RX/TX queue pairs, and the driver
    runs one NAPI context per queue, spread across the ``nr_cpus``
    virtual CPUs by per-vector IRQ affinity."""
    napi = irq_mode == "napi"
    kernel = make_kernel(nr_cpus=nr_cpus)
    _install_health(kernel, health)
    link = EthernetLink(kernel, bits_per_second=1_000_000_000, name="1G")
    nic = E1000Device(kernel, link,
                      itr_window_ns=None if napi else 0,
                      num_queues=num_queues,
                      rx_pending_cap=rx_pending_cap)
    kernel.pci.add_function(nic.pci)
    if decaf:
        from ..drivers.decaf import e1000_nucleus

        module = e1000_nucleus.make_module(options=options, napi=napi,
                                           num_queues=num_queues)
    else:
        from ..drivers.legacy import e1000_main

        module = e1000_main.make_module(napi=napi, num_queues=num_queues)
    return Rig("e1000", kernel, nic, module, decaf, link=link)


def make_ens1371_rig(decaf=False, nr_cpus=1, health=False):
    # The decaf sound driver requires the mutex-based sound library
    # (paper section 3.1.3); the native driver runs on the stock one.
    kernel = make_kernel(sound_use_mutex=decaf, nr_cpus=nr_cpus)
    _install_health(kernel, health)
    card = Ens1371Device(kernel)
    kernel.pci.add_function(card.pci)
    if decaf:
        from ..drivers.decaf import ens1371_nucleus

        module = ens1371_nucleus.make_module()
    else:
        from ..drivers.legacy import ens1371

        module = ens1371.make_module()
    return Rig("ens1371", kernel, card, module, decaf)


def make_uhci_rig(decaf=False, nr_cpus=1, health=False):
    kernel = make_kernel(nr_cpus=nr_cpus)
    _install_health(kernel, health)
    controller = UhciDevice(kernel)
    disk = UsbFlashDiskModel()
    controller.attach(0, disk)
    kernel.pci.add_function(controller.pci)
    hook = lambda port: disk if port == 0 else None  # noqa: E731
    if decaf:
        from ..drivers.decaf import uhci_nucleus

        module = uhci_nucleus.make_module(device_model_hook=hook)
    else:
        from ..drivers.legacy import uhci_hcd

        module = uhci_hcd.make_module(device_model_hook=hook)
    return Rig("uhci_hcd", kernel, controller, module, decaf,
               extra={"disk": disk})


def make_psmouse_rig(decaf=False, nr_cpus=1, health=False):
    kernel = make_kernel(nr_cpus=nr_cpus)
    _install_health(kernel, health)
    port = kernel.input.new_serio_port()
    mouse = Ps2MouseDevice(kernel)
    mouse.attach(port)
    if decaf:
        from ..drivers.decaf import psmouse_nucleus

        module = psmouse_nucleus.make_module()
    else:
        from ..drivers.legacy import psmouse

        module = psmouse.make_module()
    return Rig("psmouse", kernel, mouse, module, decaf,
               extra={"port": port})
