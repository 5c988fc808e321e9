"""Per-family device slots: device model + cloned driver + traffic.

A :class:`DeviceSlot` is one pluggable device under the fleet kernel:
the device model (with slot-unique IRQ line, I/O window and MAC), the
driver module built from the slot's private clone namespace
(:mod:`repro.fleet.isolate`), and a small traffic generator that keeps
the device busy between hotplug churn events.

Slots are duck-typed as rigs where it matters: the fault injector and
the recovery supervisor only need ``.kernel``, ``.name``, ``.decaf``
and ``.module.instance`` -- all of which a slot provides -- so the
whole :mod:`repro.faults` / :mod:`repro.recovery` stack applies
unchanged to every member of a 4096-device fleet.
"""

import struct as _struct

from ..devices import (
    E1000Device,
    Ens1371Device,
    EthernetLink,
    Ps2MouseDevice,
    Rtl8139Device,
    UhciDevice,
    UsbFlashDiskModel,
)
from ..drivers.legacy import e1000_ethtool, e1000_hw, e1000_param
from ..drivers.linuxapi import LinuxApi
from ..drivers.modulebase import LegacyDriverModule
from ..kernel import NETDEV_TX_OK, SkBuff
from ..kernel.module import KernelModule
from ..kernel.sound import SNDRV_PCM_TRIGGER_START, SNDRV_PCM_TRIGGER_STOP
from ..kernel.usb import usb_sndbulkpipe

# Slot resource carving.  The address space is simulated, so strides
# just need to clear the largest BAR (e1000's 0x20000 MMIO window).
PORT_BASE = 0x1_0000
PORT_STRIDE = 0x1000
MMIO_BASE = 0x1000_0000
MMIO_STRIDE = 0x10_0000


def slot_irq(index):
    """IRQ line for slot ``index`` (line 0 stays free for the kernel)."""
    return index + 1


def slot_port_base(index):
    return PORT_BASE + index * PORT_STRIDE


def slot_mmio_base(index):
    return MMIO_BASE + index * MMIO_STRIDE


def slot_mac(index, family_code):
    """Locally administered, unique per (family, slot index)."""
    return bytes((0x02, family_code, (index >> 16) & 0xFF,
                  (index >> 8) & 0xFF, index & 0xFF, 0x01))


class SlotPciGlue:
    """Identity filter in front of a driver's PCI glue.

    ``PciBus.register_driver`` probes *every* unbound function the ID
    table matches; with N identical NICs on the bus, slot 7's driver
    would otherwise claim slot 3's silicon.  Real kernels do not have
    this problem (one driver serves all instances); the fleet's
    driver-per-slot cloning reintroduces it, so each slot's glue binds
    exactly its own function.
    """

    def __init__(self, inner, pci_func):
        self._inner = inner
        self._func = pci_func
        self.name = getattr(inner, "name", "slot-glue")
        self.id_table = getattr(inner, "id_table", ())

    def matches(self, func):
        return func is self._func and self._inner.matches(func)

    def probe(self, kernel, func):
        return self._inner.probe(kernel, func)

    def remove(self, kernel, func):
        return self._inner.remove(kernel, func)


class DeviceSlot:
    """One device + driver instance under the fleet kernel."""

    family = None

    def __init__(self, index, decaf=False):
        self.index = index
        self.decaf = bool(decaf)
        self.name = "%s%s.%d" % (self.family,
                                 "+decaf" if decaf else "", index)
        self.kernel = None
        self.clones = None
        self.device = None
        self.module = None
        self.supervisor = None
        self.injector = None
        self.bound = False
        self.probes = 0
        self.init_latency_ns = None
        self.traffic_units = 0   # packets / blocks / chunks / samples moved
        self.traffic_lost = 0    # units refused (queue stopped, recovery)
        self.outage_samples = []  # harvested from detached supervisors
        self.recoveries = 0       # harvested from detached supervisors

    # -- rig duck-typing (FaultInjector, workload helpers) --------------------

    @property
    def channel(self):
        if not self.decaf or self.module is None:
            return None
        instance = getattr(self.module, "instance", None)
        if instance is None:
            return None
        return instance.plumbing.channel

    def recovery_pending(self):
        sup = self.supervisor
        return bool(sup is not None and sup.recovery_pending())

    def fault_stats(self):
        fired = self.injector.plan.fired if self.injector else 0
        sup = self.supervisor
        return (fired,
                sup.recoveries if sup else 0,
                sup.work_lost if sup else 0)

    # -- lifecycle ------------------------------------------------------------

    def attach(self, kernel, clones):
        """Plug the hardware in and build the driver module (once)."""
        self.kernel = kernel
        self.clones = clones
        self._attach_device()
        self.module = self._build_module()

    def probe(self, max_recoveries=1000):
        """insmod the slot's driver and start its traffic endpoint."""
        if self.bound:
            return 0
        self._on_probing()
        ret = self.kernel.modules.insmod(self.module)
        if ret != 0:
            raise RuntimeError("%s: insmod failed with %d"
                               % (self.name, ret))
        self.init_latency_ns = self.kernel.modules.last_init_latency_ns
        self.probes += 1
        self.bound = True
        if self.decaf:
            from ..recovery import DriverSupervisor

            self.supervisor = DriverSupervisor(
                self.kernel, self.module.instance,
                max_recoveries=max_recoveries,
            )
        self._on_probed()
        return 0

    def remove(self):
        """Stop traffic, detach supervision, rmmod."""
        if not self.bound:
            return
        if self.injector is not None:
            self.injector.disarm()
            self.injector = None
        # A slot churned away mid-recovery must be made healthy first:
        # tearing down a FAILED channel would surface the contained
        # fault from the cleanup upcalls.
        sup = self.supervisor
        if (sup is not None and self.channel is not None
                and self.channel.failed and not sup.gave_up):
            sup.recover()
        self._on_removing()
        if sup is not None:
            self.outage_samples.extend(sup.outage_samples)
            self.recoveries += sup.recoveries
            sup.detach()
            self.supervisor = None
        # Leak accounting is fleet-global (owners are DRV_NAMEs shared
        # by every slot of a family); the harness asserts the global
        # allocation delta instead.
        self.kernel.modules.rmmod(self.module.name, check_leaks=False)
        self.bound = False

    def inject_faults(self, plan):
        from ..faults import FaultInjector

        if self.injector is not None:
            self.injector.disarm()
        self.injector = FaultInjector(self, plan)
        self.injector.arm()
        return self.injector

    def harvest_outages(self):
        samples = list(self.outage_samples)
        if self.supervisor is not None:
            samples.extend(self.supervisor.outage_samples)
        return samples

    def recoveries_total(self):
        live = self.supervisor.recoveries if self.supervisor else 0
        return self.recoveries + live

    def tick(self, units=2):
        """Move a little traffic; returns units actually moved."""
        raise NotImplementedError

    def poke(self):
        """Force one control-plane op that crosses the XPC boundary.

        The decaf datapaths are engineered to avoid crossings, so an
        armed ``xpc_raise`` fault could wait indefinitely for traffic
        alone; the harness pokes the slot right after arming to give
        the fault a deterministic crossing to strike.  No-op on legacy
        slots (no boundary) and unbound slots.
        """
        return None

    # -- per-family hooks ------------------------------------------------------

    def _attach_device(self):
        raise NotImplementedError

    def _build_module(self):
        raise NotImplementedError

    def _on_probing(self):
        pass

    def _on_probed(self):
        pass

    def _on_removing(self):
        pass

    # -- decaf module fitting -------------------------------------------------

    def _pin_decaf(self, mod):
        """Rename the module per-slot and fit its instance at setup time.

        ``DecafDriverModule`` builds its nucleus instance inside
        ``init_module``; wrapping ``_setup`` lets the slot adjust the
        fresh instance (bus glue, port hint) before ``init()`` runs.
        """
        mod.name = self.name
        orig_setup = mod._setup

        def setup(kernel):
            instance = orig_setup(kernel)
            self._fit_instance(instance)
            self._stretch_polls(instance)
            return instance

        mod._setup = setup
        return mod

    def _fit_instance(self, instance):
        instance.pci_glue = SlotPciGlue(instance.pci_glue, self.device.pci)

    # Periodic health polls (root-hub status, link watch, resync) each
    # cost a couple of XPC crossings.  One driver polling at 250ms is
    # noise; hundreds of them make crossings the whole fleet's virtual
    # time, so fleet slots stretch every nucleus poll period.
    _POLL_PERIOD_ATTRS = ("rh_poll_period_ns", "watchdog_period_ns",
                          "link_poll_period_ns", "resync_period_ns")
    POLL_STRETCH = 64

    def _stretch_polls(self, instance):
        for attr in self._POLL_PERIOD_ATTRS:
            period = getattr(instance, attr, None)
            if period is not None:
                setattr(instance, attr, period * self.POLL_STRETCH)


# -- network slots -------------------------------------------------------------


class _NicSlot(DeviceSlot):
    link_bps = 1_000_000_000
    payload_bytes = 256

    def _attach_device(self):
        self.link = EthernetLink(self.kernel, bits_per_second=self.link_bps,
                                 name="link-%s" % self.name)
        self.device = self._make_nic()
        self.kernel.pci.add_function(self.device.pci)
        self.netdev = None
        self._payload = bytes(self.payload_bytes)

    def _make_nic(self):
        raise NotImplementedError

    def _on_probing(self):
        self._devs_before = {id(d) for d in self.kernel.net.devices}

    def _on_probed(self):
        new = [d for d in self.kernel.net.devices
               if id(d) not in self._devs_before]
        if len(new) != 1:
            raise RuntimeError("%s: probe registered %d netdevs"
                               % (self.name, len(new)))
        self.netdev = new[0]
        ret = self.kernel.net.dev_open(self.netdev)
        if ret != 0:
            raise RuntimeError("%s: dev_open failed: %d" % (self.name, ret))

    def _on_removing(self):
        if self.netdev is not None:
            self.kernel.net.dev_close(self.netdev)
            self.netdev = None

    def tick(self, units=2):
        dev = self.netdev
        if dev is None:
            return 0
        moved = 0
        net = self.kernel.net
        if dev.netif_carrier_ok():
            for _ in range(units):
                if dev.netif_queue_stopped():
                    self.traffic_lost += 1
                    break
                if net.dev_queue_xmit(dev, SkBuff(self._payload)) \
                        == NETDEV_TX_OK:
                    moved += 1
                else:
                    self.traffic_lost += 1
                    break
        for _ in range(units):
            self.link.inject(self._payload)
        moved += units
        self.traffic_units += moved
        return moved


class E1000Slot(_NicSlot):
    family = "e1000"
    link_bps = 1_000_000_000

    def poke(self):
        if self.decaf and self.bound and self.netdev is not None:
            self.netdev.set_multicast_list(self.netdev)

    def _make_nic(self):
        return E1000Device(
            self.kernel, self.link,
            mac=slot_mac(self.index, 0xE1),
            irq=slot_irq(self.index),
            mmio_base=slot_mmio_base(self.index),
        )

    def _build_module(self):
        clone = self.clones["repro.drivers.legacy.e1000_main"]
        if self.decaf:
            nucleus = self.clones["repro.drivers.decaf.e1000_nucleus"]
            return self._pin_decaf(nucleus.make_module(napi=True,
                                                       num_queues=1))

        def init_fn():
            clone.set_napi_mode(True)
            clone.set_num_queues(1)
            return clone.e1000_init_module()

        # The hw/param/ethtool helpers are stateless and shared by all
        # slots; only the stateful main module is the slot's clone.
        return LegacyDriverModule(
            name=self.name,
            driver_module=clone,
            extra_modules=(e1000_hw, e1000_param, e1000_ethtool),
            pci_glue=SlotPciGlue(clone.E1000PciGlue(), self.device.pci),
            init_fn=init_fn,
            cleanup_fn=clone.e1000_exit_module,
        )


class Rtl8139Slot(_NicSlot):
    family = "rtl8139"
    link_bps = 100_000_000

    def poke(self):
        if self.decaf and self.bound and self.netdev is not None:
            # Reprogramming the current MAC is an upcall with no
            # observable state change.
            self.netdev.set_mac_address(self.netdev, self.netdev.dev_addr)

    def _make_nic(self):
        return Rtl8139Device(
            self.kernel, self.link,
            mac=slot_mac(self.index, 0x81),
            irq=slot_irq(self.index),
            io_base=slot_port_base(self.index),
        )

    def _build_module(self):
        clone = self.clones["repro.drivers.legacy.rtl8139"]
        if self.decaf:
            nucleus = self.clones["repro.drivers.decaf.rtl8139_nucleus"]
            return self._pin_decaf(nucleus.make_module(napi=True))

        def init_fn():
            clone.set_napi_mode(True)
            return clone.rtl8139_init_module()

        return LegacyDriverModule(
            name=self.name,
            driver_module=clone,
            pci_glue=SlotPciGlue(clone.Rtl8139PciGlue(), self.device.pci),
            init_fn=init_fn,
            cleanup_fn=clone.rtl8139_cleanup_module,
        )


# -- USB slot -------------------------------------------------------------------


class UhciSlot(DeviceSlot):
    family = "uhci"
    BLOCK = 512
    blocks_per_tick = 2

    def _attach_device(self):
        self.device = UhciDevice(self.kernel, irq=slot_irq(self.index),
                                 io_base=slot_port_base(self.index))
        self.disk = UsbFlashDiskModel()
        self.device.attach(0, self.disk)
        self.kernel.pci.add_function(self.device.pci)
        self.disk_dev = None
        self._pipe = None
        self._lba = 0

    def _hook(self, port):
        return self.disk if port == 0 else None

    def _build_module(self):
        clone = self.clones["repro.drivers.legacy.uhci_hcd"]
        if self.decaf:
            nucleus = self.clones["repro.drivers.decaf.uhci_nucleus"]
            return self._pin_decaf(
                nucleus.make_module(device_model_hook=self._hook))
        # The hook is a post-construction attribute on _state, so the
        # loader's per-insmod ``_state.__init__()`` reset preserves it.
        clone._state.device_model_hook = self._hook
        return LegacyDriverModule(
            name=self.name,
            driver_module=clone,
            pci_glue=SlotPciGlue(clone.UhciPciGlue(), self.device.pci),
            init_fn=clone.uhci_hcd_init,
            cleanup_fn=clone.uhci_hcd_cleanup,
        )

    def _on_probing(self):
        self._usb_before = {id(d) for d in self.kernel.usb.devices}

    def _on_probed(self):
        new = [d for d in self.kernel.usb.devices
               if id(d) not in self._usb_before]
        if len(new) != 1:
            raise RuntimeError("%s: probe enumerated %d USB devices"
                               % (self.name, len(new)))
        self.disk_dev = new[0]
        self._pipe = usb_sndbulkpipe(self.disk_dev, 2)

    def _on_removing(self):
        self.disk_dev = None
        self._pipe = None

    def poke(self):
        if self.decaf and self.bound:
            # One root-hub status poll (normally timer-driven).
            self.module.instance._rh_poll_work(None)

    def tick(self, units=1):
        if self.disk_dev is None:
            return 0
        moved = 0
        for _ in range(units):
            blocks = self.blocks_per_tick
            payload = bytes(blocks * self.BLOCK)
            cmd = _struct.pack("<BBHI", 1, 0, blocks, self._lba) + payload
            status, _n = self.kernel.usb.usb_bulk_msg(
                self.disk_dev, self._pipe, cmd, timeout_ms=30_000)
            if status != 0:
                self.traffic_lost += 1
                break
            self._lba = (self._lba + blocks) % self.disk.capacity_blocks
            moved += blocks
        self.traffic_units += moved
        return moved


# -- sound slot -----------------------------------------------------------------


class Ens1371Slot(DeviceSlot):
    family = "ens1371"
    PERIOD_BYTES = 4096
    PERIODS = 4

    def _attach_device(self):
        self.device = Ens1371Device(self.kernel, irq=slot_irq(self.index),
                                    io_base=slot_port_base(self.index))
        self.kernel.pci.add_function(self.device.pci)
        self.substream = None

    def _build_module(self):
        if self.decaf:
            nucleus = self.clones["repro.drivers.decaf.ens1371_nucleus"]
            return self._pin_decaf(nucleus.make_module())
        clone = self.clones["repro.drivers.legacy.ens1371"]
        return LegacyDriverModule(
            name=self.name,
            driver_module=clone,
            pci_glue=SlotPciGlue(clone.Ens1371PciGlue(), self.device.pci),
            init_fn=clone.alsa_card_ens1371_init,
            cleanup_fn=clone.alsa_card_ens1371_exit,
        )

    def _on_probing(self):
        self._cards_before = {id(c) for c in self.kernel.sound.cards}

    def _on_probed(self):
        new = [c for c in self.kernel.sound.cards
               if id(c) not in self._cards_before]
        if len(new) != 1:
            raise RuntimeError("%s: probe registered %d sound cards"
                               % (self.name, len(new)))
        sound = self.kernel.sound
        substream = new[0].pcms[0].playback
        for step, ret in (
            ("open", sound.pcm_open(substream)),
            ("hw_params", sound.pcm_hw_params(
                substream, 44_100, 2, 2, self.PERIOD_BYTES, self.PERIODS)),
            ("prepare", sound.pcm_prepare(substream)),
        ):
            if ret != 0:
                raise RuntimeError("%s: pcm %s failed: %d"
                                   % (self.name, step, ret))
        self.substream = substream
        # Playback starts lazily on the first tick: a freshly probed
        # card that started streaming immediately would fire period
        # interrupts all through the *rest of the fleet's* probes,
        # making build time quadratic in N.
        self._playing = False

    def _on_removing(self):
        if self.substream is not None:
            sound = self.kernel.sound
            if self._playing:
                sound.pcm_trigger(self.substream, SNDRV_PCM_TRIGGER_STOP)
                self._playing = False
            sound.pcm_close(self.substream)
            self.substream = None

    def poke(self):
        if (self.decaf and self.bound and self.substream is not None
                and self._playing):
            # Trigger stop/start is two upcalls through stub_trigger.
            sound = self.kernel.sound
            sound.pcm_trigger(self.substream, SNDRV_PCM_TRIGGER_STOP)
            sound.pcm_trigger(self.substream, SNDRV_PCM_TRIGGER_START)

    def tick(self, units=1):
        substream = self.substream
        if substream is None:
            return 0
        if not self._playing:
            ret = self.kernel.sound.pcm_trigger(substream,
                                                SNDRV_PCM_TRIGGER_START)
            if ret != 0:
                self.traffic_lost += 1
                return 0
            self._playing = True
        moved = 0
        for _ in range(units):
            # Only write into free ring space: the fleet tick must not
            # block this slot at the card's real-time drain pace.
            free = substream.runtime.bytes_free()
            if free < self.PERIOD_BYTES:
                break
            accepted = self.kernel.sound.pcm_write(substream,
                                                   self.PERIOD_BYTES)
            if accepted <= 0:
                self.traffic_lost += 1
                break
            moved += 1
        self.traffic_units += moved
        return moved


# -- mouse slot -----------------------------------------------------------------


class _PsmouseCloneModule(KernelModule):
    """Loadable wrapper for a psmouse clone bound to one serio port.

    The stock ``psmouse.make_module`` resolves its module through
    ``sys.modules`` (which holds the original, not the clone) and
    always binds the first serio port, so the fleet builds its own.
    """

    def __init__(self, name, clone, port):
        self.name = name
        self.clone = clone
        self.glue = clone.PsmouseSerioGlue(port=port)

    def init_module(self, kernel):
        self.clone.linux = LinuxApi(kernel)
        self.clone._state.__init__()  # fresh driver-global state per load
        ret = self.clone.psmouse_init()
        if ret:
            return ret
        return self.glue.connect(kernel)

    def cleanup_module(self, kernel):
        self.glue.disconnect()
        self.clone.psmouse_exit()


class PsmouseSlot(DeviceSlot):
    family = "psmouse"
    samples_per_tick = 2

    def _attach_device(self):
        self.port = self.kernel.input.new_serio_port(
            name="serio-%d" % self.index)
        self.device = Ps2MouseDevice(self.kernel)
        self.device.attach(self.port)
        self.input_dev = None
        self.input_events = 0

    def _build_module(self):
        if self.decaf:
            nucleus = self.clones["repro.drivers.decaf.psmouse_nucleus"]
            return self._pin_decaf(nucleus.make_module())
        clone = self.clones["repro.drivers.legacy.psmouse"]
        return _PsmouseCloneModule(self.name, clone, self.port)

    def _fit_instance(self, instance):
        instance.port_hint = self.port

    def _on_probing(self):
        self._input_before = {id(d) for d in self.kernel.input.devices}

    def _on_probed(self):
        new = [d for d in self.kernel.input.devices
               if id(d) not in self._input_before]
        if len(new) != 1:
            raise RuntimeError("%s: probe registered %d input devices"
                               % (self.name, len(new)))
        self.input_dev = new[0]
        self.input_dev.sink = self._sink

    def _sink(self, events):
        self.input_events += len(events)

    def _on_removing(self):
        if self.input_dev is not None:
            self.input_dev.sink = None
            self.input_dev = None

    def poke(self):
        if self.decaf and self.bound:
            # One resync check (normally a 1 Hz supervised-only timer).
            self.module.instance._resync_work(None)

    def tick(self, units=2):
        if not self.bound:
            return 0
        moved = 0
        for i in range(units * self.samples_per_tick):
            if self.device.move(3, -1, buttons=i & 1):
                moved += 1
            else:
                self.traffic_lost += 1
        self.traffic_units += moved
        return moved


FAMILIES = {
    "e1000": E1000Slot,
    "rtl8139": Rtl8139Slot,
    "uhci": UhciSlot,
    "ens1371": Ens1371Slot,
    "psmouse": PsmouseSlot,
}
