"""Device families: each driver's glue, written once.

A :class:`DeviceFamily` is the only place that knows one driver's
device model and resources (defaults on a rig, slot-carved IRQ, ports,
MMIO and MAC in a fleet), how to plug the device into its bus, its
legacy and nucleus source modules and the map from rig options to
their ``make_module`` parameters, how to find and release the endpoint
probe registers, the fleet's ``tick``/``poke``, and the conformance
event vocabulary.  :data:`FAMILIES` maps the driver names Tables 2/3,
conformance and the slicer use to their family.

A :class:`DeviceInstance` is one device and its driver on one kernel:
probe, supervision, fault injection and remove.  A rig
(:meth:`DeviceFamily.rig`) is an instance on a fresh kernel that loads
its own module; a fleet slot (:class:`repro.fleet.slots.DeviceSlot`)
is one hot-plugged under a module the fleet loads once per family and
variant.
"""

import importlib

from .devices import (
    E1000Device,
    Ens1371Device,
    EthernetLink,
    Ps2MouseDevice,
    Rtl8139Device,
    UhciDevice,
    UsbFlashDiskModel,
)
from .devices.e1000 import (
    MAX_QUEUES,
    QUEUE_STRIDE,
    REG_ICR,
    REG_IMC,
    REG_IMS,
    REG_RDT,
    REG_TDT,
)
from .devices.ens1371 import REG_MEMPAGE, REG_SCTRL
from .devices.rtl8139 import IMR, ISR
from .kernel import NETDEV_TX_OK, SerioPort, SkBuff, make_kernel
from .kernel.sound import SNDRV_PCM_TRIGGER_START, SNDRV_PCM_TRIGGER_STOP
from .kernel.usb import usb_sndbulkpipe
from .kernel.vtime import NSEC_PER_MSEC

def _resources(slot, mac_code=None, mmio=False):
    """Device keyword arguments for fleet slot ``slot`` ({} on a rig).

    IRQ line 0 stays free for the kernel.  The address space is
    simulated, so window strides just clear the largest BAR (e1000's
    0x20000).  The MAC is locally administered, unique per family/slot.
    """
    if slot is None:
        return {}
    res = {"irq": slot + 1}
    if mmio:
        res["mmio_base"] = 0x1000_0000 + slot * 0x10_0000
    else:
        res["io_base"] = 0x1_0000 + slot * 0x1000
    if mac_code is not None:
        res["mac"] = bytes((0x02, mac_code, (slot >> 16) & 0xFF,
                            (slot >> 8) & 0xFF, slot & 0xFF, 0x01))
    return res


def _install_health(kernel, health):
    """``health``: False, True, or HealthPlane keyword arguments.

    The plane goes onto the bare kernel, before the device exists.  Its
    hooks (boundary faults, lockdep reports, supervisor registration)
    read ``kernel.health`` when they fire, so nothing built afterwards
    registers with it.
    """
    if health:
        from .health import HealthPlane

        kwargs = dict(health) if isinstance(health, dict) else {}
        HealthPlane(kernel, **kwargs).install()


def _frame(rng, size):
    """A deterministic pseudo-random Ethernet-ish payload."""
    return bytes(rng.randrange(256) for _ in range(size))


class DeviceInstance:
    """One device and its driver on one kernel, with the counters
    Table 3 needs: insmod latency and, for decaf drivers, crossings."""

    def __init__(self, family, decaf=False, name=None):
        self.family = family
        self.decaf = bool(decaf)
        self.name = name or family.key
        self.kernel = self.device = self.module = self.link = None
        self.bus_device = None    # the PCI function or serio port
        self.extra = {}
        self.endpoint = None
        self.supervisor = self.injector = None
        self.init_latency_ns = None
        self.bound = False
        self.probes = 0
        self.outage_samples = []  # harvested from detached supervisors

    def attach(self, kernel, slot=None, **options):
        """Plug the device into ``kernel`` and build its driver module."""
        self.kernel = kernel
        self.family.attach(self, slot, **options)
        self.family.plug(self)
        self.module = self.family.module(self.decaf, **options)
        return self

    # -- lifecycle ------------------------------------------------------------

    def insmod(self):
        """Load the driver; finds the endpoint its probe registered."""
        if self.bound:
            return 0
        before = self._endpoints()
        ret = self.kernel.modules.insmod(self.module)
        if ret != 0:
            raise RuntimeError("%s: insmod failed with %d" % (self.name, ret))
        self.init_latency_ns = self.kernel.modules.last_init_latency_ns
        self._bound(before)
        return ret

    def _endpoints(self):
        return {id(e) for e in self.family.endpoints(self.kernel)}

    def _bound(self, before):
        self.probes += 1
        self.bound = True
        new = [e for e in self.family.endpoints(self.kernel)
               if id(e) not in before]
        if len(new) == 1:
            self.endpoint = self.family.endpoint_of(new[0])

    def rmmod(self, check_leaks=False):
        """Remove the device's driver, then rmmod its module."""
        if not self.bound:
            return
        self._teardown()
        self.kernel.modules.rmmod(self.module.name, check_leaks=check_leaks)
        self.bound = False

    def _teardown(self):
        """Disarm faults, recover, release the endpoint, detach."""
        if self.injector is not None:
            self.injector.disarm()
        # A driver removed mid-recovery must be made healthy first:
        # tearing down a FAILED channel would surface the contained
        # fault from the cleanup upcalls.
        self.recover()
        sup = self.supervisor
        self.release()
        if sup is not None:
            self.outage_samples.extend(sup.outage_samples)
            sup.detach()
            self.supervisor = None

    def recover(self):
        """Finish a pending recovery now (no-op when healthy)."""
        sup, channel = self.supervisor, self.channel
        if (sup is not None and channel is not None and channel.failed
                and not sup.gave_up):
            sup.recover()

    def release(self):
        self.endpoint = None

    # -- counters -------------------------------------------------------------

    @property
    def nucleus(self):
        """This device's decaf nucleus (None when legacy or unbound)."""
        nuclei = getattr(self.module, "nuclei", None)
        return None if nuclei is None else nuclei.get(self.bus_device)

    @property
    def channel(self):
        nucleus = self.nucleus
        return None if nucleus is None else nucleus.plumbing.channel

    @property
    def xpc(self):
        channel = self.channel
        return None if channel is None else channel.xpc

    def crossings(self):
        return self.xpc.kernel_user_crossings if self.xpc else 0

    def lang_crossings(self):
        return self.xpc.lang_crossings if self.xpc else 0

    def netdev(self):
        """This NIC's registered network device, found the way its
        driver finds it (``pdev.driver_data``), so a bare
        ``kernel.modules.insmod`` of the module finds it too."""
        dev = getattr(self.bus_device, "driver_data", None)
        return dev if dev in self.kernel.net.devices else None

    # -- fault isolation / supervised recovery (decaf drivers) ----------------

    def supervise(self, max_recoveries=3):
        """Attach a DriverSupervisor to the loaded decaf driver."""
        if not self.decaf:
            raise RuntimeError("%s: only decaf rigs can be supervised"
                               % self.name)
        from .recovery import DriverSupervisor

        self.supervisor = DriverSupervisor(
            self.kernel, self.nucleus, max_recoveries=max_recoveries)
        return self.supervisor

    def inject_faults(self, plan):
        """Arm a FaultPlan against this driver; returns the injector."""
        from .faults import FaultInjector

        if self.injector is not None:
            self.injector.disarm()
        self.injector = FaultInjector(self, plan)
        self.injector.arm()
        return self.injector

    def recovery_pending(self):
        sup = self.supervisor
        return bool(sup is not None and sup.recovery_pending())

    def harvest_outages(self):
        samples = list(self.outage_samples)
        if self.supervisor is not None:
            samples.extend(self.supervisor.outage_samples)
        return samples

    def fault_stats(self):
        """(faults fired, recoveries completed, kernel-side work lost).

        The last two are the rig kernel's kstat, which keeps what a
        detached supervisor counted."""
        fired = self.injector.plan.fired if self.injector else 0
        counts = self.kernel.kstat.snapshot()
        return (fired, counts.get("recovery.recoveries", 0),
                counts.get("recovery.work_lost", 0))


class DeviceFamily:
    """One driver's glue.  Subclasses fill in the per-family parts."""

    key = None          # driver name: Tables 2/3, conformance, slicer
    legacy = None       # dotted name of the legacy driver module
    nucleus = None      # dotted name of the decaf nucleus module
    tick_units = 1      # fleet traffic units per tick
    # Conformance: strict-mode register trace comparison ("full" or
    # per-register write "footprint"), and the range of N for "fire
    # xpc_raise on the Nth post-arming crossing", calibrated against
    # the driver's minimum post-arming crossing budget across seeds
    # 0-24 so the fault always lands inside the scenario.
    reg_trace = "footprint"
    xpc_at = None
    explore_gap_ms = 3  # explorer inter-event spacing
    # The "footprint" comparison: register offset -> how its write
    # sequence is reduced ("distinct", "acked" or "last"; see
    # repro.conformance.runner.write_footprint).  Registers not named
    # here keep their full write sequence.
    footprint = {}

    def rig(self, decaf=False, nr_cpus=1, health=False, **options):
        """This family's device and driver on a fresh kernel."""
        kernel = make_kernel(nr_cpus=nr_cpus, **self.kernel_options(decaf))
        _install_health(kernel, health)
        return DeviceInstance(self, decaf).attach(kernel, **options)

    def kernel_options(self, decaf):
        return {}

    def smp_options(self, smp):
        """Rig options the conformance runner adds on ``smp`` CPUs."""
        return {}

    # -- the bus and the loadable module --------------------------------------

    def plug(self, inst):
        """Hot-plug the device; a loaded driver that matches probes it."""
        inst.kernel.pci.add_function(inst.bus_device)

    def unplug(self, inst):
        """Hot-unplug the device; its driver's remove runs first."""
        inst.kernel.pci.remove_function(inst.bus_device)

    def module(self, decaf, **options):
        """A loadable module of the variant: its own ``make_module``."""
        source = importlib.import_module(self.nucleus if decaf
                                         else self.legacy)
        return source.make_module(**self.module_params(decaf, **options))

    def module_params(self, decaf, **options):
        """Rig options -> ``make_module`` parameters."""
        return {}

    # -- endpoint -------------------------------------------------------------

    def endpoint_of(self, registered):
        return registered

    def open(self, inst):
        """Start the endpoint for fleet traffic (after probe)."""

    def close(self, inst):
        """Undo :meth:`open` (before remove)."""

    def poke(self, inst):
        """Force one control-plane op that crosses the XPC boundary.

        The decaf datapaths are engineered to avoid crossings, so an
        armed ``xpc_raise`` fault could wait indefinitely for traffic
        alone; the fleet pokes a slot right after arming to give the
        fault a deterministic crossing to strike.  No-op on legacy and
        unbound instances.
        """

    # -- conformance ----------------------------------------------------------

    def payload_items(self, event):
        """Payload items ``event`` moves, for the linear crossing bound."""
        return 1

    def counter_bounds(self, scenario):
        """{counter: bound} for the observed counters that may differ
        between the variants by up to ``bound`` in strict mode; every
        other counter this family observes must be equal."""
        return {}


# -- network: e1000 / 8139too -------------------------------------------------


class _NicFamily(DeviceFamily):
    tick_units = 2
    link_bps = None
    PAYLOAD = bytes(256)

    def _attach_nic(self, inst, make, **kwargs):
        inst.link = EthernetLink(inst.kernel, bits_per_second=self.link_bps,
                                 name="link-%s" % inst.name)
        inst.device = make(inst.kernel, inst.link, **kwargs)
        inst.bus_device = inst.device.pci

    def endpoints(self, kernel):
        return kernel.net.devices

    def open(self, inst):
        ret = inst.kernel.net.dev_open(inst.endpoint)
        if ret != 0:
            raise RuntimeError("%s: dev_open failed with %d"
                               % (inst.name, ret))

    def close(self, inst):
        inst.kernel.net.dev_close(inst.endpoint)

    def tick(self, inst, units):
        dev = inst.endpoint
        if dev is None:
            return 0
        moved = 0
        net = inst.kernel.net
        if dev.netif_carrier_ok():
            for _ in range(units):
                if dev.netif_queue_stopped():
                    inst.traffic_lost += 1
                    break
                if net.dev_queue_xmit(dev, SkBuff(self.PAYLOAD)) \
                        == NETDEV_TX_OK:
                    moved += 1
                else:
                    inst.traffic_lost += 1
                    break
        for _ in range(units):
            inst.link.inject(self.PAYLOAD)
        moved += units
        inst.traffic_units += moved
        return moved

    # -- conformance ----------------------------------------------------------

    def generate(self, rng, mode):
        events = []
        t = 0
        for _ in range(rng.randrange(6, 13)):
            t += rng.randrange(1, 6) * NSEC_PER_MSEC
            kind = rng.choice(
                ("tx_burst", "tx_burst", "rx_burst", "rx_burst",
                 "irq_storm", "config_mac", "set_multi", "config_mtu",
                 "ifdown_up"))
            if kind == "config_mtu" and self.key != "e1000":
                kind = "set_multi"  # 8139too has no change_mtu op
            if kind in ("tx_burst", "rx_burst"):
                frames = [
                    _frame(rng, rng.randrange(60, 400)).hex()
                    for _ in range(rng.randrange(1, 9))
                ]
                events.append({"t": t, "kind": kind, "frames": frames})
            elif kind == "irq_storm":
                # Back-to-back minimum-size frames, injected with no
                # virtual-time gap: every arrival races the previous
                # interrupt's handling.
                events.append({
                    "t": t, "kind": "irq_storm",
                    "count": rng.randrange(12, 33),
                    "frame": _frame(rng, 60).hex(),
                })
            elif kind == "config_mac":
                mac = bytearray(rng.randrange(256) for _ in range(6))
                mac[0] = (mac[0] | 0x02) & 0xFE  # locally administered
                events.append({"t": t, "kind": "config_mac",
                               "addr": bytes(mac).hex()})
            elif kind == "config_mtu":
                events.append({"t": t, "kind": "config_mtu",
                               "mtu": rng.randrange(600, 1601)})
            elif kind == "set_multi":
                events.append({"t": t, "kind": "set_multi"})
            else:
                events.append({"t": t, "kind": "ifdown_up",
                               "down_ms": rng.randrange(1, 4)})
        return events

    def payload_items(self, event):
        kind = event["kind"]
        if kind in ("tx_burst", "rx_burst"):
            return len(event["frames"])
        if kind == "irq_storm":
            return event["count"]
        return 1

    def base_event(self, rng, k, t):
        """Datapath bursts (tx/rx share the device irq line) mixed with
        configuration ops (they cross the XPC channel but raise no
        interrupt), which is where order-level independence comes from."""
        kind = ("tx_burst", "rx_burst", "config_mac",
                "tx_burst", "rx_burst", "set_multi")[k % 6]
        if kind in ("tx_burst", "rx_burst"):
            frames = [_frame(rng, 60 + rng.randrange(0, 61)).hex()
                      for _ in range(2)]
            return {"t": t, "kind": kind, "frames": frames}
        if kind == "config_mac":
            mac = bytearray(rng.randrange(256) for _ in range(6))
            mac[0] = (mac[0] | 0x02) & 0xFE
            return {"t": t, "kind": "config_mac", "addr": bytes(mac).hex()}
        return {"t": t, "kind": "set_multi"}

    def setup(self, rig, obs, policy):
        from .conformance.observe import frame_digest

        rig.insmod()
        self.open(rig)
        dev = rig.endpoint
        net = rig.kernel.net
        rig.kernel.run_for_ms(policy.open_settle_ms)
        tx, rx = obs["tx"], obs["rx"]
        rig.link.peer_rx = lambda frame: tx.append(frame_digest(frame))
        state = {"dev": dev, "xmit": policy.xmit}
        num_queues = getattr(rig.device, "num_queues", 1)
        if num_queues > 1:
            # Multi-queue: the cross-queue interleave of deliveries is
            # timing-coupled (per-queue NAPI contexts on different CPUs
            # shift with crossing costs), so record the rx channel as
            # per-queue streams -- each stream must match exactly.
            steer = rig.device.steer
            buckets = {"q%d" % q: [] for q in range(num_queues)}

            def rx_sink(_dev, skb):
                data = skb.data
                buckets["q%d" % steer(data)].append(frame_digest(data))

            net.rx_sink = rx_sink
            state["rx_buckets"] = buckets
        else:
            net.rx_sink = (
                lambda _dev, skb: rx.append(frame_digest(skb.data)))
        return state

    def apply(self, rig, state, event, index, obs):
        dev = state["dev"]
        kernel = rig.kernel
        kind = event["kind"]
        ops = obs["ops"]
        if kind == "tx_burst":
            for frame in event["frames"]:
                ret = state["xmit"](kernel, dev, bytes.fromhex(frame))
                if ret != 0:
                    ops.append([index, "tx_burst", ret])
        elif kind == "rx_burst":
            for frame in event["frames"]:
                rig.link.inject(bytes.fromhex(frame))
            # Drain: when the replay schedule has slipped (slow config
            # ops overrun the event spacing), the next event can reset
            # the device microseconds after injection and wipe frames
            # still sitting unharvested in the rx ring -- a shutdown
            # race, not a driver difference.  A short run lets NAPI
            # harvest deterministically in both variants.
            kernel.run_for_ms(2)
        elif kind == "irq_storm":
            frame = bytes.fromhex(event["frame"])
            for _ in range(event["count"]):
                rig.link.inject(frame)
            kernel.run_for_ms(2)
        elif kind == "config_mac":
            # A missing op is an observation, not a crash: if only one
            # variant wires it, the ops channel diverges -- which is a
            # real conformance finding.
            if dev.set_mac_address is None:
                ops.append([index, "config_mac", "unsupported"])
            else:
                addr = bytes.fromhex(event["addr"])
                ops.append([index, "config_mac",
                            dev.set_mac_address(dev, addr)])
        elif kind == "config_mtu":
            if dev.change_mtu is None:
                ops.append([index, "config_mtu", "unsupported"])
            else:
                ops.append([index, "config_mtu",
                            dev.change_mtu(dev, event["mtu"])])
        elif kind == "set_multi":
            if dev.set_multicast_list is None:
                ops.append([index, "set_multi", "unsupported"])
            else:
                ret = dev.set_multicast_list(dev)
                ops.append([index, "set_multi", 0 if ret is None else ret])
        elif kind == "ifdown_up":
            # Quiesce first: frames already DMA'd into the rx ring but
            # not yet harvested by NAPI are discarded by dev_close in
            # both variants, and whether any are in flight at close
            # time depends on how far the replay schedule has slipped.
            # A short settle drains them so the comparison measures the
            # drivers, not the race between rx and shutdown.
            kernel.run_for_ms(2)
            kernel.net.dev_close(dev)
            kernel.run_for_ms(event["down_ms"])
            ret = kernel.net.dev_open(dev)
            ops.append([index, "ifdown_up", ret])
        else:
            raise ValueError("unknown net event %r" % kind)

    def observe(self, rig, state, obs):
        dev = state["dev"]
        if "rx_buckets" in state:
            obs["rx"] = state["rx_buckets"]
        rig.kernel.net.dev_close(dev)
        stats = dev.stats.snapshot()
        counters = obs["counters"]
        for key in ("tx_packets", "rx_packets", "tx_bytes", "rx_bytes"):
            counters[key] = stats[key]
        obs["sound"] = {}
        counters["mac"] = dev.dev_addr.hex()
        counters["mtu"] = dev.mtu


class E1000Family(_NicFamily):
    key = "e1000"
    legacy = "repro.drivers.legacy.e1000_main"
    nucleus = "repro.drivers.decaf.e1000_nucleus"
    link_bps = 1_000_000_000
    xpc_at = (2, 8)  # minimum post-arming budget 7
    # ICR/IMS/IMC write counts track NAPI poll and interrupt boundaries,
    # which shift legitimately with the virtual-time cost of XPC
    # crossings.  The RDT/TDT positions written depend on how rx/tx
    # work batches across poll boundaries, so only where each ring ended
    # up is compared.  Every queue's register block repeats at
    # QUEUE_STRIDE (queue 1's ICR is 0x1C0, its RDT 0x2918, ...).
    footprint = {reg + q * QUEUE_STRIDE: how
                 for how, regs in (("distinct", (REG_ICR, REG_IMS, REG_IMC)),
                                   ("last", (REG_RDT, REG_TDT)))
                 for reg in regs for q in range(MAX_QUEUES)}

    def attach(self, inst, slot=None, irq_mode="napi", num_queues=1,
               rx_pending_cap=256, **_):
        # irq mode disables the device's ITR window so every cause
        # fires an IRQ.
        self._attach_nic(inst, E1000Device,
                         itr_window_ns=None if irq_mode == "napi" else 0,
                         num_queues=num_queues,
                         rx_pending_cap=rx_pending_cap,
                         **_resources(slot, 0xE1, mmio=True))

    def smp_options(self, smp):
        return {"num_queues": min(smp, 4)}

    def module_params(self, decaf, irq_mode="napi", num_queues=1,
                      options=None, **_):
        params = {"napi": irq_mode == "napi", "num_queues": num_queues}
        if decaf:
            # insmod-time e1000_param options; the legacy driver probes
            # with its defaults.
            params["options"] = options
        return params

    def poke(self, inst):
        if inst.decaf and inst.bound and inst.endpoint is not None:
            inst.endpoint.set_multicast_list(inst.endpoint)


class Rtl8139Family(_NicFamily):
    key = "8139too"
    legacy = "repro.drivers.legacy.rtl8139"
    nucleus = "repro.drivers.decaf.rtl8139_nucleus"
    link_bps = 100_000_000
    # Only config ops cross: the link-watch period exceeds a scenario.
    xpc_at = (2, 5)  # minimum post-arming budget 4
    # IMR write counts track interrupt boundaries, which shift with
    # crossing costs.  ISR is write-1-to-clear and the handler acks
    # exactly the status bits it read, so when two device events
    # coalesce into one interrupt on one variant only, that variant
    # writes the union value (RxOK|TxOK = 5) which the other never does.
    # Acking {1, 4} across two interrupts and acking 5 across one clear
    # the same bits, so the set of bits ever acked is compared.
    # (Surfaced by repro.explore: reordering config_mac between tx/rx
    # bursts shifts decaf interrupt arrival.)
    footprint = {IMR: "distinct", ISR: "acked"}

    def attach(self, inst, slot=None, rx_coalesce_ns=0, **_):
        self._attach_nic(inst, Rtl8139Device, rx_coalesce_ns=rx_coalesce_ns,
                         **_resources(slot, 0x81))

    def module_params(self, decaf, irq_mode="napi", **_):
        return {"napi": irq_mode == "napi"}

    def poke(self, inst):
        dev = inst.endpoint
        if inst.decaf and inst.bound and dev is not None:
            # Reprogramming the current MAC is an upcall with no
            # observable state change.
            dev.set_mac_address(dev, dev.dev_addr)


# -- sound: ens1371 -----------------------------------------------------------


class Ens1371Family(DeviceFamily):
    key = "ens1371"
    legacy = "repro.drivers.legacy.ens1371"
    nucleus = "repro.drivers.decaf.ens1371_nucleus"
    xpc_at = (3, 15)  # minimum post-arming budget 14
    # MEM_PAGE is rewritten once per period-interrupt service and
    # SERIAL's P2_INTR_EN bit is toggled to ack each one, so their write
    # counts track the (bounded, phase-coupled) irq count.
    footprint = {REG_MEMPAGE: "distinct", REG_SCTRL: "distinct"}
    # The fleet's and mpg123's stream: 44.1 kHz stereo 16-bit PCM.
    RATE = 44_100
    CHANNELS = 2
    SAMPLE_BYTES = 2
    PERIOD_BYTES = 4096
    PERIODS = 4

    def kernel_options(self, decaf):
        # The decaf sound driver requires the mutex-based sound library
        # (paper section 3.1.3); the native driver runs on the stock one.
        return {"sound_use_mutex": decaf}

    def attach(self, inst, slot=None, **_):
        inst.device = Ens1371Device(inst.kernel, **_resources(slot))
        inst.bus_device = inst.device.pci

    def endpoints(self, kernel):
        return kernel.sound.cards

    def endpoint_of(self, card):
        return card.pcms[0].playback

    def pcm_setup(self, inst, rate, channels, sample_bytes, period_bytes,
                  periods):
        """Open, ``hw_params`` and prepare the playback substream; each
        step runs and its (name, return code) is returned."""
        sound = inst.kernel.sound
        substream = inst.endpoint
        return [
            ("open", sound.pcm_open(substream)),
            ("hw_params", sound.pcm_hw_params(
                substream, rate, channels, sample_bytes, period_bytes,
                periods)),
            ("prepare", sound.pcm_prepare(substream)),
        ]

    def open(self, inst):
        for step, ret in self.pcm_setup(
                inst, self.RATE, self.CHANNELS, self.SAMPLE_BYTES,
                self.PERIOD_BYTES, self.PERIODS):
            if ret != 0:
                raise RuntimeError("%s: pcm %s failed: %d"
                                   % (inst.name, step, ret))
        # Playback starts lazily on the first tick: a freshly probed
        # card that started streaming immediately would fire period
        # interrupts all through the *rest of the fleet's* probes,
        # making build time quadratic in N.
        inst.playing = False

    def start(self, inst):
        """Trigger playback of the opened substream; returns its errno."""
        ret = inst.kernel.sound.pcm_trigger(inst.endpoint,
                                            SNDRV_PCM_TRIGGER_START)
        inst.playing = ret == 0
        return ret

    def close(self, inst):
        sound = inst.kernel.sound
        if inst.playing:
            sound.pcm_trigger(inst.endpoint, SNDRV_PCM_TRIGGER_STOP)
            inst.playing = False
        sound.pcm_close(inst.endpoint)

    def poke(self, inst):
        if (inst.decaf and inst.bound and inst.endpoint is not None
                and inst.playing):
            # Trigger stop/start is two upcalls through the trigger op.
            sound = inst.kernel.sound
            sound.pcm_trigger(inst.endpoint, SNDRV_PCM_TRIGGER_STOP)
            sound.pcm_trigger(inst.endpoint, SNDRV_PCM_TRIGGER_START)

    def tick(self, inst, units):
        substream = inst.endpoint
        if substream is None:
            return 0
        if not inst.playing and self.start(inst) != 0:
            inst.traffic_lost += 1
            return 0
        sound = inst.kernel.sound
        moved = 0
        for _ in range(units):
            # Only write into free ring space: the fleet tick must not
            # block this slot at the card's real-time drain pace.
            if substream.runtime.bytes_free() < self.PERIOD_BYTES:
                break
            if sound.pcm_write(substream, self.PERIOD_BYTES) <= 0:
                inst.traffic_lost += 1
                break
            moved += 1
        inst.traffic_units += moved
        return moved

    # -- conformance ----------------------------------------------------------

    def generate(self, rng, mode):
        events = []
        t = 0
        for _ in range(rng.randrange(2, 5)):
            t += rng.randrange(1, 4) * NSEC_PER_MSEC
            rate = rng.choice((8000, 22050, 44100, 48000))
            events.append({
                "t": t,
                "kind": "pcm_cycle",
                "rate": rate,
                "channels": 2,
                "sample_bytes": 2,
                "period_frames": rng.choice((2048, 4096)),
                "periods": 4,
                "write_frames": rng.randrange(rate // 8, rate // 2),
            })
        return events

    def base_event(self, rng, k, t):
        rate = (8000, 22050, 44100)[k % 3]
        return {"t": t, "kind": "pcm_cycle", "rate": rate, "channels": 2,
                "sample_bytes": 2, "period_frames": 2048, "periods": 4,
                "write_frames": rate // 8}

    def payload_items(self, event):
        return (event["write_frames"] // event["period_frames"]
                + event["periods"])

    def counter_bounds(self, scenario):
        # pcmN_periods: periods_elapsed counts *serviced* period
        # interrupts, and hw_ptr advances from the pointer op (true
        # device position), so irqs coalesce: one serviced irq can cover
        # several consumed periods.  Coalescing depth is bounded by the
        # ring, so the variants may differ by up to its period count.
        bounds = {"pcm%d_periods" % index: event["periods"]
                  for index, event in enumerate(scenario.events)}
        # Each pcm cycle contributes up to two phase-coupled irqs: one
        # inside the blocking write and one in the window between the
        # periods read and the DAC2 disable reaching the device.
        bounds["device_irqs"] = 2 + 2 * len(scenario.events)
        return bounds

    def setup(self, rig, obs, policy):
        rig.insmod()
        return {"sound": rig.kernel.sound}

    def apply(self, rig, state, event, index, obs):
        sound = state["sound"]
        ss = rig.endpoint
        ops = obs["ops"]
        for step, ret in self.pcm_setup(
                rig, event["rate"], event["channels"], event["sample_bytes"],
                event["period_frames"], event["periods"]):
            ops.append([index, step, ret])
        ops.append([index, "trigger_start",
                    sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_START)])
        written = sound.pcm_write(ss, event["write_frames"])
        ops.append([index, "write", written])
        # periods_elapsed at write-return is phase-coupled: pcm_write
        # waits in period-sized quanta while the DAC's period clock
        # started at trigger time, so the decaf variant's crossing
        # costs can shift one period boundary into (or out of) the
        # blocking write.  Compared per-cycle with a bound rather than
        # strictly, like device_irqs (see counter_bounds).
        obs["counters"]["pcm%d_periods" % index] = ss.runtime.periods_elapsed
        ops.append([index, "trigger_stop",
                    sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_STOP)])
        ops.append([index, "close", sound.pcm_close(ss)])

    def observe(self, rig, state, obs):
        device = rig.device
        obs["sound"] = {
            "rate_reg": device.src_ram[0x75 % 128],
            "codec_master": device.codec_regs[0x02],
        }
        # Interrupt count is timing-coupled: XPC crossings consume
        # virtual time, so the decaf run can catch one more/fewer period
        # boundary around trigger-stop.  Compared with a bounded delta.
        obs["counters"]["device_irqs"] = device.period_interrupts


# -- usb storage: uhci_hcd ----------------------------------------------------


class UhciFamily(DeviceFamily):
    key = "uhci_hcd"
    legacy = "repro.drivers.legacy.uhci_hcd"
    nucleus = "repro.drivers.decaf.uhci_nucleus"
    reg_trace = "full"
    xpc_at = (1, 3)
    BLOCKS_PER_TICK = 2

    def attach(self, inst, slot=None, **_):
        inst.device = UhciDevice(inst.kernel, **_resources(slot))
        disk = inst.extra["disk"] = UsbFlashDiskModel()
        inst.device.attach(0, disk)
        inst.bus_device = inst.device.pci
        inst.lba = 0

    def endpoints(self, kernel):
        return kernel.usb.devices

    def poke(self, inst):
        if inst.decaf and inst.bound:
            # One root-hub status poll (normally timer-driven).
            inst.nucleus.rh_poll.run()

    def write_blocks(self, inst, lba, blocks, data, timeout_ms=5000):
        """One bulk-only WRITE to the disk; (status, bytes moved)."""
        disk_dev = inst.endpoint
        return inst.kernel.usb.usb_bulk_msg(
            disk_dev, usb_sndbulkpipe(disk_dev, 2),
            UsbFlashDiskModel.write_command(lba, blocks, data),
            timeout_ms=timeout_ms)

    def tick(self, inst, units):
        if inst.endpoint is None:
            return 0
        moved = 0
        for _ in range(units):
            blocks = self.BLOCKS_PER_TICK
            status, _n = self.write_blocks(
                inst, inst.lba, blocks,
                bytes(blocks * UsbFlashDiskModel.BLOCK_SIZE),
                timeout_ms=30_000)
            if status != 0:
                inst.traffic_lost += 1
                break
            inst.lba = (inst.lba + blocks) % inst.extra["disk"].capacity_blocks
            moved += blocks
        inst.traffic_units += moved
        return moved

    # -- conformance ----------------------------------------------------------

    def generate(self, rng, mode):
        events = []
        t = 0
        for _ in range(rng.randrange(4, 11)):
            if mode == "faulty":
                # uhci's data path is kernel-resident (the 4% split):
                # post-arming the decaf half only crosses on its 1 Hz
                # root-hub status poll, so faulty scenarios must span
                # seconds -- same reasoning as the mouse resync poll.
                t += rng.randrange(400, 801) * NSEC_PER_MSEC
            else:
                t += rng.randrange(1, 4) * NSEC_PER_MSEC
            blocks = rng.randrange(1, 4)
            events.append({
                "t": t,
                "kind": "bulk_write",
                "lba": rng.randrange(0, 64),
                "blocks": blocks,
                "payload": _frame(rng, 512 * blocks).hex(),
            })
        return events

    def base_event(self, rng, k, t):
        return {"t": t, "kind": "bulk_write", "lba": 2 * k, "blocks": 1,
                "payload": _frame(rng, 512).hex()}

    def payload_items(self, event):
        return event["blocks"]

    def setup(self, rig, obs, policy):
        rig.insmod()
        return {}

    def apply(self, rig, state, event, index, obs):
        status, nbytes = self.write_blocks(
            rig, event["lba"], event["blocks"],
            bytes.fromhex(event["payload"]))
        obs["ops"].append([index, "bulk_write", status, nbytes])

    def observe(self, rig, state, obs):
        from .conformance.observe import frame_digest

        obs["disk"] = {
            str(lba): frame_digest(block)
            for lba, block in rig.extra["disk"].blocks.items()
        }
        obs["sound"] = {}


# -- input: psmouse -----------------------------------------------------------


class PsmouseFamily(DeviceFamily):
    key = "psmouse"
    legacy = "repro.drivers.legacy.psmouse"
    nucleus = "repro.drivers.decaf.psmouse_nucleus"
    reg_trace = "full"
    # The decaf mouse crosses only on its 1 Hz resync poll, so faulty
    # scenarios and the explorer's fault placements space events by
    # hundreds of ms for a crossing to land in.
    xpc_at = (1, 6)  # minimum post-arming budget 5
    explore_gap_ms = 400
    tick_units = 2
    SAMPLES_PER_TICK = 2

    def attach(self, inst, slot=None, **_):
        kernel = inst.kernel
        port = inst.extra["port"] = inst.bus_device = SerioPort(
            kernel, "serio0" if slot is None else "serio-%d" % slot)
        inst.device = Ps2MouseDevice(kernel)
        inst.device.attach(port)
        inst.input_events = 0

    def plug(self, inst):
        inst.kernel.input.add_port(inst.bus_device)

    def unplug(self, inst):
        inst.kernel.input.remove_port(inst.bus_device)

    def endpoints(self, kernel):
        return kernel.input.devices

    def open(self, inst):
        def sink(events):
            inst.input_events += len(events)

        inst.endpoint.sink = sink

    def close(self, inst):
        inst.endpoint.sink = None

    def poke(self, inst):
        if inst.decaf and inst.bound:
            # One resync check (normally a 1 Hz supervised-only timer).
            inst.nucleus.resync.run()

    def tick(self, inst, units):
        if not inst.bound:
            return 0
        moved = 0
        for i in range(units * self.SAMPLES_PER_TICK):
            if inst.device.move(3, -1, buttons=i & 1):
                moved += 1
            else:
                inst.traffic_lost += 1
        inst.traffic_units += moved
        return moved

    # -- conformance ----------------------------------------------------------

    def generate(self, rng, mode):
        events = []
        t = 0
        for _ in range(rng.randrange(8, 21)):
            if mode == "faulty":
                # The decaf mouse only crosses the boundary on its 1 Hz
                # resync poll, so faulty scenarios must span several
                # seconds of virtual time for an occurrence-count fault
                # to have any crossing to land on.
                t += rng.randrange(400, 801) * NSEC_PER_MSEC
            else:
                t += rng.randrange(0, 3) * NSEC_PER_MSEC
            events.append({
                "t": t,
                "kind": "move",
                "dx": rng.randrange(-127, 128),
                "dy": rng.randrange(-127, 128),
                "buttons": rng.randrange(0, 8),
                "wheel": rng.randrange(-2, 3),
            })
        return events

    def base_event(self, rng, k, t):
        return {"t": t, "kind": "move",
                "dx": rng.randrange(-127, 128),
                "dy": rng.randrange(-127, 128),
                "buttons": k % 8, "wheel": rng.randrange(-2, 3)}

    def setup(self, rig, obs, policy):
        rig.insmod()
        delivered = obs["input"]
        rig.endpoint.sink = (
            lambda events: delivered.extend(list(ev) for ev in events))
        return {}

    def apply(self, rig, state, event, index, obs):
        rig.device.move(event["dx"], event["dy"],
                        buttons=event["buttons"], wheel=event["wheel"])

    def observe(self, rig, state, obs):
        device = rig.device
        obs["sound"] = {
            "rate": device.sample_rate,
            "resolution": device.resolution,
            "id": device.device_id,
        }


#: The one registry: driver name -> family.
FAMILIES = {family.key: family for family in (
    E1000Family(), Rtl8139Family(), Ens1371Family(), UhciFamily(),
    PsmouseFamily())}
