"""The benchmark's four workloads.

Each workload builds its ready state in :meth:`setup` (what a user pays
on every invocation), then runs repetitions.  A repetition does a fixed
amount of simulated work, so its unit count and its ``digest`` of the
simulated outputs are the same every time; only host time varies.
Inputs come from the seed: the fleet's ``FleetSpec(seed=)`` and the
lifecycle family order.  Netperf inputs are fixed by rate and size.
"""

import gc
import hashlib
import random
import struct
import tracemalloc
from array import array
from time import perf_counter

from reference import ref_seconds
from repro.fleet.harness import DEFAULT_MIX, FleetHarness, FleetSpec
from repro.kernel.errors import MemoryLeakError
from repro.kernel.usb import usb_sndbulkpipe
from repro.workloads import (make_8139too_rig, make_e1000_rig,
                             make_ens1371_rig, make_psmouse_rig,
                             make_uhci_rig, netperf_recv, netperf_send)

#: CPU-accounting categories reported as ``virt.busy_ms.<category>``.
BUSY_CATEGORIES = ("irq", "softirq", "io", "netstack", "kernel", "module",
                   "delay", "xpc", "marshal", "jvm", "snd", "serio", "src",
                   "eeprom", "phy", "nic-reset", "usb-reset")

#: Families in the order ``virt.init_ms.<family>`` reports them.
INIT_FAMILIES = ("e1000", "8139too", "ens1371", "uhci_hcd", "psmouse")


class Stopwatch:
    """Host seconds of one timed phase.  With a ``probe`` (the reference
    loop's timer) it also times the reference loop right before and
    right after the phase, and ``ref_s`` is the phase in reference
    seconds; without one, ``ref_s`` is the host seconds."""

    def __init__(self, probe=None):
        self.probe = probe
        self.host_s = self.ref_s = self.loop_s = None

    def __enter__(self):
        self._loops = [self.probe()] if self.probe else []
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.host_s = self.ref_s = perf_counter() - self._t0
        if self.probe:
            self._loops.append(self.probe())
            self.loop_s = sum(self._loops) / len(self._loops)
            self.ref_s = ref_seconds(self.host_s, self.loop_s)
        return False


class Rep:
    """What one repetition did and how long it took on the host."""

    def __init__(self, units, watch, unit_s, digest, attempted, failed,
                 program, events=None, key=0):
        self.units = units
        self.host_s = watch.host_s
        self.ref_s = watch.ref_s
        self.loop_s = watch.loop_s    # reference loop around the phase
        self.unit_s = unit_s          # host seconds per unit
        self.digest = digest          # simulated outputs, host-independent
        self.key = key                # repetitions with one key must agree
        self.attempted = attempted
        self.failed = failed
        # The program's own counter deltas over everything the
        # repetition did; ``events`` covers only the timed part.
        self.program = program
        self.events = program["events"] if events is None else events


def kernel_counters(kernel):
    """Public counters of one simulated kernel."""
    net = kernel.net
    pools = net.skb_pool_stats().values()
    out = {
        "events": kernel.events_dispatched,
        "napi_polls": net.napi.polls,
        "napi_work": net.napi.work_total,
        "io_accesses": kernel.io.port_accesses + kernel.io.mmio_accesses,
        "irq_delivered": kernel.irq.delivered,
        "rx_pkts": net.stack_rx_packets,
        "pool_hits": sum(p["hits"] for p in pools),
        "pool_misses": sum(p["misses"] for p in pools),
        "virt_ns": kernel.clock.now_ns,
    }
    for category in BUSY_CATEGORIES:
        out["busy_ns." + category] = kernel.cpu.category_ns(category)
    return out


def add_delta(total, after, before):
    for key, value in after.items():
        total[key] = total.get(key, 0) + value - before.get(key, 0)
    return total


def _gaps(stamps):
    return array("d", (b - a for a, b in zip(stamps, stamps[1:])))


class Workload:
    name = None
    unit = None
    #: Consecutive repetitions that together make one throughput sample.
    GROUP = 1
    #: Units per block of the unit-time median and tail.
    UNITS_PER_BLOCK = 1000
    #: Repetitions the traced run records (fixed, so its counts repeat).
    TRACED_REPS = 2

    def __init__(self, seed, wrap=None, probe=None):
        self.seed = seed
        # Traced runs pass the span recorder's wrap(span, fn) so the
        # benchmark's own sinks show up as the ``workloads`` layer.
        self.wrap = wrap or (lambda _span, fn: fn)
        self.probe = probe

    def stopwatch(self):
        return Stopwatch(self.probe)

    def setup(self):
        raise NotImplementedError

    def rep(self):
        raise NotImplementedError

    def check(self, digest):
        """Once-per-run output checks beyond digest equality."""
        return []

    def init_ms(self):
        return {}

    def mem_kib_per_device(self):
        raise NotImplementedError


def _traced_kib(build, devices):
    """tracemalloc KiB retained per device by ``build()``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / 1024 / devices


def _e1000(decaf):
    rig = make_e1000_rig(decaf=decaf)
    rig.insmod()
    return rig


class NetperfRecv(Workload):
    """e1000 NAPI rig, open-loop receive at 95% of 1 Gb/s, 1500-B frames."""

    name = "netperf-recv"
    unit = "packet"
    VIRTUAL_S = 0.2
    # The decaf e1000 keeps its freed ring buffers reachable: each
    # dev_open/dev_close cycle retains ~512 KiB.  A fresh rig every few
    # repetitions (built untimed) keeps peak memory independent of how
    # many repetitions fit in the run.
    REPS_PER_RIG = 8

    def setup(self):
        self.rig = _e1000(decaf=True)
        self.reps_on_rig = 0

    def _next_rig(self):
        if self.reps_on_rig == self.REPS_PER_RIG:
            self.rig = None
            self.rig = _e1000(decaf=True)
            self.reps_on_rig = 0
        self.reps_on_rig += 1
        return self.rig

    def rep(self, rig=None):
        rig = rig or self._next_rig()
        kernel = rig.kernel
        digest = hashlib.sha256()
        stamps = array("d")
        update, stamp, clock = digest.update, stamps.append, perf_counter

        def sink(_dev, skb):
            update(skb.data)
            stamp(clock())

        before = kernel_counters(kernel)
        offered = rig.link.rx_frames
        with self.stopwatch() as watch:
            res = netperf_recv(rig, duration_s=self.VIRTUAL_S,
                               sink_extra=self.wrap("workloads:sink", sink))
        attempted = rig.link.rx_frames - offered
        return Rep(res.packets, watch, _gaps(stamps),
                   "%d:%s" % (res.packets, digest.hexdigest()),
                   attempted, attempted - res.packets,
                   add_delta({}, kernel_counters(kernel), before))

    def check(self, digest):
        legacy = self.rep(_e1000(decaf=False)).digest
        if legacy != digest:
            return ["legacy digest %s != decaf %s" % (legacy, digest)]
        return []

    def init_ms(self):
        return {"e1000": self.rig.init_latency_ns / 1e6}

    def mem_kib_per_device(self):
        return _traced_kib(lambda: _e1000(decaf=True), 1)


class NetperfSend(NetperfRecv):
    """The same rig, closed-loop send flow-controlled by the TX queue."""

    name = "netperf-send"
    # Sending costs the host ~3x what receiving does; short repetitions
    # keep the reference loop close to the work it brackets.
    VIRTUAL_S = 0.1

    def rep(self, rig=None):
        rig = rig or self._next_rig()
        kernel = rig.kernel
        digest = hashlib.sha256()
        stamps = array("d")
        update, stamp, clock = digest.update, stamps.append, perf_counter

        def wire(frame):
            update(frame)
            stamp(clock())

        rig.link.peer_rx = self.wrap("workloads:sink", wire)
        stats = rig.netdev().stats
        dropped0 = stats.tx_dropped + stats.tx_errors
        before = kernel_counters(kernel)
        try:
            with self.stopwatch() as watch:
                res = netperf_send(rig, duration_s=self.VIRTUAL_S)
        finally:
            rig.link.peer_rx = None
        on_wire = len(stamps)
        failed = (res.packets_lost + abs(res.packets - on_wire)
                  + stats.tx_dropped + stats.tx_errors - dropped0)
        return Rep(on_wire, watch, _gaps(stamps),
                   "%d:%s" % (on_wire, digest.hexdigest()),
                   res.packets + res.packets_lost, failed,
                   add_delta({}, kernel_counters(kernel), before))

    def check(self, digest):
        return []


def _op_netdev(rig):
    net = rig.kernel.net
    dev = rig.netdev()
    return net.dev_open(dev) or net.dev_close(dev)


def _op_pcm(rig):
    sound = rig.kernel.sound
    substream = sound.cards[0].pcms[0].playback
    return sound.pcm_open(substream) or sound.pcm_close(substream)


def _op_usb(rig):
    usb = rig.kernel.usb
    disk = usb.devices[0]
    cmd = struct.pack("<BBHI", 1, 0, 1, 0) + bytes(512)
    status, _n = usb.usb_bulk_msg(disk, usb_sndbulkpipe(disk, 2), cmd,
                                  timeout_ms=30_000)
    return status


def _op_mouse(rig):
    moved = rig.device.move(3, -1, buttons=1)
    rig.kernel.run_for_ms(10)
    return 0 if moved else -1


LIFECYCLE = (
    ("e1000", make_e1000_rig, _op_netdev),
    ("8139too", make_8139too_rig, _op_netdev),
    ("ens1371", make_ens1371_rig, _op_pcm),
    ("uhci_hcd", make_uhci_rig, _op_usb),
    ("psmouse", make_psmouse_rig, _op_mouse),
)


class DecafLifecycle(Workload):
    """Closed loop of cycles: every family gets a fresh decaf rig, then
    insmod, one bring-up/down control op, rmmod with the leak check."""

    name = "decaf-lifecycle"
    unit = "cycle"
    UNITS_PER_BLOCK = 200
    CYCLES = 20

    def __init__(self, seed, wrap=None, probe=None):
        super().__init__(seed, wrap, probe)
        self.rng = random.Random(seed)
        self.outcome = None

    def setup(self):
        self.outcome = self._cycle({}, [0, 0])

    def _family(self, family, make, op, program, ops):
        rig = make(decaf=True)
        kernel = rig.kernel
        before = kernel_counters(kernel)
        ops[0] += 3
        ret = kernel.modules.insmod(rig.module)
        if ret != 0:
            ops[1] += 3
            return (family, "insmod", ret)
        init_ns = kernel.modules.last_init_latency_ns
        xpc = rig.xpc
        op_ret = op(rig)
        leaked = 0
        try:
            kernel.modules.rmmod(rig.module.name, check_leaks=True)
        except MemoryLeakError:
            leaked = 1
        ops[1] += (op_ret != 0) + leaked
        add_delta(program, kernel_counters(kernel), before)
        return (family, xpc.kernel_user_crossings, init_ns, op_ret, leaked)

    def _cycle(self, program, ops):
        order = self.rng.sample(LIFECYCLE, len(LIFECYCLE))
        return tuple(sorted(self._family(f, mk, op, program, ops)
                            for f, mk, op in order))

    def rep(self):
        program, ops = {}, [0, 0]
        samples = array("d")
        outcomes = set()
        with self.stopwatch() as watch:
            for _ in range(self.CYCLES):
                t0 = perf_counter()
                outcomes.add(self._cycle(program, ops))
                samples.append(perf_counter() - t0)
        digest = hashlib.sha256(repr(sorted(outcomes)).encode()).hexdigest()
        if len(outcomes) != 1:
            digest = "cycles-disagree:" + digest
        return Rep(self.CYCLES, watch, samples, digest, ops[0], ops[1],
                   program)

    def check(self, digest):
        errors = []
        for family, *rest in self.outcome:
            if len(rest) != 4 or rest[2] != 0 or rest[3] != 0:
                errors.append("%s: %r" % (family, rest))
        return errors

    def init_ms(self):
        return {f: rest[1] / 1e6 for f, *rest in self.outcome
                if len(rest) == 4}

    def mem_kib_per_device(self):
        def build():
            rigs = [make(decaf=True) for _f, make, _op in LIFECYCLE]
            for rig in rigs:
                rig.insmod()
            return rigs
        return _traced_kib(build, len(LIFECYCLE))


def balanced_fleet_seeds(seed, n_devices, count, mix=DEFAULT_MIX):
    """The first ``count`` FleetSpec seeds drawn from ``seed`` whose
    fleet is half decaf within every family.

    ``FleetHarness`` makes slot ``i`` decaf when its ``i``-th draw from
    ``Random(fleet seed)`` is below 0.5, so the split is known before
    building.  Holding it at half per family keeps the workload's shape
    the same for every benchmark seed, while the seed still picks which
    slots are decaf, what churns and what faults.
    """
    candidates = random.Random(seed)
    found = []
    while len(found) < count:
        fleet_seed = candidates.randrange(1 << 31)
        draws = random.Random(fleet_seed)
        decaf = {}
        for index in range(n_devices):
            family = mix[index % len(mix)]
            decaf.setdefault(family, []).append(draws.random() < 0.5)
        if all(abs(2 * sum(d) - len(d)) <= 1 for d in decaf.values()):
            found.append(fleet_seed)
    return found


class FleetChurn(Workload):
    """A mixed fleet, half decaf, on 4 vCPUs; fixed tick rounds with churn
    waves and an ``xpc_raise`` fault storm.  Every slot ticks each round.

    Which slots churn and fault changes the host cost of one fleet's
    repetition by up to ~40% between fleet seeds.  So each repetition
    runs a fresh fleet, the repetitions cycle through ``GROUP`` fleet
    seeds drawn from the benchmark seed, and one throughput sample
    covers a whole cycle.
    """

    name = "fleet-churn"
    unit = "round"
    GROUP = 24
    TRACED_REPS = 4
    N_DEVICES = 32
    ROUNDS = 24
    UNITS_PER_BLOCK = GROUP * ROUNDS
    FAULT_EVERY = 3
    CHURN_EVERY = 12
    _NEVER = 1 << 40

    def __init__(self, seed, wrap=None, probe=None):
        super().__init__(seed, wrap, probe)
        self.harness = None
        self.fleet_seeds = balanced_fleet_seeds(seed, self.N_DEVICES,
                                                self.GROUP)
        self.next_fleet = 0

    def _spec(self, fleet=0):
        return FleetSpec(n_devices=self.N_DEVICES, decaf_fraction=0.5,
                         nr_cpus=4, duration_ms=1, tick_batch=self.N_DEVICES,
                         churn_period_ms=self._NEVER, fault_period_ms=0,
                         seed=self.fleet_seeds[fleet])

    def setup(self):
        self.harness = FleetHarness(self._spec(self.next_fleet)).build()

    def rep(self):
        # Each repetition runs on a fresh fleet; only the first reuses
        # the one setup() built.
        fleet = self.next_fleet
        self.next_fleet = (fleet + 1) % self.GROUP
        harness = self.harness or FleetHarness(self._spec(fleet))
        self.harness = None
        start = kernel_counters(harness.kernel)
        if not harness.slots:
            harness.build()
        spec, kernel = harness.spec, harness.kernel
        tick = spec.tick_period_ms
        before = kernel_counters(kernel)
        probes0 = sum(s.probes for s in harness.slots)
        samples = array("d")
        with self.stopwatch() as watch:
            for rnd in range(1, self.ROUNDS + 1):
                # run() schedules churn/faults by round number within
                # one call; one-round calls select them through the spec.
                spec.churn_period_ms = (tick if rnd % self.CHURN_EVERY == 0
                                        else self._NEVER)
                spec.fault_period_ms = (tick if rnd % self.FAULT_EVERY == 0
                                        else 0)
                t0 = perf_counter()
                harness.run(duration_ms=tick)
                samples.append(perf_counter() - t0)
        events = kernel.events_dispatched - before["events"]
        slots = harness.slots
        fired, recovered = harness.faults_fired(), harness.recoveries()
        units = sum(s.traffic_units for s in slots)
        lost = sum(s.traffic_lost for s in slots)
        probes = sum(s.probes for s in slots) - probes0
        digest = ("probes=%d removes=%d churn=%d faults=%d recoveries=%d "
                  "units=%d lost=%d virt_ns=%d" % (
                      probes, harness.removes, harness.churn_cycles, fired,
                      recovered, units, lost, kernel.clock.now_ns))
        harness.teardown()
        program = add_delta({}, kernel_counters(kernel), start)
        pool = harness.pool.stats()
        program.update(faults=fired, recoveries=recovered, probes=probes,
                       pool_builds=pool["builds"], pool_reuses=pool["reuses"])
        return Rep(self.ROUNDS, watch, samples, digest,
                   units + lost + probes + fired,
                   lost + max(0, fired - recovered), program, events,
                   key=fleet)

    def mem_kib_per_device(self):
        harness = FleetHarness(self._spec())
        harness.measure_build(sample=self.N_DEVICES)
        harness.teardown()
        return harness.mem_bytes_per_device / 1024


WORKLOADS = {cls.name: cls for cls in
             (NetperfRecv, NetperfSend, DecafLifecycle, FleetChurn)}
