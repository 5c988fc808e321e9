"""The fleet harness: churn engine, fault storm, and metrics.

One :class:`FleetHarness` owns one simulated machine
(``make_kernel(nr_cpus=..., nr_irqs=N+8)``) carrying N device slots in
a mixed legacy/decaf configuration.  The run loop interleaves, over
the kernel's event queue and virtual CPUs:

* **traffic** -- a rotating batch of slots moves a little traffic each
  tick (NIC tx/rx, USB bulk writes, PCM periods, mouse samples);
* **churn** -- every churn period a sample of bound slots is
  hot-unplugged and every previously removed slot is plugged back in
  under the modules that stay loaded, so driver probe and remove, IRQ
  lines, I/O windows and bus bindings cycle continuously under load;
* **faults** -- every fault period an ``xpc_raise`` plan is armed
  against a random bound decaf slot; the next crossing raises inside
  the user half, the boundary contains it, and the slot's supervisor
  restarts the driver while the rest of the fleet keeps running.

Metrics come out as a :class:`WorkloadResult` whose kstat window spans
the harness's whole life; its ``extra`` carries sustained simulator
events per wall-clock second, bytes per device slot (tracemalloc plus
DMA regions), and the fault recovery rate with p50/p99
fault-to-recovered latency.
"""

import gc
import random
import time
import tracemalloc

from ..faults import FaultPlan, FaultSpec
from ..kernel import make_kernel
from ..kernel.errors import MemoryLeakError
from ..workloads.result import RunWindow
from ..family import FAMILIES
from .isolate import ClonePool
from .slots import DeviceSlot

DEFAULT_MIX = ("e1000", "8139too", "uhci_hcd", "ens1371", "psmouse")


class FleetSpec:
    """Shape of one fleet run (all knobs deterministic)."""

    def __init__(self, n_devices=128, mix=DEFAULT_MIX, decaf_fraction=0.5,
                 nr_cpus=4, duration_ms=200, tick_period_ms=1,
                 tick_batch=None, churn_period_ms=20, churn_fraction=0.04,
                 churn_max=8, fault_period_ms=10, max_recoveries=1000,
                 settle_ms=60, seed=1234):
        if not 1 <= n_devices <= 4096:
            raise ValueError("n_devices must be 1..4096")
        unknown = set(mix) - set(FAMILIES)
        if unknown:
            raise ValueError("unknown families: %s" % sorted(unknown))
        self.n_devices = n_devices
        self.mix = tuple(mix)
        self.decaf_fraction = decaf_fraction
        self.nr_cpus = nr_cpus
        self.duration_ms = duration_ms
        self.tick_period_ms = tick_period_ms
        # How many slots move traffic per tick; default keeps one full
        # rotation through the fleet every ~16 ticks regardless of N.
        self.tick_batch = tick_batch or max(8, n_devices // 16)
        self.churn_period_ms = churn_period_ms
        self.churn_fraction = churn_fraction
        # Cap on slots churned per event: a decaf re-probe costs real
        # virtual time (JVM startup), so unbounded churn at N=1024
        # would make every churn event a multi-minute stall.
        self.churn_max = churn_max
        self.fault_period_ms = fault_period_ms  # 0 disables faults
        self.max_recoveries = max_recoveries
        self.settle_ms = settle_ms
        self.seed = seed


class FleetHarness:
    def __init__(self, spec):
        self.spec = spec
        self.kernel = make_kernel(nr_cpus=spec.nr_cpus,
                                  nr_irqs=spec.n_devices + 8,
                                  sound_use_mutex=True)
        self.window = RunWindow(self.kernel)
        self.pool = ClonePool()  # benchmark-facing stub (fleet.isolate)
        self.rng = random.Random(spec.seed)
        self.slots = []
        self._parked = []        # removed slots awaiting re-probe
        self.churn_cycles = 0    # completed remove -> re-probe cycles
        self.removes = 0
        self.mem_bytes_per_device = 0.0
        self.events_per_sec = 0.0
        self.wall_s_per_virtual_ms = 0.0
        self.wall_elapsed_s = 0.0

    # -- construction ---------------------------------------------------------

    def _build_slot(self, index):
        spec = self.spec
        family = spec.mix[index % len(spec.mix)]
        decaf = self.rng.random() < spec.decaf_fraction
        slot = DeviceSlot(index, decaf, family)
        slot.attach(self.kernel)
        slot.probe(max_recoveries=spec.max_recoveries)
        self.slots.append(slot)

    def build(self):
        """Create and probe every slot; waits for links to settle."""
        for index in range(self.spec.n_devices):
            self._build_slot(index)
        self.kernel.run_for_ms(self.spec.settle_ms)
        return self

    def measure_build(self, sample=64):
        """Like :meth:`build`, with tracemalloc over a slot sample.

        tracemalloc slows slot construction by more than an order of
        magnitude, so only the first ``sample`` slots build traced (the
        per-device cost is uniform by construction: same families, same
        drivers); the rest build at full speed.  DMA regions are
        anonymous mmaps that tracemalloc does not see, so the sample's
        DMA bytes come from the allocation ledger instead.
        """
        spec = self.spec
        sample = min(sample, spec.n_devices)
        memory = self.kernel.memory
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0] + memory.dma_bytes
        try:
            for index in range(sample):
                self._build_slot(index)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0] + memory.dma_bytes
        finally:
            if started_here:
                tracemalloc.stop()
        self.mem_bytes_per_device = max(0.0, (after - before) / sample)
        for index in range(sample, spec.n_devices):
            self._build_slot(index)
        self.kernel.run_for_ms(spec.settle_ms)
        return self

    # -- the run loop ---------------------------------------------------------

    def run(self, duration_ms=None):
        """Traffic + churn + faults for ``duration_ms`` of tick rounds.

        The loop runs ``duration_ms / tick_period_ms`` tick rounds and
        schedules churn and fault events by round count, not by virtual
        deadline: a single recovery (JVM restart, 220ms) or a decaf
        re-probe costs more virtual time than a whole quiet run, so
        virtual-deadline scheduling would let one recovery starve every
        other event.  Virtual time still advances faithfully -- the
        reported ``duration_s`` includes whatever the big events cost.
        """
        spec = self.spec
        kernel = self.kernel
        duration_ms = spec.duration_ms if duration_ms is None else duration_ms
        period_ns = spec.tick_period_ms * 1_000_000
        rounds = max(1, duration_ms // spec.tick_period_ms)
        churn_every = max(1, spec.churn_period_ms // spec.tick_period_ms)
        fault_every = (max(1, spec.fault_period_ms // spec.tick_period_ms)
                       if spec.fault_period_ms else 0)
        cursor = 0
        nslots = len(self.slots)
        events0 = kernel.events_dispatched
        wall0 = time.perf_counter()
        for rnd in range(1, rounds + 1):
            for j in range(min(spec.tick_batch, nslots)):
                slot = self.slots[(cursor + j) % nslots]
                if slot.bound:
                    slot.tick()
            cursor += spec.tick_batch
            if rnd % churn_every == 0:
                self._churn_event()
            if fault_every and rnd % fault_every == 0:
                self._fault_event()
            kernel.run_for_ns(period_ns)
        self._settle()
        elapsed = time.perf_counter() - wall0
        self.wall_elapsed_s += elapsed
        if elapsed > 0:
            self.events_per_sec = ((kernel.events_dispatched - events0)
                                   / elapsed)
        # Per ms of tick rounds, not of clock advance: recoveries move
        # the clock by whole JVM restarts without doing fleet work.
        self.wall_s_per_virtual_ms = elapsed / (rounds * spec.tick_period_ms)
        return self

    # -- churn + faults --------------------------------------------------------

    def _churn_event(self):
        """Re-probe everything parked, then park a fresh sample."""
        spec = self.spec
        for slot in self._parked:
            slot.probe(max_recoveries=spec.max_recoveries)
            self.churn_cycles += 1
        self._parked = []
        bound = [s for s in self.slots if s.bound]
        k = max(1, min(spec.churn_max,
                       int(len(bound) * spec.churn_fraction)))
        for slot in self.rng.sample(bound, min(k, len(bound))):
            slot.remove()
            self.removes += 1
            self._parked.append(slot)

    def _fault_event(self):
        """Arm one transient user-half fault on a random decaf slot."""
        candidates = [s for s in self.slots
                      if s.decaf and s.bound and not s.recovery_pending()]
        if not candidates:
            return
        slot = self.rng.choice(candidates)
        plan = FaultPlan([FaultSpec("xpc_raise")],
                         name="fleet-%s" % slot.name)
        slot.inject_faults(plan)
        # The decaf datapaths are engineered to cross rarely; poke a
        # control-plane op so the armed fault meets a crossing now.
        slot.poke()

    def _settle(self):
        """Drain pending recoveries so end-of-run counters are stable."""
        kernel = self.kernel
        for _ in range(50):
            if not any(s.bound and s.recovery_pending()
                       for s in self.slots):
                break
            kernel.run_for_ms(5)
        for slot in self.slots:
            slot.recover()

    # -- teardown + metrics ----------------------------------------------------

    def teardown(self):
        """Unplug every slot, unload every module, then check that no
        allocation survives but the kernel's own skb-pool arenas."""
        self._parked = []
        for slot in self.slots:
            slot.remove()
        modules = self.kernel.modules
        for name in modules.loaded:
            modules.rmmod(name, check_leaks=False)
        leaked = [r for r in self.kernel.memory.live_allocations()
                  if not r.owner.startswith("skb-pool")]
        if leaked:
            raise MemoryLeakError(
                "fleet teardown leaked %d allocation(s): %s" % (
                    len(leaked), sorted({r.owner for r in leaked})))
        return self

    def faults_fired(self):
        return self._count("faults.fired")

    def recoveries(self):
        return self._count("recovery.recoveries")

    def _count(self, name):
        # The kernel is the harness's own, so its kstat counts only
        # this fleet, removed slots' drivers included.
        return self.kernel.kstat.snapshot().get(name, 0)

    def outage_samples_ns(self):
        out = []
        for slot in self.slots:
            out.extend(slot.harvest_outages())
        return out

    def result(self, name="fleet"):
        samples = sorted(self.outage_samples_ns())
        fired = self.faults_fired()
        result = self.window.close(
            name,
            packets=sum(s.traffic_units for s in self.slots),
            packets_lost=sum(s.traffic_lost for s in self.slots))
        # The window opened before the first probe: its delta is every
        # crossing of the fleet's life, churned-out channels' included.
        result.extra = {
            "crossings": result.kstat.get("xpc.crossings", 0),
            "fleet_devices": self.spec.n_devices,
            "churn_cycles": self.churn_cycles,
            "events_per_sec": self.events_per_sec,
            "wall_s_per_virtual_ms": self.wall_s_per_virtual_ms,
            "mem_bytes_per_device": self.mem_bytes_per_device,
            "recovery_rate": (self.recoveries() / fired) if fired else 1.0,
            "recovery_p50_ms": _percentile(samples, 0.50) / 1e6,
            "recovery_p99_ms": _percentile(samples, 0.99) / 1e6,
            "decaf_slots": sum(1 for s in self.slots if s.decaf),
            "legacy_slots": sum(1 for s in self.slots if not s.decaf),
            "probes": sum(s.probes for s in self.slots),
            "removes": self.removes,
            "wall_elapsed_s": round(self.wall_elapsed_s, 3),
        }
        return result


def _percentile(sorted_samples, q):
    if not sorted_samples:
        return 0.0
    index = min(len(sorted_samples) - 1,
                int(q * (len(sorted_samples) - 1) + 0.5))
    return sorted_samples[index]


def fleet_workload(spec):
    """Build, run, tear down the fleet ``spec`` describes; returns the
    WorkloadResult."""
    harness = FleetHarness(spec)
    harness.measure_build()
    harness.run()
    result = harness.result()
    harness.teardown()
    result.extra["harness"] = harness
    return result
