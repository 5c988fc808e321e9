"""The simulated kernel: one object aggregating every subsystem.

The kernel is a discrete-event simulator.  All costs advance one virtual
clock (:mod:`repro.kernel.vtime`); timers, deferred work, and device
completions are events (:mod:`repro.kernel.events`) that fire as the clock
advances.  Driver code executes synchronously inside event callbacks or
inside code the test/workload drives directly; the execution context
(hardirq / softirq / process) is tracked and its rules enforced.

Typical use (:mod:`repro.family` plugs in the device, its PCI function,
IRQ and MMIO window, and builds the driver module)::

    rig = FAMILIES["e1000"].rig()       # make_kernel() + device + module
    rig.insmod()
    rig.kernel.run_for_ms(100)
"""

from collections import deque

from ..health.kstat import KstatRegistry
from .context import ExecContext, HARDIRQ, PROCESS, SOFTIRQ
from .costs import CostModel
from .errors import SimulationError
from .events import FAR_NS as _FAR, EventQueue
from .ioports import IoSpace
from .irq import IrqController
from .memory import MemoryManager
from .module import ModuleLoader
from .timers import Workqueue
from .vtime import NSEC_PER_MSEC, NSEC_PER_SEC, NSEC_PER_USEC, CpuAccounting, VirtualClock


#: printk severity order (higher = more severe); unknown levels rank as
#: "info" so a typo'd level is visible rather than filtered away.
LOG_LEVELS = {"debug": 0, "info": 1, "warn": 2, "err": 3}

DEFAULT_LOG_CAPACITY = 1024

#: Upper bound on simulated CPUs (matches the e1000 model's 8-queue cap).
MAX_CPUS = 8


class VCpu:
    """One virtual CPU: execution context, accounting, busy window.

    The simulator stays a single-threaded discrete-event loop; CPUs
    "run in parallel" in virtual time.  A CPU-targeted event executes
    with this CPU current, and the virtual time its callback charges is
    *deferred*: instead of advancing the global clock it widens this
    CPU's ``busy_until_ns`` window.  Later events targeted at the same
    CPU are pushed past the window; events on other CPUs (or untargeted
    ones) interleave freely inside it.  Two CPUs each doing 1 ms of
    work in the same window therefore finish after ~1 ms of virtual
    time, not 2 ms -- that is the whole point of SMP.
    """

    __slots__ = ("index", "context", "acct", "busy_until_ns",
                 "_defer_depth", "_pending_charge_ns", "rq_lock",
                 "softirq_lock")

    def __init__(self, kernel, index):
        self.index = index
        self.context = ExecContext()
        self.acct = CpuAccounting(kernel.clock)
        self.busy_until_ns = 0
        # >0 while a targeted event runs on this CPU: consume() defers.
        self._defer_depth = 0
        self._pending_charge_ns = 0
        # Per-CPU scheduler locks.  Named per CPU so lockdep sees one
        # class per lock ("cpu0/rq" != "cpu1/rq"): a cross-CPU AB/BA
        # acquisition closes a cycle in the global order graph and is
        # reported.  Created by Kernel.__init__ (needs the irq layer).
        self.rq_lock = None
        self.softirq_lock = None


class Kernel:
    def __init__(self, costs=None, log_capacity=DEFAULT_LOG_CAPACITY,
                 nr_cpus=1, nr_irqs=32):
        if not 1 <= nr_cpus <= MAX_CPUS:
            raise SimulationError("nr_cpus must be 1..%d" % MAX_CPUS)
        self.costs = costs or CostModel()
        self.clock = VirtualClock()
        # kstat: the always-on counter registry (repro.health).  Pull
        # only -- subsystems register lazy providers over counters they
        # already keep, so hot paths pay nothing for it.
        self.kstat = KstatRegistry()
        # Aggregate accounting across all CPUs (what single-CPU code
        # always charged); per-CPU accounting lives on each VCpu.  A
        # lone vCPU's account *is* the aggregate, so every charge lands
        # once; charge sites add to the aggregate separately only when
        # it is a different object (SMP).
        self.cpu = CpuAccounting(self.clock)
        self.nr_cpus = nr_cpus
        self.cpus = [VCpu(self, i) for i in range(nr_cpus)]
        if nr_cpus == 1:
            self.cpus[0].acct = self.cpu
        self.current_cpu = self.cpus[0]
        self.events = EventQueue(self.clock)
        self.irq = IrqController(self, nr_irqs=nr_irqs)
        self.memory = MemoryManager(self)
        self.io = IoSpace(self)
        self.modules = ModuleLoader(self)
        self.workqueue = Workqueue(self, name="events")
        # printk ring buffer: (virtual ns, level, message) triples.  A
        # long-running rig cannot grow memory through logging; overflow
        # evicts the oldest line and counts it.
        self._log = deque(maxlen=log_capacity)
        self.log_dropped = 0
        # ktrace hook: a repro.trace.Tracer when installed, else None.
        # Every tracepoint in the kernel guards on this one attribute,
        # so the disabled path costs one load + one identity test.
        self.tracer = None
        # Runtime lock validator (repro.kernel.locks.LockDep); opt-in
        # via enable_lockdep() -- conformance runs turn it on, ordinary
        # rigs pay one attribute load per lock operation.
        self.lockdep = None
        # Health plane (repro.health.HealthPlane) when installed, else
        # None: flight recorder, stall watchdogs, crash dumps.  Cold
        # paths (printk, faults, lockdep) guard on this one attribute.
        self.health = None
        # Sampling profiler (repro.health.SamplingProfiler) when
        # installed; instrumented dispatch sites guard on it exactly
        # like tracepoints guard on self.tracer.
        self.profiler = None
        # Watchdog bookkeeping: depth of nested event dispatches and
        # the aggregate busy count when the outermost one entered.  A
        # nested watchdog check reading busy - entry sees how long the
        # current handler has hogged the CPU (soft-lockup detection).
        self._dispatch_depth = 0
        self._dispatch_entry_busy_ns = 0
        # Unconditional counter of softirq-context dispatches (kstat).
        self.softirq_dispatches = 0
        # Total events dispatched (all contexts): the fleet harness
        # reports sustained events/s of the virtual-time core from it.
        self.events_dispatched = 0
        self.kstat.register("kernel", self._kstat_kernel)

        # Bus / class subsystems are attached lazily to keep the core free
        # of upward dependencies; see repro.kernel.__init__.
        self.pci = None
        self.net = None
        self.sound = None
        self.usb = None
        self.input = None

        # Process-context events that came due while the CPU was atomic
        # (a nested clock advance inside an irq handler or under a
        # spinlock); parked here until the CPU is back in process
        # context, like work preempted by an interrupt.
        self._parked_process_events = deque()

        # Per-CPU scheduler locks (distinct lockdep classes per CPU);
        # only taken around dispatch bookkeeping when nr_cpus > 1, so
        # single-CPU rigs keep the exact classic event path.
        if nr_cpus > 1:
            from .locks import SpinLock

            for vcpu in self.cpus:
                vcpu.rq_lock = SpinLock(self, "cpu%d/rq" % vcpu.index)
                vcpu.softirq_lock = SpinLock(
                    self, "cpu%d/softirq" % vcpu.index)

    @property
    def context(self):
        """Execution context of the CPU the kernel is running on."""
        return self.current_cpu.context

    # -- kstat ----------------------------------------------------------------

    def _kstat_kernel(self):
        """Core counters for the health plane's registry (pull-only)."""
        out = {
            "nr_cpus": self.nr_cpus,
            "now_ns": self.clock.now_ns,
            "log_dropped": self.log_dropped,
            "softirq_dispatches": self.softirq_dispatches,
            "events_dispatched": self.events_dispatched,
        }
        for vcpu in self.cpus:
            prefix = "cpu%d" % vcpu.index
            out["%s.busy_ns" % prefix] = vcpu.acct._busy_ns
            for category, ns in vcpu.acct._by_category.items():
                out["%s.%s_ns" % (prefix, category)] = ns
        return out

    # -- lockdep ---------------------------------------------------------------

    def enable_lockdep(self):
        """Install (or return) the runtime lock validator."""
        if self.lockdep is None:
            from .locks import LockDep

            self.lockdep = LockDep(self)
            for vcpu in self.cpus:
                vcpu.context.lockdep = self.lockdep
        return self.lockdep

    # -- logging (printk) ----------------------------------------------------

    def printk(self, message, level="info"):
        log = self._log
        if log.maxlen is not None and len(log) == log.maxlen:
            self.log_dropped += 1
        log.append((self.clock.now_ns, level, message))
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("printk", {"level": level, "msg": message})
        health = self.health
        if health is not None and tracer is None:
            # Mirror log lines into the flight ring.  With a tracer
            # installed the instant() above already mirrored there.
            health.flight.note("printk", {"level": level, "msg": message})

    def dmesg(self, level=None):
        """Ring-buffer contents as (ns, level, message), oldest first.

        ``level`` filters to entries at that severity or higher
        (``"debug" < "info" < "warn" < "err"``).
        """
        if level is None:
            return list(self._log)
        if level not in LOG_LEVELS:
            raise ValueError("unknown log level %r (one of %s)"
                             % (level, ", ".join(sorted(LOG_LEVELS))))
        floor = LOG_LEVELS[level]
        return [
            entry for entry in self._log
            if LOG_LEVELS.get(entry[1], LOG_LEVELS["info"]) >= floor
        ]

    @property
    def log_lines(self):
        """Compat view of the ring buffer: (ns, message) pairs."""
        return [(t, message) for t, _level, message in self._log]

    # -- time ------------------------------------------------------------------

    def now_ns(self):
        return self.clock.now_ns

    def run_until(self, target_ns):
        """Advance virtual time to ``target_ns``, firing due events in order.

        Re-entrant: an event handler that sleeps (``msleep``) nests another
        ``run_until`` with a nearer target; monotonicity is preserved
        because the clock only moves forward.
        """
        clock = self.clock
        pop_due = self.events.pop_due
        dispatch = self._dispatch_event
        parked = self._parked_process_events
        while True:
            # Work parked by an atomic-context advance runs as soon as
            # any advance finds the CPU schedulable again, before
            # later-timed events (it was due first).  The atomicity
            # check is against the *current* CPU -- dispatching a
            # targeted event may have switched it.
            if parked and not self.current_cpu.context.in_atomic():
                dispatch(parked.popleft())
                continue
            ev = pop_due(target_ns)
            if ev is None:
                break
            # Monotonicity holds by construction here: pop_due only
            # returns events at or after the current time.
            if ev.time_ns > clock._now_ns:
                clock._now_ns = ev.time_ns
            dispatch(ev)
        if target_ns > clock._now_ns:
            clock._now_ns = target_ns

    def run_for_ns(self, delta_ns):
        self.run_until(self.clock.now_ns + delta_ns)

    def run_for_ms(self, ms):
        self.run_for_ns(int(ms * NSEC_PER_MSEC))

    def run_for_s(self, seconds):
        self.run_for_ns(int(seconds * NSEC_PER_SEC))

    def _dispatch_event(self, ev):
        if ev.cpu is not None and self.nr_cpus > 1:
            self._dispatch_on_cpu(ev)
            return
        self._run_event(ev)

    def _run_event(self, ev):
        context = self.current_cpu.context
        depth = self._dispatch_depth
        if depth == 0:
            self._dispatch_entry_busy_ns = self.cpu._busy_ns
        self._dispatch_depth = depth + 1
        self.events_dispatched += 1
        try:
            if ev.context == HARDIRQ:
                context.enter_irq()
                try:
                    ev.callback()
                finally:
                    context.exit_irq()
            elif ev.context == SOFTIRQ:
                self.softirq_dispatches += 1
                context.enter_softirq()
                try:
                    ev.callback()
                finally:
                    context.exit_softirq()
            else:
                if ev.needs_sched and context.in_atomic():
                    # A work item came due inside a nested advance while
                    # the CPU is in interrupt context or holds a spinlock.
                    # Running it here would let sleeping work execute
                    # atomically; park it until the CPU is schedulable.
                    self._parked_process_events.append(ev)
                    return
                ev.callback()
        finally:
            self._dispatch_depth = depth

    def _dispatch_on_cpu(self, ev):
        """Run a CPU-targeted event with deferred time charging.

        If the target CPU's busy window is still open the event is
        re-queued at the window's close (it keeps its sequence number,
        so ties stay FIFO).  Otherwise the event runs with the target
        CPU current; virtual time its callback consumes is accumulated
        and becomes the CPU's next busy window instead of advancing the
        global clock, letting other CPUs' events overlap it.
        """
        vcpu = self.cpus[ev.cpu % self.nr_cpus]
        now = self.clock._now_ns
        if vcpu.busy_until_ns > now:
            self.events.requeue(ev, vcpu.busy_until_ns)
            return
        prev = self.current_cpu
        self.current_cpu = vcpu
        rq = vcpu.rq_lock
        if rq is not None and vcpu._defer_depth == 0:
            # Touch the runqueue under its lock (distinct lockdep class
            # per CPU); released before the callback so driver locks
            # never order against scheduler internals.
            rq.lock()
            rq.unlock()
        vcpu._defer_depth += 1
        try:
            self._run_event(ev)
        finally:
            vcpu._defer_depth -= 1
            if vcpu._defer_depth == 0 and vcpu._pending_charge_ns:
                vcpu.busy_until_ns = \
                    self.clock._now_ns + vcpu._pending_charge_ns
                vcpu._pending_charge_ns = 0
            self.current_cpu = prev

    # -- cost charging ------------------------------------------------------------

    def charge(self, ns, category="kernel"):
        """Charge CPU time to the current CPU and the aggregate.

        Does not advance the clock (see :meth:`consume` for that).
        """
        acct = self.current_cpu.acct
        acct.charge(ns, category)
        if self.cpu is not acct:
            self.cpu.charge(ns, category)

    def consume(self, ns, busy=True, category="kernel"):
        """Advance the clock by ``ns`` of work, firing events that come due.

        ``busy=True`` additionally charges CPU time (utilization).
        Inside a CPU-targeted event the advance is deferred into the
        CPU's busy window instead (other CPUs run in parallel there).
        """
        if ns < 0:
            raise SimulationError("negative time consumption")
        cur = self.current_cpu
        if busy:
            # CpuAccounting.charge for the current CPU (and, on SMP, the
            # aggregate), inlined: this is the hottest frame in the
            # simulator.
            acct = cur.acct
            acct._busy_ns += ns
            acct._by_category[category] += ns
            acct.last_category = category
            agg = self.cpu
            if agg is not acct:
                agg._busy_ns += ns
                agg._by_category[category] += ns
                agg.last_category = category
        if cur._defer_depth:
            cur._pending_charge_ns += ns
            return
        clock = self.clock
        target = clock._now_ns + ns
        if not self._parked_process_events:
            # Nothing comes due inside the advance: just move the clock,
            # which is all run_until would do.  next_due_ns is a lower
            # bound on the next live event, so below it no peek is
            # needed; a peek that finds nothing due refreshes it.
            events = self.events
            if target < events.next_due_ns:
                clock._now_ns = target
                return
            due = events.peek_time()
            if due is None or due > target:
                events.next_due_ns = _FAR if due is None else due
                clock._now_ns = target
                return
        self.run_until(target)

    # -- delays (Linux API names) ----------------------------------------------

    def udelay(self, usecs):
        """Busy-wait; legal in atomic context (burns CPU)."""
        self.consume(int(usecs * NSEC_PER_USEC), busy=True, category="delay")

    def mdelay(self, msecs):
        self.udelay(msecs * 1000)

    def msleep(self, msecs):
        """Sleeping delay; forbidden in atomic context."""
        self.context.might_sleep("msleep")
        self.consume(int(msecs * NSEC_PER_MSEC), busy=False, category="sleep")

    def msleep_interruptible(self, msecs):
        self.msleep(msecs)
        return 0

    def schedule_timeout(self, msecs):
        self.msleep(msecs)

    # -- Linux accessor shims used pervasively by drivers -----------------------

    def request_irq(self, irq, handler, name, dev_id=None):
        return self.irq.request_irq(irq, handler, name, dev_id)

    def free_irq(self, irq, dev_id=None):
        self.irq.free_irq(irq, dev_id)
