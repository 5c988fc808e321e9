"""NAPI-style polled packet receive.

Per-packet interrupts dominate receive cost at high packet rates: every
frame pays interrupt entry, a register read, and a trip through the
event dispatcher.  NAPI inverts this.  The interrupt handler masks the
device's interrupt sources and calls :meth:`NapiCore.schedule`; the core
masks the IRQ *line*, queues the context on its poll list, and raises a
net-rx softirq.  The softirq's budget loop then calls each driver's
``poll(napi, budget)`` to drain up to ``budget`` descriptors per trip,
and the driver calls :meth:`NapiCore.complete` + re-enables device
interrupts only when the ring is empty.  One interrupt therefore covers
an entire burst.

Invariants enforced here (the "checkable protocol"):

* ``poll`` runs in softirq context -- scheduling uses a SOFTIRQ event,
  and ``_net_rx_action`` verifies ``in_softirq()``.
* The device's IRQ line stays masked for the whole time its NAPI context
  sits on the poll list; polling with the line enabled raises
  :class:`SimulationError` (lost-wakeup/reentrancy hazard in real NAPI).
* A context can be scheduled at most once (``scheduled`` latch), and a
  disabled context cannot be scheduled at all.
"""

from collections import deque

from .context import SOFTIRQ
from .errors import SimulationError


class NapiStruct:
    """Per-driver NAPI context; mirrors ``struct napi_struct``."""

    def __init__(self, core, dev, poll, weight=64, irq=None, name=None,
                 cpu=None):
        self._core = core
        self.dev = dev
        self.poll = poll
        self.weight = weight
        self.irq = irq
        # Home CPU (irq affinity): on a multi-CPU kernel this context
        # polls from that CPU's softirq; None = classic shared list.
        self.cpu = cpu
        # Driver-private queue index (multi-queue NICs tag their
        # per-queue contexts; single-queue drivers leave it 0).
        self.queue = 0
        self.name = name or getattr(dev, "name", "napi")
        self.scheduled = False
        self.disabled = True  # drivers must napi_enable() before use
        self._line_masked = False
        # Virtual timestamp of the schedule() that queued this context;
        # consumed by the tracer's IRQ->poll latency histogram.
        self._trace_sched_ns = None
        # Counters (per context).
        self.polls = 0
        self.work_total = 0

    def __repr__(self):
        return "<NapiStruct %s weight=%d%s%s>" % (
            self.name, self.weight,
            " scheduled" if self.scheduled else "",
            " disabled" if self.disabled else "")


class NapiCore:
    """The net-rx softirq: poll list, budget loop, counters."""

    DEFAULT_BUDGET = 300  # netdev_budget: max packets per softirq run

    def __init__(self, kernel, net):
        self._kernel = kernel
        self._net = net
        self.budget = self.DEFAULT_BUDGET
        # Poll lists keyed by CPU index; None is the classic shared
        # list (single-CPU kernels and non-affine contexts).
        self._lists = {None: deque()}
        self._softirq_pending = set()
        self._running = set()
        # Counters (global, across all contexts).
        self.polls = 0
        self.work_total = 0
        self.budget_exhaustions = 0
        self.softirq_runs = 0
        self.schedules = 0
        self.packets_per_poll = {}  # work_done -> count

    @property
    def _list(self):
        """The classic shared poll list (single-CPU compatibility)."""
        return self._lists[None]

    def _key_for(self, napi):
        """Which poll list a context belongs to right now."""
        if napi.cpu is not None and self._kernel.nr_cpus > 1:
            return napi.cpu
        return None

    # -- driver API ----------------------------------------------------------

    def register(self, dev, poll, weight=64, irq=None, name=None, cpu=None):
        """``netif_napi_add``: create a context (still disabled).

        Also ensures the zero-copy skb pool exists (the per-CPU shard
        for affine contexts on an SMP kernel); this runs from the
        driver's open path in process context, where the pool's DMA
        arena may legally be allocated (``dma_alloc_coherent`` sleeps).
        """
        if cpu is not None and self._kernel.nr_cpus > 1:
            self._net.get_skb_pool(cpu)
        elif self._kernel.nr_cpus > 1:
            # Non-affine context on SMP: the shared poll list may run on
            # any CPU's softirq, and the rx path allocates from the
            # polling CPU's shard -- creating one lazily there would be
            # an allocation in atomic context.  Pre-create them all.
            for c in range(self._kernel.nr_cpus):
                self._net.get_skb_pool(c)
        else:
            self._net.get_skb_pool()
        return NapiStruct(self, dev, poll, weight=weight, irq=irq, name=name,
                          cpu=cpu)

    def enable(self, napi):
        napi.disabled = False

    def disable(self, napi):
        """``napi_disable``: unschedule and unmask; poll will not run."""
        napi.disabled = True
        napi.scheduled = False
        for lst in self._lists.values():
            try:
                lst.remove(napi)
            except ValueError:
                pass
        self._unmask(napi)

    def schedule(self, napi):
        """``napi_schedule`` from the interrupt handler.

        Masks the IRQ line, queues the context, raises the softirq.
        Returns True if newly scheduled.
        """
        if napi.disabled or napi.scheduled:
            return False
        napi.scheduled = True
        self.schedules += 1
        tracer = self._kernel.tracer
        if tracer is not None:
            napi._trace_sched_ns = self._kernel.clock.now_ns
            tracer.instant("napi.schedule",
                           {"napi": napi.name, "irq": napi.irq})
        if napi.irq is not None:
            self._kernel.irq.disable_irq(napi.irq)
            napi._line_masked = True
        key = self._key_for(napi)
        lst = self._lists.get(key)
        if lst is None:
            lst = self._lists[key] = deque()
        if napi not in lst:
            lst.append(napi)
        self._raise_softirq(key)
        return True

    def complete(self, napi):
        """``napi_complete``: ring drained; unmask and allow rescheduling."""
        napi.scheduled = False
        self._unmask(napi)

    def _unmask(self, napi):
        if napi._line_masked:
            napi._line_masked = False
            # A cause latched while masked is delivered here, which can
            # re-enter schedule() -- by then `scheduled` is clear again.
            self._kernel.irq.enable_irq(napi.irq)

    # -- softirq -------------------------------------------------------------

    def _raise_softirq(self, key=None):
        """Raise the net-rx softirq for one CPU's poll list.

        ``key`` is a CPU index (the softirq event is targeted there) or
        None for the classic shared list.  One softirq per CPU can be
        pending/running at a time -- per-CPU softirq state, like Linux.
        """
        if key in self._softirq_pending or key in self._running:
            return
        self._softirq_pending.add(key)
        self._kernel.events.schedule_after(
            0, lambda key=key: self._net_rx_action(key),
            context=SOFTIRQ, name="net-rx-softirq", cpu=key
        )

    def _net_rx_action(self, key=None):
        """The budget loop (``net_rx_action`` in Linux)."""
        self._softirq_pending.discard(key)
        kernel = self._kernel
        if not kernel.context.in_softirq():
            raise SimulationError("net_rx_action outside softirq context")
        lst = self._lists.get(key)
        if lst is None:
            return
        if key is not None:
            # Touch this CPU's softirq bookkeeping under its lock
            # (distinct lockdep class per CPU); released before any
            # driver poll runs.
            sl = kernel.cpus[key].softirq_lock
            if sl is not None:
                sl.lock()
                sl.unlock()
        self.softirq_runs += 1
        kernel.charge(kernel.costs.softirq_ns, "softirq")
        tracer = kernel.tracer
        clock = kernel.clock
        run_start_ns = clock.now_ns if tracer is not None else 0
        # Drain run: the whole budget loop runs against hoisted
        # bindings, and the run-wide counters (softirq bookkeeping)
        # are written back once per run instead of once per poll.
        budget = self.budget
        flush_rx_batch = self._net.flush_rx_batch
        irq_disabled = kernel.irq.irq_disabled
        hist = self.packets_per_poll
        polls_this_run = 0
        work_this_run = 0
        poll_start_ns = 0
        self._running.add(key)
        try:
            while lst:
                if budget <= 0:
                    self.budget_exhaustions += 1
                    break
                napi = lst.popleft()
                if napi.disabled or not napi.scheduled:
                    # Stale entry: disabled, or completed and re-queued
                    # by a latched IRQ firing inside napi_complete().
                    continue
                if napi.irq is not None and not irq_disabled(napi.irq):
                    raise SimulationError(
                        "NAPI poll for %s with IRQ %d unmasked" %
                        (napi.name, napi.irq))
                weight = napi.weight if napi.weight < budget else budget
                if tracer is not None:
                    poll_start_ns = clock.now_ns
                work = napi.poll(napi, weight)
                flush_rx_batch()
                if tracer is not None:
                    latency = None
                    if napi._trace_sched_ns is not None:
                        latency = poll_start_ns - napi._trace_sched_ns
                        napi._trace_sched_ns = None
                    tracer.napi_poll_span(poll_start_ns, napi.name, work,
                                          weight, latency)
                napi.polls += 1
                napi.work_total += work
                polls_this_run += 1
                work_this_run += work
                hist[work] = hist.get(work, 0) + 1
                budget -= work
                if napi.scheduled and napi not in lst:
                    # Did not complete: ring still has work; round-robin.
                    # (A latched IRQ inside complete() may have already
                    # re-queued it -- don't create a duplicate entry.)
                    lst.append(napi)
        finally:
            self._running.discard(key)
            self.polls += polls_this_run
            self.work_total += work_this_run
        if tracer is not None:
            tracer.span("softirq.net_rx", run_start_ns,
                        {"polls": polls_this_run,
                         "work": self.budget - budget,
                         "budget_start": self.budget,
                         "budget_left": budget,
                         "requeued": len(lst)},
                        cat="softirq")
        if lst:
            # Out of budget with work pending: yield and re-raise, like
            # ksoftirqd punting to the next softirq iteration.
            self._raise_softirq(key)

    # -- introspection -------------------------------------------------------

    def snapshot(self):
        """Flat kstat view: one ``packets_per_poll.<work_done>`` key per
        histogram bucket, so deltas keep the per-poll distribution."""
        out = {
            "polls": self.polls,
            "work_total": self.work_total,
            "budget_exhaustions": self.budget_exhaustions,
            "softirq_runs": self.softirq_runs,
            "schedules": self.schedules,
        }
        for work, count in self.packets_per_poll.items():
            out["packets_per_poll.%d" % work] = count
        return out
