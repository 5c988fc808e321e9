"""Interrupt controller.

Devices raise interrupts on numbered lines; the controller dispatches the
registered handler immediately (in hardirq context) unless the line or local
interrupts are masked, in which case the interrupt is latched and delivered
on unmask.  ``disable_irq``/``enable_irq`` are the primitives the Decaf
*nuclear runtime* uses to keep the device from interrupting the driver while
the decaf driver runs at user level (paper section 3.1.3).
"""

from .errors import KernelPanic, SimulationError

IRQ_NONE = 0
IRQ_HANDLED = 1


class _IrqLine:
    __slots__ = ("number", "handler", "dev_id", "name", "disable_depth",
                 "pending", "count", "kstat_key")

    def __init__(self, number):
        self.number = number
        self.handler = None
        self.dev_id = None
        self.name = None
        self.disable_depth = 0
        self.pending = False
        self.count = 0  # deliveries on this line (/proc/interrupts style)
        # Pre-rendered kstat key: with thousands of lines the per-line
        # "%d" format in every snapshot shows up in fleet profiles.
        self.kstat_key = "line%d.count" % number


class IrqController:
    def __init__(self, kernel, nr_irqs=32):
        self._kernel = kernel
        self._lines = [_IrqLine(i) for i in range(nr_irqs)]
        self._local_disable_depth = 0
        self._local_pending = set()
        # MSI-X-style affinity: irq number -> target CPU index.  Only
        # meaningful on a multi-CPU kernel; affinitized lines deliver
        # via a CPU-targeted hardirq event instead of synchronously.
        self._affinity = {}
        self.delivered = 0
        self.spurious = 0
        # Observation/steering hooks for repro.explore.  ``raise_tap``
        # (callable(irq)) sees every device assert before masking;
        # ``delivery_gate`` (callable(irq) -> bool) may claim an assert,
        # which is then latched on ``_gated`` until ``release_gated``.
        # Both cost one ``is not None`` test when unset.
        self.raise_tap = None
        self.delivery_gate = None
        self._gated = []
        kernel.kstat.register("irq", self._kstat)

    def _kstat(self):
        out = {"delivered": self.delivered, "spurious": self.spurious}
        for line in self._lines:
            if line.count or line.handler is not None:
                out[line.kstat_key] = line.count
        return out

    def _line(self, irq):
        if not 0 <= irq < len(self._lines):
            raise SimulationError("bad irq number %d" % irq)
        return self._lines[irq]

    # -- driver API ---------------------------------------------------------

    def request_irq(self, irq, handler, name, dev_id=None):
        """Register ``handler(irq, dev_id)`` for a line.  Returns 0 or -EBUSY."""
        from .errors import EBUSY

        line = self._line(irq)
        if line.handler is not None:
            return -EBUSY
        line.handler = handler
        line.dev_id = dev_id
        line.name = name
        return 0

    def rebind_irq(self, irq, handler):
        """Unsupported; kept only because the benchmark's traced run
        (``perfbench/spans.py``) wraps this attribute.

        Drivers bind a line with ``request_irq`` and nothing else.  The
        next change to the benchmark deletes this method together with
        ``kernel/fastpath.py``.
        """
        raise SimulationError("rebind_irq(%d): handlers are bound only by "
                              "request_irq" % irq)

    def free_irq(self, irq, dev_id=None):
        line = self._line(irq)
        line.handler = None
        line.dev_id = None
        line.name = None
        line.pending = False
        # The next request_irq must see the line in hardware-reset
        # state: a mask depth, affinity target, or latched local-pending
        # bit left behind by the previous owner would mask or mis-steer
        # the re-probed driver's interrupts.
        line.disable_depth = 0
        self._affinity.pop(irq, None)
        self._local_pending.discard(irq)
        if self._gated:
            self._gated = [i for i in self._gated if i != irq]

    def disable_irq(self, irq):
        """Mask one line; nests."""
        self._line(irq).disable_depth += 1

    def enable_irq(self, irq):
        line = self._line(irq)
        if line.disable_depth == 0:
            raise SimulationError("enable_irq(%d) without disable" % irq)
        line.disable_depth -= 1
        if line.disable_depth == 0 and line.pending:
            line.pending = False
            self.raise_irq(line.number)

    def irq_disabled(self, irq):
        return self._line(irq).disable_depth > 0

    def irqs_enabled(self):
        """True when local interrupts are unmasked (lockdep usage)."""
        return self._local_disable_depth == 0

    def local_irq_disable(self):
        self._local_disable_depth += 1

    def local_irq_enable(self):
        if self._local_disable_depth == 0:
            raise SimulationError("local_irq_enable without disable")
        self._local_disable_depth -= 1
        if self._local_disable_depth == 0 and self._local_pending:
            self._deliver_local_pending()

    def _deliver_local_pending(self):
        pending = sorted(self._local_pending)
        self._local_pending.clear()
        for irq in pending:
            line = self._line(irq)
            if line.disable_depth != 0:
                line.pending = True
            elif irq in self._affinity and self._kernel.nr_cpus > 1:
                self.raise_irq(irq)
            else:
                self._dispatch(line)

    # -- affinity (MSI-X style) ----------------------------------------------

    def set_affinity(self, irq, cpu):
        """Steer a line's delivery to one CPU (``irq_set_affinity``).

        On a single-CPU kernel this is recorded but delivery stays the
        classic synchronous dispatch.
        """
        kernel = self._kernel
        if not 0 <= cpu < kernel.nr_cpus:
            raise SimulationError(
                "irq %d affinity to nonexistent cpu %d" % (irq, cpu))
        self._line(irq)  # validate the number
        self._affinity[irq] = cpu

    def affinity_of(self, irq):
        return self._affinity.get(irq)

    def _deliver_affine(self, line):
        """Fire an affinitized interrupt on its target CPU.

        Runs as a CPU-targeted event; masks are re-checked at dispatch
        time because the line (or local interrupts) may have been
        disabled between assert and delivery.
        """
        if self._local_disable_depth > 0:
            self._local_pending.add(line.number)
            return
        if line.disable_depth > 0:
            line.pending = True
            return
        self._dispatch(line)

    # -- device API ----------------------------------------------------------

    def raise_irq(self, irq):
        """A device asserts its interrupt line."""
        lines = self._lines
        if 0 <= irq < len(lines):
            line = lines[irq]
        else:
            raise SimulationError("bad irq number %d" % irq)
        if self.raise_tap is not None:
            self.raise_tap(irq)
        if self.delivery_gate is not None and self.delivery_gate(irq):
            self._gated.append(irq)
            return
        kernel = self._kernel
        cpu = self._affinity.get(irq) if self._affinity else None
        if cpu is not None and kernel.nr_cpus > 1:
            # Cross-CPU delivery: post a targeted event; the handler
            # runs on the affinity CPU (context entry happens inside
            # _dispatch, so the event itself is a plain carrier).
            kernel.events.schedule_after(
                0, lambda line=line: self._deliver_affine(line),
                name="irq%d-affine" % irq, cpu=cpu)
            return
        if self._local_disable_depth > 0:
            self._local_pending.add(irq)
            return
        if line.disable_depth > 0:
            line.pending = True
            return
        self._dispatch(line)

    def release_gated(self):
        """Deliver asserts the ``delivery_gate`` deferred, in order.

        The gate is suspended for the duration so the replayed asserts
        take the normal masking/affinity path instead of re-latching.
        Returns the number of asserts released.
        """
        if not self._gated:
            return 0
        gated, self._gated = self._gated, []
        gate, self.delivery_gate = self.delivery_gate, None
        try:
            for irq in gated:
                self.raise_irq(irq)
        finally:
            self.delivery_gate = gate
        return len(gated)

    # -- internal -------------------------------------------------------------

    def _dispatch(self, line):
        kernel = self._kernel
        entry_cost = kernel.costs.irq_entry_ns
        cur = kernel.current_cpu
        # Inlined kernel.charge(entry_cost, "irq"): this is the hottest
        # fixed cost on the interrupt path, so the method calls are
        # traded for raw counter ops.
        acct = cur.acct
        acct._busy_ns += entry_cost
        acct._by_category["irq"] += entry_cost
        agg = kernel.cpu
        if agg is not acct:
            agg._busy_ns += entry_cost
            agg._by_category["irq"] += entry_cost
        handler = line.handler
        tracer = kernel.tracer
        if handler is None:
            self.spurious += 1
            if tracer is not None:
                tracer.instant("irq.spurious", {"irq": line.number})
            return
        entry_ns = kernel.clock.now_ns if tracer is not None else 0
        lockdep = kernel.lockdep
        if lockdep is not None:
            # A spinlock the handler also takes held across this entry
            # is the canonical irq deadlock; report before dispatching.
            lockdep.note_hardirq_entry()
        # The CPU masks local interrupts while a handler runs: a device
        # asserting mid-handler is latched and delivered on return, so
        # handlers never nest (no reentrant ring cleaning).  The mask
        # push/pop is inlined (depth is provably nonzero on the way
        # out, so the enable-side underflow check cannot trip).
        self._local_disable_depth += 1
        context = cur.context
        context._irq_depth += 1
        ret = IRQ_NONE
        try:
            ret = handler(line.number, line.dev_id)
        finally:
            context._irq_depth -= 1
            # Emit before local_irq_enable: a latched IRQ delivered on
            # unmask would otherwise appear *before* this span in the
            # stream while overlapping it in time.
            if tracer is not None:
                tracer.irq_span(entry_ns, line.number, line.name,
                                ret != IRQ_NONE)
            depth = self._local_disable_depth - 1
            self._local_disable_depth = depth
            if depth == 0 and self._local_pending:
                self._deliver_local_pending()
        if ret == IRQ_NONE:
            # Handler declined the interrupt: it counts as spurious
            # only -- /proc/interrupts-style delivery totals cover
            # handled interrupts, so spurious ones are not also rolled
            # into ``delivered``/``line.count``.
            self.spurious += 1
        else:
            self.delivered += 1
            line.count += 1
