"""Datapath loop compiler: pre-bound register accessors for hot loops.

``core/marshal.py`` (PR 1) compiled per-struct codecs: resolve the field
layout once, then run a flat closure per crossing.  This module applies
the same technique to the NIC rx/tx inner loops (ROADMAP item 1): at
ring-setup time a driver builds *per-register accessor closures* with
the whole call chain pre-resolved -- the I/O region (one linear
``IoSpace._find`` per ring setup instead of one per access), the device
handler's bound ``read``/``write`` methods, the access cost, and the
event-queue internals the virtual clock advance needs.

Each accessor is observably identical to ``IoSpace.read``/``write``
plus its embedded ``Kernel.consume``: it advances the virtual clock by
the access cost *and fires any event that comes due* (consume is a
sequence point -- link ticks and IRQs land between register accesses),
honours wedged-register fault injection, and emits conformance trace
taps in the same order (reads tap after the device, writes before).
Two bookkeeping streams are batched and written back by :meth:`flush`
instead of paid per access, both read only at reporting time: CPU
accounting (busy-ns + per-category totals) and the io access counters.
The clock itself is *never* batched -- every access advances it exactly
where the interpreted path would, with an inline next-due-event check
deciding between the fast path (no event due before the new time: bump
the clock attribute) and a full ``kernel.consume`` (event due:
identical dispatch order, including events the device handler itself
schedules at the advanced time).

The next-due check itself is amortized through the event queue's
``next_due_memo`` -- a lower bound on the next live event's time that
every insert lowers to its own time.  While ``target < memo`` the
accessor advances the clock with a single comparison; only an access
that reaches the bound re-derives it from the heap and wheel.

Device models may expose ``reg_reader(off, size)`` /
``reg_writer(off, size)`` hooks returning a specialized closure for one
register (or None to decline); the compiler then bypasses the model's
generic ``read``/``write`` dispatch for that register.  The hook's
closure must be behaviourally identical to the generic path and must
stay valid across device resets (models keep their register files
identity-stable for this reason).

On an SMP kernel an accessor can run inside a CPU-targeted event, where
``consume`` defers the advance into the CPU's busy window
(``_pending_charge_ns``) instead of moving the global clock; the fast
path mirrors that branch exactly, so per-queue drains overlap across
CPUs the same way interpreted ones do.

The ablation flag (``compiled=False`` on the rigs / ``make_module``)
skips closure construction entirely, keeping the interpreted loops as
the measured baseline.
"""

import heapq

from .events import FAR_NS as _FAR

_heappop = heapq.heappop


class FastIo:
    """Accessor factory + batched bookkeeping for one compiled loop.

    One instance per compiled closure set (per ring / per queue); all
    accessors built from it share one pending-charge cell, so a single
    :meth:`flush` at drain exit settles the whole run's accounting.
    """

    def __init__(self, kernel, is_mmio, category="io"):
        self._kernel = kernel
        self._is_mmio = is_mmio
        self._category = category
        costs = kernel.costs
        self._cost = costs.mmio_ns if is_mmio else costs.port_io_ns
        # [batched busy-ns, batched access count]
        self._pending = [0, 0]

    def flush(self):
        """Write batched CPU accounting and io counters back."""
        pending = self._pending
        ns, count = pending
        if not count:
            return
        pending[0] = 0
        pending[1] = 0
        kernel = self._kernel
        io = kernel.io
        if self._is_mmio:
            io.mmio_accesses += count
        else:
            io.port_accesses += count
        if ns:
            kernel.cpu.charge(ns, self._category)
            kernel.current_cpu.acct.charge(ns, self._category)

    def _bind(self, addr, size):
        """Resolve the region once; return the pieces accessors share."""
        kernel = self._kernel
        io = kernel.io
        region = io._find(addr, size, self._is_mmio)
        return (kernel, io, region, region.handler, addr - region.base,
                region.name, (1 << (8 * size)) - 1)

    def reader(self, addr, size):
        """Compiled ``IoSpace.read(addr, size)`` for one fixed register."""
        (kernel, io, region, handler, off, rname, mask) = self._bind(
            addr, size)
        mk = getattr(handler, "reg_reader", None)
        hread = mk(off, size) if mk is not None else None
        if hread is None:
            generic = handler.read
            hread = lambda: generic(off, size)  # noqa: E731
        cost = self._cost
        category = self._category
        pending = self._pending
        clock = kernel.clock
        events = kernel.events
        heap = events._heap
        wheel = events._wheel
        wheel_peek = wheel.peek_event
        memo = events.next_due_memo
        consume = kernel.consume
        wedged = io._wedged
        flush = self.flush
        smp = kernel.nr_cpus > 1

        def read():
            # Inlined IoSpace.read + consume; see module docstring.
            pending[1] += 1
            if smp and kernel.current_cpu._defer_depth:
                pending[0] += cost
                kernel.current_cpu._pending_charge_ns += cost
            else:
                target = clock._now_ns + cost
                if target < memo[0]:
                    clock._now_ns = target
                    pending[0] += cost
                else:
                    nxt = _FAR
                    while heap:
                        head = heap[0]
                        if head.cancelled:
                            _heappop(heap)
                            continue
                        nxt = head.time_ns
                        break
                    if wheel._live:
                        front = wheel._front
                        if front is None or front.wheel is not wheel:
                            front = wheel_peek()
                        if front is not None and front.time_ns < nxt:
                            nxt = front.time_ns
                    if nxt <= target:
                        flush()
                        consume(cost, True, category)
                    else:
                        memo[0] = nxt
                        clock._now_ns = target
                        pending[0] += cost
            if wedged:
                forced = wedged.get(addr)
                if forced is not None:
                    return forced & mask
            value = hread() & mask
            tap = io.trace_tap
            if tap is not None:
                tap("r", rname, off, size, value)
            return value

        return read

    def writer(self, addr, size):
        """Compiled ``IoSpace.write(addr, v, size)`` for one register."""
        (kernel, io, region, handler, off, rname, mask) = self._bind(
            addr, size)
        mk = getattr(handler, "reg_writer", None)
        hwrite = mk(off, size) if mk is not None else None
        if hwrite is None:
            generic = handler.write
            hwrite = lambda v: generic(off, v, size)  # noqa: E731
        cost = self._cost
        category = self._category
        pending = self._pending
        clock = kernel.clock
        events = kernel.events
        heap = events._heap
        wheel = events._wheel
        wheel_peek = wheel.peek_event
        memo = events.next_due_memo
        consume = kernel.consume
        wedged = io._wedged
        flush = self.flush
        smp = kernel.nr_cpus > 1

        def write(value):
            pending[1] += 1
            if smp and kernel.current_cpu._defer_depth:
                pending[0] += cost
                kernel.current_cpu._pending_charge_ns += cost
            else:
                target = clock._now_ns + cost
                if target < memo[0]:
                    clock._now_ns = target
                    pending[0] += cost
                else:
                    nxt = _FAR
                    while heap:
                        head = heap[0]
                        if head.cancelled:
                            _heappop(heap)
                            continue
                        nxt = head.time_ns
                        break
                    if wheel._live:
                        front = wheel._front
                        if front is None or front.wheel is not wheel:
                            front = wheel_peek()
                        if front is not None and front.time_ns < nxt:
                            nxt = front.time_ns
                    if nxt <= target:
                        flush()
                        consume(cost, True, category)
                    else:
                        memo[0] = nxt
                        clock._now_ns = target
                        pending[0] += cost
            if wedged and addr in wedged:
                return
            value &= mask
            tap = io.trace_tap
            if tap is not None:
                tap("w", rname, off, size, value)
            hwrite(value)

        return write
