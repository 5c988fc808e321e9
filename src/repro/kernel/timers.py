"""Kernel timers and deferred work.

Linux timer callbacks run in softirq context at high priority: they must not
sleep, hence the paper's technique of converting driver timers (E1000's
watchdog) into work items executed by a worker thread, which *may* sleep and
may therefore call up into the decaf driver.

:class:`KernelTimer` mirrors ``struct timer_list`` (``mod_timer`` /
``del_timer``); :class:`Workqueue` mirrors ``schedule_work`` with
process-context execution.
"""

from .context import PROCESS, SOFTIRQ


class KernelTimer:
    """A one-shot re-armable kernel timer; callback runs in softirq context."""

    def __init__(self, kernel, function, data=None, name="timer"):
        self._kernel = kernel
        self.function = function
        self.data = data
        self.name = name
        self._event = kernel.events.recurring(
            self._fire, context=SOFTIRQ, name="timer:%s" % name)
        self.fired = 0

    def mod_timer(self, expires_ns):
        """(Re)arm to fire at absolute virtual time ``expires_ns``.

        A pending expiry is cancelled first, so the timer fires once, at
        the latest deadline.  A deadline in the past fires at the next
        dispatch, never earlier than now.
        """
        self.del_timer()
        at_ns = self._event.arm_at(expires_ns)
        tracer = self._kernel.tracer
        if tracer is not None:
            tracer.instant("timer.arm", {"timer": self.name, "at_ns": at_ns})

    def mod_timer_after(self, delay_ns):
        self.mod_timer(self._kernel.clock.now_ns + max(0, delay_ns))

    def del_timer(self):
        """Cancel if pending; returns True if a pending timer was cancelled."""
        if not self._event.cancel():
            return False
        tracer = self._kernel.tracer
        if tracer is not None:
            tracer.instant("timer.cancel", {"timer": self.name})
        return True

    @property
    def pending(self):
        return self._event.pending

    def _fire(self):
        self.fired += 1
        kernel = self._kernel
        tracer = kernel.tracer
        if tracer is None:
            self.function(self.data)
            return
        start_ns = kernel.clock.now_ns
        self.function(self.data)
        tracer.span("timer.fire", start_ns, {"timer": self.name},
                    cat="timer")


class WorkItem:
    """A deferred unit of work executed in process context."""

    def __init__(self, kernel, function, data=None, name="work"):
        self._kernel = kernel
        self.function = function
        self.data = data
        self.name = name
        self._event = kernel.events.recurring(
            self._run, context=PROCESS, name="work:%s" % name,
            needs_sched=True)
        self._queue = None
        self.executed = 0

    @property
    def pending(self):
        return self._event.pending

    def _run(self):
        if self._queue is not None:
            self._queue._pending.discard(self)
            self._queue = None
        self.executed += 1
        kernel = self._kernel
        kernel.charge(kernel.costs.context_switch_ns, "workqueue")
        tracer = kernel.tracer
        if tracer is None:
            self.function(self.data)
            return
        start_ns = kernel.clock.now_ns
        self.function(self.data)
        tracer.span("work.item", start_ns, {"work": self.name},
                    cat="work")


class Workqueue:
    """Mirrors the kernel's shared workqueue (``schedule_work``)."""

    def __init__(self, kernel, name="events"):
        self._kernel = kernel
        self.name = name
        self._pending = set()

    def schedule_work(self, item, delay_ns=0):
        """Queue ``item`` unless already pending; returns True if queued."""
        if item.pending:
            return False
        item._event.arm_after(delay_ns)
        item._queue = self
        self._pending.add(item)
        return True

    def cancel_work(self, item):
        queue = item._queue
        if queue is not None:
            queue._pending.discard(item)
            item._queue = None
        return item._event.cancel()

    def flush(self):
        """Advance virtual time until all currently-queued items have run.

        Only drains *this* queue's pending items; unrelated periodic timers
        in the event queue do not keep flush alive forever.  An item that
        re-schedules itself while flush runs is waited for at most once
        (Linux's flush_workqueue drains the work present at flush time,
        not a self-rearming item's infinite future), so flush always
        terminates.
        """
        waited = set()
        while True:
            batch = [item for item in self._pending if item not in waited]
            if not batch:
                break
            waited.update(batch)
            deadlines = [item._event.due_ns for item in batch
                         if item.pending]
            if not deadlines:
                # Every unwaited item lost its event (cancelled under
                # us); nothing left to advance the clock for.
                break
            self._kernel.run_until(max(deadlines))
