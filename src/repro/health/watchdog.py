"""Stall watchdogs: soft-lockup and hung-task detection in virtual time.

Both detectors run from one periodic checker event on the kernel's
event queue.  The checker is *environmental* (plain event, no
``needs_sched``), so it fires even while the CPU is stuck inside an
interrupt handler -- nested ``run_until`` dispatches it from whatever
``consume`` the stuck code is spinning in.  That is what makes a
soft lockup observable at all in a discrete-event kernel.

Detectors (thresholds are virtual time; see DESIGN.md "Health plane"):

* **soft lockup** -- one event callback has charged more than
  ``soft_lockup_ns`` of busy CPU time without returning.  The kernel
  tracks the busy counter at entry of the outermost in-flight event
  dispatch; if the checker (necessarily nested inside that dispatch)
  sees the delta exceed the threshold, some handler is hogging the
  CPU -- the analog of 20 s in kernel mode with the softirq watchdog
  kthread starved.

* **hung task** -- a running netdev whose TX queue has been stopped
  for more than ``hung_task_ns`` (the driver lost its TX completions:
  classic wedged-device signature).  A netdev whose owning supervisor
  has a recovery pending is skipped: its queue is parked by the
  restart itself, not by a wedge.

There is no detector on XPC deferred-notification queues: a queued
one-way notification waits for the next crossing by design, so a long
wait is healthy, never a hung handler (DESIGN.md "Health plane").

A fire emits a ``health.watchdog`` tracepoint (if traced), a printk
warning, a flight-recorder note + crash dump, and -- for hung-task
fires -- feeds the registered :class:`~repro.recovery.DriverSupervisor`
that owns the stalled netdev via ``note_wedge``, so a stalled decaf
driver is restarted instead of staying silently dead.  Each
(kind, target) stall fires once per episode; the latch clears when the
condition resolves.
"""

# Local constant: this module must not import repro.kernel (the kernel
# core imports repro.health.kstat; keeping health leaf-free of kernel
# imports breaks the cycle).
NSEC_PER_MSEC = 1_000_000

DEFAULT_PERIOD_NS = 10 * NSEC_PER_MSEC
DEFAULT_SOFT_LOCKUP_NS = 100 * NSEC_PER_MSEC
DEFAULT_HUNG_TASK_NS = 100 * NSEC_PER_MSEC


class WatchdogEvent:
    """One watchdog fire (kept on ``Watchdogs.events``)."""

    __slots__ = ("kind", "target", "ts_ns", "detail")

    def __init__(self, kind, target, ts_ns, detail):
        self.kind = kind
        self.target = target
        self.ts_ns = ts_ns
        self.detail = detail

    def as_dict(self):
        return {"kind": self.kind, "target": self.target,
                "ts_ns": self.ts_ns, "detail": dict(self.detail)}


class Watchdogs:
    def __init__(self, kernel, health,
                 period_ns=DEFAULT_PERIOD_NS,
                 soft_lockup_ns=DEFAULT_SOFT_LOCKUP_NS,
                 hung_task_ns=DEFAULT_HUNG_TASK_NS):
        self._kernel = kernel
        self._health = health
        self.period_ns = period_ns
        self.soft_lockup_ns = soft_lockup_ns
        self.hung_task_ns = hung_task_ns
        self.checks = 0
        self.events = []
        self.armed = False
        self._event = None
        # (kind, target) pairs currently in a fired episode.
        self._latched = set()

    # -- lifecycle ----------------------------------------------------------

    def arm(self):
        if self.armed:
            return self
        self.armed = True
        self._schedule()
        return self

    def disarm(self):
        self.armed = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _schedule(self):
        self._event = self._kernel.events.schedule_after(
            self.period_ns, self._check, name="health-watchdog")

    # -- the periodic check -------------------------------------------------

    def _check(self):
        self._event = None
        if not self.armed:
            return
        self.checks += 1
        kernel = self._kernel
        now = kernel.clock.now_ns

        # Soft lockup: the checker runs nested inside the outermost
        # in-flight dispatch (depth > 1 counts the checker itself), and
        # that dispatch has been burning CPU since it entered.  Only
        # *atomic* context counts -- hardirq/softirq, or with spinlocks
        # held: preemptible process context can legitimately run long
        # (a driver restart pays a JVM startup in one work item), just
        # as Linux's watchdog only trips when its kthread is starved.
        cleared = True
        if kernel._dispatch_depth > 1:
            context = kernel.current_cpu.context
            atomic = (context.in_irq() or context.in_softirq()
                      or bool(context._spinlocks_held))
            hog_ns = kernel.cpu._busy_ns - kernel._dispatch_entry_busy_ns
            if atomic and hog_ns >= self.soft_lockup_ns:
                cpu = kernel.current_cpu
                cleared = False
                self._fire("soft_lockup", "cpu%d" % cpu.index, {
                    "busy_ns": hog_ns,
                    "context": context.current_context(),
                    "softirq_dispatches": kernel.softirq_dispatches,
                })
        if cleared:
            for vcpu in kernel.cpus:
                self._latched.discard(("soft_lockup", "cpu%d" % vcpu.index))

        # Hung TX queues: stopped-since timestamps are written by
        # netif_stop_queue on the running->stopped transition only.  A
        # device that is administratively down (ifdown clears IFF_UP
        # before the driver's stop op parks the queue) is not hung, and
        # neither is one whose driver is being restarted.
        net = kernel.net
        if net is not None:
            for dev in net._devices:
                since = dev._stopped_since_ns
                if (since is not None and dev._queue_stopped
                        and dev.netif_running()
                        and not self._recovering(dev)):
                    stalled_ns = now - since
                    if stalled_ns >= self.hung_task_ns:
                        self._fire("hung_task", dev.name, {
                            "queue": "tx",
                            "stalled_ns": stalled_ns,
                            "tx_packets": dev.stats.tx_packets,
                        }, stalled=dev)
                        continue
                self._latched.discard(("hung_task", dev.name))

        if self.armed:
            self._schedule()

    def _recovering(self, netdev):
        return any(supervisor.owns(netdev) and supervisor.recovery_pending()
                   for supervisor in self._health.supervisors)

    # -- firing -------------------------------------------------------------

    def _fire(self, kind, target, detail, stalled=None):
        key = (kind, target)
        if key in self._latched:
            return
        self._latched.add(key)
        kernel = self._kernel
        event = WatchdogEvent(kind, target, kernel.clock.now_ns, detail)
        self.events.append(event)
        kernel.kstat.inc("health.watchdog_fires")
        kernel.kstat.inc("health.watchdog_fires.%s" % kind)
        kernel.printk(
            "health: watchdog %s on %s (%s)" % (
                kind, target,
                ", ".join("%s=%s" % kv for kv in sorted(detail.items()))),
            level="warn",
        )
        health = self._health
        tracer = kernel.tracer
        if tracer is not None:
            # The tracer mirrors every instant into the flight ring, so
            # noting here too would double-record (printk discipline).
            tracer.instant("health.watchdog", {
                "kind": kind, "target": target, **detail})
        else:
            health.flight.note("health.watchdog",
                               {"kind": kind, "target": target, **detail})
        health.dump("watchdog:%s" % kind,
                    {"target": target, **detail})
        for hook in list(health.on_watchdog):
            hook(event)
        if stalled is not None:
            reason = "%s watchdog: %s stalled" % (kind, target)
            for supervisor in list(health.supervisors):
                if supervisor.owns(stalled):
                    supervisor.note_wedge(reason)

    def snapshot(self):
        """State for a crash dump; checks and fires are kstat's
        (``health.watchdog.checks``, ``health.watchdog_fires.<kind>``)."""
        return {
            "armed": self.armed,
            "period_ns": self.period_ns,
            "events": [ev.as_dict() for ev in self.events],
        }
