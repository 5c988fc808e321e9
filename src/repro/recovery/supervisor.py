"""The driver supervisor: restart a FAILED user-level driver half.

Wiring: ``DriverSupervisor(kernel, nucleus)`` attaches itself to the
nucleus's plumbing; the channel's failure policy then reports every
contained fault to :meth:`note_fault`.  Recovery runs either

* **synchronously**, when ``DecafPlumbing.upcall`` catches a
  DriverFailedError and asks the supervisor to recover before retrying
  the call once on the rebuilt user half (the caller never sees the
  fault), or
* **asynchronously**, via a work item scheduled from ``note_fault`` --
  the path taken when the fault surfaces in a deferred-notification
  flush, which has no caller to retry for.

The recovery sequence mirrors the shadow-driver model:

1. ``nucleus.fault_quiesce()`` -- silence the device from the kernel
   side only (no upcalls: the user half is dead), returning an estimate
   of in-flight work discarded (e.g. TX packets in the rings).
2. ``plumbing.restart_user_half()`` -- reset the channel's user side
   and start a fresh runtime (paying JVM startup again).
3. ``nucleus.rebuild_user_half()`` -- fresh library/decaf instances.
4. Replay the recorded configuration log -- probe, open, and the
   latest settings -- by calling each recorded nucleus entry point
   again with its recorded arguments.

A bounded number of recoveries guards against a deterministic fault
looping forever; past the budget the supervisor gives up and the
driver stays FAILED (downcalls keep failing fast).
"""

from ..kernel.timers import WorkItem


class RecoveryError(Exception):
    """A replayed configuration call failed during recovery."""


class WedgedDriverError(Exception):
    """Pseudo-fault recorded when a watchdog reports a wedged driver.

    The driver never raised -- it went silent (lost TX completions) --
    so the watchdog manufactures the fault that puts the channel
    through the normal restart path.
    """


class DriverSupervisor:
    def __init__(self, kernel, nucleus, max_recoveries=3):
        self.kernel = kernel
        self.nucleus = nucleus
        self.plumbing = nucleus.plumbing
        self.max_recoveries = max_recoveries
        self.faults_seen = 0
        self.wedges = 0           # watchdog-reported stalls
        self.recoveries = 0
        self.failed_recoveries = 0
        self.replayed_ops = 0
        self.work_lost = 0        # in-flight units discarded by quiesce
        self.outage_ns = 0        # cumulative fault -> recovered time
        self.last_outage_ns = 0
        self.outage_samples = []  # per-recovery outage ns (p50/p99 source)
        self.in_progress = False
        self.gave_up = False
        self._work = WorkItem(kernel, self._recovery_work, None,
                              name="%s-recovery" % self.plumbing.driver_name)
        self._work_pending = False
        self.plumbing.supervisor = self
        # Some nuclei only run their periodic health poll (the decaf
        # half's mid-workload injection point) once supervised, so that
        # unsupervised rigs keep the seed crossing counts.
        started = getattr(nucleus, "supervision_started", None)
        if started is not None:
            started()
        kernel.kstat.register("recovery", self._kstat)
        health = kernel.health
        if health is not None:
            health.register_supervisor(self)

    def detach(self):
        """Undo every kernel-global registration this supervisor made.

        Hotplug churn builds and discards supervisors with their driver
        instances; without detach each one leaks a kstat provider and a
        health-plane entry, and its pending recovery work item keeps the
        dead instance alive.  Its counts stay in kstat: unregistering
        the provider retires them.
        """
        self.kernel.workqueue.cancel_work(self._work)
        self._work_pending = False
        self.kernel.kstat.unregister("recovery", self._kstat)
        health = self.kernel.health
        if health is not None:
            health.unregister_supervisor(self)
        if self.plumbing.supervisor is self:
            self.plumbing.supervisor = None

    def _kstat(self):
        name = self.plumbing.driver_name
        return {
            "faults_seen": self.faults_seen,
            "%s.faults_seen" % name: self.faults_seen,
            "recoveries": self.recoveries,
            "%s.recoveries" % name: self.recoveries,
            "wedges": self.wedges,
            "failed_recoveries": self.failed_recoveries,
            "work_lost": self.work_lost,
            "gave_up": self.gave_up,
        }

    @property
    def channel(self):
        return self.plumbing.channel

    def recovery_pending(self):
        """True while a contained fault awaits (or is under) recovery.

        Workloads consult this to tell a restart outage apart from a
        genuinely wedged device.
        """
        if self.in_progress or self._work_pending:
            return True
        return self.channel.failed and not self.gave_up

    def note_fault(self, exc, callsite):
        """Fault report from the channel's failure policy."""
        self.faults_seen += 1
        kernel = self.kernel
        name = self.plumbing.driver_name
        kernel.printk(
            "recovery %s: driver fault in %s (%s: %s); restart scheduled"
            % (name, callsite, type(exc).__name__, exc),
            level="err",
        )
        tracer = kernel.tracer
        if tracer is not None:
            tracer.instant("recovery.fault", {
                "driver": name, "callsite": callsite,
                "exc": type(exc).__name__,
            })
        # Async path: sync callers invoke recover() themselves before
        # this work item runs; it then finds a healthy channel and
        # does nothing.
        if not self._work_pending and not self.in_progress:
            self._work_pending = True
            kernel.workqueue.schedule_work(self._work)

    def owns(self, netdev):
        """True when ``netdev`` is this driver's device's ``driver_data``."""
        pdev = getattr(self.nucleus, "pdev", None)
        return pdev is not None and pdev.driver_data is netdev

    def note_wedge(self, reason):
        """Watchdog report: the driver is silently stalled, not faulted.

        Marks the channel FAILED with a :class:`WedgedDriverError`
        pseudo-fault (unless a real fault already did) so the standard
        quiesce/restart/replay machinery applies.  No-op while a
        recovery is already pending or after the supervisor gave up.
        """
        if self.gave_up or self.in_progress or self._work_pending:
            return
        self.wedges += 1
        channel = self.channel
        exc = WedgedDriverError(reason)
        if not channel.failed:
            channel.failed = True
            channel.failure = (exc, "watchdog", self.kernel.clock.now_ns)
        self.note_fault(exc, "watchdog")

    def _recovery_work(self, _data):
        self._work_pending = False
        if self.channel.failed and not self.gave_up:
            self.recover()

    def recover(self):
        """Quiesce, restart, replay.  Returns True when healthy again."""
        if self.in_progress:
            return False
        if not self.channel.failed:
            return True
        if self.gave_up:
            return False
        if self.recoveries >= self.max_recoveries:
            self._give_up("recovery budget (%d) exhausted"
                          % self.max_recoveries)
            return False
        kernel = self.kernel
        name = self.plumbing.driver_name
        start_ns = kernel.clock.now_ns
        failure = self.channel.failure
        fault_ns = failure[2] if failure is not None else start_ns
        self.in_progress = True
        try:
            kernel.printk(
                "recovery %s: restarting user-level driver half" % name,
                level="warn",
            )
            lost = self.nucleus.fault_quiesce()
            self.work_lost += int(lost or 0)
            self.plumbing.restart_user_half()
            self.nucleus.rebuild_user_half()
            self._replay()
        except Exception as exc:
            self.failed_recoveries += 1
            # Whatever state the half-restarted driver is in, it is not
            # trustworthy: leave the channel FAILED.
            self.channel.failed = True
            kernel.printk(
                "recovery %s: restart failed (%s: %s)"
                % (name, type(exc).__name__, exc),
                level="err",
            )
            self._give_up("restart failed")
            return False
        finally:
            self.in_progress = False
        self.recoveries += 1
        self.last_outage_ns = kernel.clock.now_ns - fault_ns
        self.outage_ns += self.last_outage_ns
        self.outage_samples.append(self.last_outage_ns)
        tracer = kernel.tracer
        if tracer is not None:
            tracer.span("recovery.restart", start_ns, {
                "driver": name, "replayed": len(self.plumbing.replay_log),
            })
            tracer.instant("recovery.complete", {
                "driver": name,
                "outage_ms": self.last_outage_ns / 1e6,
                "recoveries": self.recoveries,
            })
        kernel.printk(
            "recovery %s: driver restarted (%d ops replayed, "
            "outage %.3f ms)"
            % (name, len(self.plumbing.replay_log),
               self.last_outage_ns / 1e6),
            level="warn",
        )
        return True

    def _replay(self):
        kernel = self.kernel
        name = self.plumbing.driver_name
        tracer = kernel.tracer
        for fn, args in self.plumbing.replay_log.entries():
            ret = fn(*args)
            self.replayed_ops += 1
            if tracer is not None:
                tracer.instant("recovery.replay", {
                    "driver": name, "op": fn.__name__, "ret": ret,
                })
            if isinstance(ret, int) and ret < 0:
                raise RecoveryError(
                    "replay of %s failed with errno %d" % (fn.__name__, ret)
                )

    def _give_up(self, reason):
        if self.gave_up:
            return
        self.gave_up = True
        name = self.plumbing.driver_name
        self.kernel.printk(
            "recovery %s: giving up (%s); driver stays FAILED"
            % (name, reason),
            level="err",
        )
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("recovery.giveup",
                           {"driver": name, "reason": reason})

    def stats(self):
        return {
            "faults_seen": self.faults_seen,
            "recoveries": self.recoveries,
            "failed_recoveries": self.failed_recoveries,
            "replayed_ops": self.replayed_ops,
            "work_lost": self.work_lost,
            "outage_ms": self.outage_ns / 1e6,
            "gave_up": self.gave_up,
        }
