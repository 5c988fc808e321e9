"""The health plane: kstat + flight recorder + watchdogs.

One object wires the always-on pieces together::

    health = HealthPlane(kernel, dump_dir="health-dumps").install()
    ... run workloads ...
    health.summary()           # kstat snapshot + flight-recorder state

Installed, it costs almost nothing: the kstat registry is pull-only,
the flight recorder is fed from cold paths (printk, boundary faults,
lockdep reports, watchdog fires) or mirrored from an installed tracer,
and the watchdog is one environmental event per ``period_ns`` of
virtual time.  It observes: on a healthy run it changes no counter, no
clock and no crossing (``tests/health/test_health_invariance.py``).
``benchmarks/test_health_overhead.py`` pins the contract: always-on
overhead < 1% of the hottest workload's wall time.

Crash dumps: :meth:`dump` freezes ring + kstat + dmesg tail + per-CPU
state into a dict (and a JSON file when ``dump_dir`` is set).  It is
called on boundary faults, watchdog fires, and lockdep reports;
``python -m repro.health.postmortem`` renders one.
"""

import json
import os

from .flight import FlightRecorder, sanitize
from .watchdog import Watchdogs

DMESG_TAIL_LINES = 100


class HealthPlane:
    def __init__(self, kernel, flight_capacity=None, dump_dir=None,
                 watchdogs=True, **watchdog_thresholds):
        self._kernel = kernel
        self.dump_dir = dump_dir
        self.flight = FlightRecorder(
            kernel, **({} if flight_capacity is None
                       else {"capacity": flight_capacity}))
        self.watchdog = (Watchdogs(kernel, self, **watchdog_thresholds)
                         if watchdogs else None)
        self.dumps = []          # dicts, in fire order (bounded below)
        self.max_dumps = 32
        self.dump_paths = []
        self.supervisors = []    # DriverSupervisors fed by wedge fires
        self.on_watchdog = []    # callbacks: hook(WatchdogEvent)
        self.installed = False

    # -- lifecycle ----------------------------------------------------------

    def install(self):
        if self._kernel.health is not None:
            raise RuntimeError("kernel already has a health plane installed")
        self._kernel.health = self
        kernel = self._kernel
        kernel.kstat.register("health", self._kstat_provider)
        if self.watchdog is not None:
            self.watchdog.arm()
        # A tracer installed before the health plane mirrors from now on.
        tracer = kernel.tracer
        if tracer is not None:
            tracer.flight = self.flight
        self.installed = True
        return self

    def uninstall(self):
        if not self.installed:
            return
        kernel = self._kernel
        if self.watchdog is not None:
            self.watchdog.disarm()
        tracer = kernel.tracer
        if tracer is not None and tracer.flight is self.flight:
            tracer.flight = None
        kernel.kstat.unregister("health", self._kstat_provider)
        kernel.health = None
        self.installed = False

    def _kstat_provider(self):
        out = {
            "flight.recorded": self.flight.recorded,
            "flight.buffered": len(self.flight.ring),
        }
        # Watchdog fires and dumps are kstat.inc'd, as
        # health.watchdog_fires.<kind> and health.dumps_written.
        if self.watchdog is not None:
            out["watchdog.checks"] = self.watchdog.checks
        return out

    # -- registrations ------------------------------------------------------

    def register_supervisor(self, supervisor):
        if supervisor not in self.supervisors:
            self.supervisors.append(supervisor)

    def unregister_supervisor(self, supervisor):
        if supervisor in self.supervisors:
            self.supervisors.remove(supervisor)

    # -- crash-grade hooks --------------------------------------------------
    # Traced, the caller's xpc.fault / lockdep.report instant is already
    # mirrored into the ring: note only untraced (one writer a record).

    def on_boundary_fault(self, driver, callsite, exc):
        """XPC containment marked a driver FAILED: record + dump."""
        if self._kernel.tracer is None:
            self.flight.note("xpc.fault", {
                "driver": driver, "callsite": callsite,
                "exc": type(exc).__name__, "msg": str(exc),
            })
        self.dump("boundary-fault", {
            "driver": driver, "callsite": callsite,
            "exc": type(exc).__name__,
        })

    def on_lockdep_report(self, kind, message):
        if self._kernel.tracer is None:
            self.flight.note("lockdep.report", {"kind": kind, "msg": message})
        self.dump("lockdep:%s" % kind, {"msg": message})

    # -- crash dumps ---------------------------------------------------------

    def dump(self, reason, detail=None):
        """Freeze the flight ring + kstat + dmesg tail + per-CPU state."""
        kernel = self._kernel
        report = {
            "reason": reason,
            "ts_ns": kernel.clock.now_ns,
            "detail": sanitize(detail or {}),
            "ring": [
                {"ts_ns": ts, "cpu": cpu, "name": name,
                 "args": sanitize(args)}
                for ts, cpu, name, args in self.flight.ring
            ],
            "kstat": sanitize(kernel.kstat.snapshot()),
            "dmesg": [
                {"ts_ns": ts, "level": level, "msg": msg}
                for ts, level, msg in kernel.dmesg()[-DMESG_TAIL_LINES:]
            ],
            "cpus": [
                {
                    "index": vcpu.index,
                    "context": vcpu.context.current_context(),
                    "busy_ns": vcpu.acct._busy_ns,
                    "by_category": dict(vcpu.acct._by_category),
                    "busy_until_ns": vcpu.busy_until_ns,
                }
                for vcpu in kernel.cpus
            ],
            "watchdog": (self.watchdog.snapshot()
                         if self.watchdog is not None else None),
            "prior_dumps": kernel.kstat.counter("health.dumps_written"),
        }
        if len(self.dumps) < self.max_dumps:
            self.dumps.append(report)
        kernel.kstat.inc("health.dumps_written")
        tracer = kernel.tracer
        if tracer is not None:
            tracer.instant("health.dump", {"reason": reason})
        path = self._write_dump(report)
        if path is not None:
            report["path"] = path
        return report

    def _write_dump(self, report):
        if self.dump_dir is None:
            return None
        os.makedirs(self.dump_dir, exist_ok=True)
        slug = "".join(c if c.isalnum() or c in "-_" else "-"
                       for c in report["reason"])
        path = os.path.join(
            self.dump_dir,
            "health-dump-%012d-%s.json" % (report["ts_ns"], slug))
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.dump_paths.append(path)
        return path

    # -- summaries ----------------------------------------------------------

    def summary(self):
        """kstat snapshot plus flight-recorder state, in one JSON-ready
        dict.  Dump and watchdog-fire counts are kstat's
        (``health.dumps_written``, ``health.watchdog_fires.<kind>``)."""
        return {
            "kstat": self._kernel.kstat.snapshot(),
            "flight": self.flight.snapshot(),
        }
