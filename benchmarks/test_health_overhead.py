"""Health-plane overhead: always-on must be (almost) free.

The contract pinned here (see DESIGN.md "Health plane"):

* **Always-on** (kstat + flight recorder + watchdogs installed): under
  1% of the hottest workload's wall time.  kstat is pull-only and the
  flight recorder is fed from cold paths, so the only recurring cost
  is the periodic watchdog check -- ~100 events per virtual second.

The bound is asserted *analytically* -- the measured per-check
microcost times the counted checks, over the measured baseline wall
time -- so the gate holds independent of machine-to-machine noise.
Wall-clock ratios of interleaved best-of-N runs are reported alongside
(not asserted).  Results for both NICs merge into ``BENCH_health.json``.
"""

import gc
import json
import os
import time

from repro.workloads.netperf import netperf_recv
from repro.workloads.rigs import make_8139too_rig, make_e1000_rig

RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_health.json")

DURATION_S = float(os.environ.get("HEALTH_BENCH_SECONDS", "0.1"))

MAX_ALWAYS_ON_OVERHEAD = 0.01

RIGS = {
    "e1000": lambda health: make_e1000_rig(irq_mode="napi", health=health),
    "rtl8139": lambda health: make_8139too_rig(irq_mode="napi",
                                               health=health),
}


def _recv_once(nic, health=False):
    rig = RIGS[nic](health)
    rig.insmod()
    result = netperf_recv(rig, duration_s=DURATION_S)
    return result, rig


def _bench_wall(fn, repeats=3):
    fn()  # warm-up
    best = float("inf")
    out = None
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return out, best


def _per_call_ns(fn, iterations):
    """Best-effort per-call wall cost of ``fn``, baseline-subtracted."""
    fn()  # warm-up
    t0 = time.perf_counter()
    for _ in range(iterations):
        fn()
    elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(iterations):
        pass
    baseline = time.perf_counter() - t0
    return max(0.0, elapsed - baseline) / iterations * 1e9


def _watchdog_check_cost_ns(rig, iterations=20_000):
    """Wall cost of one real watchdog check on this rig's state."""
    watchdog = rig.kernel.health.watchdog
    watchdog.disarm()
    watchdog.armed = True          # run the full check body...
    event = watchdog._event        # ...without re-arming its one event
    watchdog._event = _NoRearm()
    try:
        return _per_call_ns(watchdog._check, iterations)
    finally:
        watchdog._event = event
        watchdog.armed = False


class _NoRearm:
    """Stands in for the watchdog's recurring event while its check is
    timed in a loop: the check's closing re-arm does nothing."""

    def arm_after(self, _delay_ns):
        pass


def test_health_overhead(table_printer):
    results = {}
    rows = []
    for nic in RIGS:
        (base_res, _), base_wall = _bench_wall(lambda: _recv_once(nic))
        (on_res, on_rig), on_wall = _bench_wall(
            lambda: _recv_once(nic, health=True))

        # Determinism: observing the run must not change it.
        assert on_res.packets == base_res.packets
        kstat = on_rig.kernel.kstat
        assert [kstat.counter("health.watchdog_fires.%s" % kind)
                for kind in ("soft_lockup", "hung_task")] == [0, 0]

        # Analytic always-on bound: the watchdog check is the only
        # recurring cost (kstat pulls nothing, flight is cold-fed).
        checks = on_rig.kernel.health.watchdog.checks
        check_ns = _watchdog_check_cost_ns(on_rig)
        always_on_cost_s = checks * check_ns * 1e-9
        always_on_overhead = always_on_cost_s / base_wall

        rows += [
            (nic, "baseline", "%.3f" % base_wall, "-"),
            (nic, "health on", "%.3f" % on_wall,
             "%.3f%% analytic" % (100 * always_on_overhead)),
        ]

        results["netperf_recv_%s" % nic] = {
            "virtual_duration_s": DURATION_S,
            "baseline_wall_s": base_wall,
            "health_wall_s": on_wall,
            "health_over_baseline": on_wall / base_wall,
            "watchdog_checks": checks,
            "watchdog_check_cost_ns": check_ns,
            "always_on_overhead_fraction": always_on_overhead,
            "packets": base_res.packets,
        }

        assert always_on_overhead < MAX_ALWAYS_ON_OVERHEAD, (
            "%s: always-on health cost %.3f%% of baseline (limit 1%%)"
            % (nic, 100 * always_on_overhead))

    table_printer(
        "health-plane overhead: netperf-recv (%.2g virtual s)" % DURATION_S,
        ["NIC", "Config", "Wall s", "Overhead"],
        rows,
    )

    path = os.path.abspath(RESULT_PATH)
    merged = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                merged = json.load(fh)
        except ValueError:
            merged = {}
    merged.update(results)
    with open(path, "w") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
