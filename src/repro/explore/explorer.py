"""Systematic exploration driver.

For one driver and a bounded depth ``n`` this builds a fixed base
schedule of ``n`` events (a designed mix of datapath and configuration
work), captures per-event resource footprints
(:mod:`repro.explore.footprint`), prunes the ``n!`` orders to canonical
trace representatives (:mod:`repro.explore.dpor`), and replays every
canonical order through the differential harness along three axes:

* **order** -- the permuted schedule itself, strict mode;
* **fault placements** -- ``xpc_raise`` at the k-th post-setup
  crossing, for every k up to the probe-measured reachable budget
  (placements beyond it are counted as pruned-unreachable);
* **irq-deferral placements** -- all interrupt asserts raised in one
  event's window are gated to the next event boundary (both variants),
  an irq-vs-process interleaving the event order alone cannot express;
  events whose windows raise no interrupts are pruned-unreachable.

State counts satisfy ``explored + pruned == total`` exactly, where
``total = n! * (1 + fault_cap + n)``; the pruning ratio reported is
``total / explored``.  Divergences are minimized with the PR-5 ddmin
machinery and emitted as standalone repro scripts.
"""

import json
import os
import random

from ..conformance.minimize import (minimize_scenario, nobble_import,
                                    write_repro_script)
from ..conformance.runner import DifferentialRunner, RunProbe
from ..conformance.scenario import Scenario
from ..family import FAMILIES
from ..kernel.vtime import NSEC_PER_MSEC
from .dpor import DependencyRelation, enumerate_orders
from .footprint import capture_footprints

def base_events(driver, depth, seed=0):
    """The designed base schedule: ``depth`` events at the family's
    fixed spacing (``explore_gap_ms``).

    Net mixes datapath bursts with configuration ops, which is where
    order-level independence comes from.  Sound, input, and usb
    schedules are homogeneous; their pruning is dominated by the
    unreachable-placement axes.
    """
    family = FAMILIES[driver]
    rng = random.Random("explore:%s:%d" % (driver, seed))
    gap_ns = family.explore_gap_ms * NSEC_PER_MSEC
    return [family.base_event(rng, k, (k + 1) * gap_ns)
            for k in range(depth)]


def reorder_events(events, order):
    """Events permuted into ``order``: slot ``p`` runs ``events[order[p]]``
    at slot ``p``'s original virtual-time offset, so every permutation
    replays on the identical timing grid."""
    times = [ev["t"] for ev in events]
    return [dict(events[oi], t=times[p]) for p, oi in enumerate(order)]


class GateProbe(RunProbe):
    """Defer one event's interrupt asserts to the next event boundary.

    Installed on *both* variants of a pair, so the deferral itself is
    part of the schedule under comparison, not a variant difference.
    """

    def __init__(self, target_index):
        self.target = target_index
        self._active = False

    def begin_run(self, rig, scenario, decaf):
        self._active = False
        rig.kernel.irq.delivery_gate = self._gate

    def _gate(self, irq):
        return self._active

    def begin_event(self, rig, index, event):
        if self._active:
            self._active = False
            rig.kernel.irq.release_gated()
        if index == self.target:
            self._active = True

    def end_events(self, rig, decaf):
        self._active = False
        rig.kernel.irq.release_gated()
        rig.kernel.irq.delivery_gate = None


def run_defer_pair(runner, scenario, defer_event):
    """Run one pair with event ``defer_event``'s irqs gated to the next
    boundary.  Used directly and by generated defer repro scripts."""
    saved = runner.probe
    runner.probe = GateProbe(defer_event)
    try:
        return runner.run_pair(scenario)
    finally:
        runner.probe = saved


class ExploreReport:
    """Everything one exploration produced, JSON-able for EXPERIMENTS."""

    def __init__(self, driver, depth):
        self.driver = driver
        self.depth = depth
        self.events = []
        self.footprints = []
        self.dependent_pairs = []
        self.orders_total = 0
        self.orders_explored = 0
        self.orders_pruned = 0
        self.fault_cap = 0
        self.fault_reachable = 0
        self.defer_axis = 0
        self.defer_reachable = 0
        self.states_total = 0
        self.states_explored = 0
        self.states_pruned_redundant = 0
        self.states_pruned_unreachable = 0
        self.pairs_run = 0
        self.findings = []

    @property
    def states_pruned(self):
        return self.states_pruned_redundant + self.states_pruned_unreachable

    @property
    def pruning_ratio(self):
        return self.states_total / max(1, self.states_explored)

    @property
    def order_ratio(self):
        return self.orders_total / max(1, self.orders_explored)

    @property
    def ok(self):
        return not self.findings

    def to_json(self):
        return {
            "driver": self.driver,
            "depth": self.depth,
            "events": [ev["kind"] for ev in self.events],
            "footprints": [sorted(fp) for fp in self.footprints],
            "dependent_pairs": self.dependent_pairs,
            "orders": {
                "total": self.orders_total,
                "explored": self.orders_explored,
                "pruned": self.orders_pruned,
                "ratio": round(self.order_ratio, 2),
            },
            "fault_axis": {"cap": self.fault_cap,
                           "reachable": self.fault_reachable},
            "defer_axis": {"cap": self.defer_axis,
                           "reachable": self.defer_reachable},
            "states": {
                "total": self.states_total,
                "explored": self.states_explored,
                "pruned_redundant": self.states_pruned_redundant,
                "pruned_unreachable": self.states_pruned_unreachable,
                "ratio": round(self.pruning_ratio, 2),
            },
            "pairs_run": self.pairs_run,
            "findings": self.findings,
        }


class Explorer:
    """Enumerate and replay one driver's bounded schedule space."""

    def __init__(self, driver, depth=6, seed=0, smp=1, fault_cap=3,
                 defer=True, out_dir=None, minimize=True, max_minimize=4,
                 nobble=None, max_recoveries=8):
        if depth < 1 or depth > 8:
            raise ValueError("depth must be 1..8 (got %d)" % depth)
        self.driver = driver
        self.depth = depth
        self.seed = seed
        self.fault_cap = fault_cap
        self.defer = defer
        self.out_dir = out_dir
        self.minimize = minimize
        self.max_minimize = max_minimize
        self.runner = DifferentialRunner(smp=smp, nobble=nobble,
                                         max_recoveries=max_recoveries)

    # -- scenario construction ---------------------------------------------

    def base_scenario(self):
        return Scenario(self.driver, self.seed, "strict",
                        base_events(self.driver, self.depth, self.seed))

    def order_scenario(self, events, order, fault_at=None):
        reordered = reorder_events(events, order)
        if fault_at is None:
            return Scenario(self.driver, self.seed, "strict", reordered)
        return Scenario(self.driver, self.seed, "faulty", reordered,
                        faults=[{"kind": "xpc_raise", "at": fault_at}])

    # -- exploration --------------------------------------------------------

    def run(self, log=None):
        say = log or (lambda msg: None)
        report = ExploreReport(self.driver, self.depth)
        base = self.base_scenario()
        report.events = base.events

        say("probing footprints (%s, depth %d)" % (self.driver, self.depth))
        footprints, event_crossings = capture_footprints(self.runner, base)
        report.footprints = footprints
        deps = DependencyRelation(footprints)
        report.dependent_pairs = deps.dependent_pairs()

        enum = enumerate_orders(deps)
        report.orders_total = enum.total
        report.orders_explored = enum.explored
        report.orders_pruned = enum.pruned

        report.fault_cap = self.fault_cap
        report.fault_reachable = min(self.fault_cap, event_crossings)
        defer_events = [
            k for k, fp in enumerate(footprints)
            if any(r.startswith(("irq:", "serio:")) for r in fp)
        ] if self.defer else []
        # Serio delivers outside the irq controller, so only
        # irq-controller lines are gateable; serio-only events count as
        # unreachable placements.
        gateable = [k for k in defer_events
                    if any(r.startswith("irq:") for r in footprints[k])]
        report.defer_axis = self.depth if self.defer else 0
        report.defer_reachable = len(gateable)

        per_order_axes = 1 + self.fault_cap + report.defer_axis
        report.states_total = enum.total * per_order_axes
        report.states_pruned_redundant = enum.pruned * per_order_axes
        report.states_pruned_unreachable = enum.explored * (
            (self.fault_cap - report.fault_reachable)
            + (report.defer_axis - report.defer_reachable)
        )
        report.states_explored = enum.explored * (
            1 + report.fault_reachable + report.defer_reachable)
        assert (report.states_explored + report.states_pruned
                == report.states_total)

        say("orders: %d canonical of %d (%d pruned); per-order axes: "
            "1 strict + %d fault + %d defer"
            % (enum.explored, enum.total, enum.pruned,
               report.fault_reachable, report.defer_reachable))

        for count, order in enumerate(enum.orders):
            scenario = self.order_scenario(base.events, order)
            result = self.runner.run_pair(scenario)
            report.pairs_run += 1
            if not result.ok:
                self._record(report, "order", scenario, result, order)
            for k in range(1, report.fault_reachable + 1):
                faulty = self.order_scenario(base.events, order, fault_at=k)
                result = self.runner.run_pair(faulty)
                report.pairs_run += 1
                if not result.ok:
                    self._record(report, "fault", faulty, result, order,
                                 fault_at=k)
            for d in gateable:
                # The deferral placement names a *base* event; find its
                # slot in this order so the gate tracks the event, not
                # the position.
                slot = order.index(d)
                result = run_defer_pair(self.runner, scenario, slot)
                report.pairs_run += 1
                if not result.ok:
                    self._record(report, "defer", scenario, result, order,
                                 defer_event=slot)
            if log is not None and (count + 1) % 10 == 0:
                say("  %d/%d orders done, %d pairs, %d findings"
                    % (count + 1, enum.explored, report.pairs_run,
                       len(report.findings)))
        return report

    # -- findings -----------------------------------------------------------

    def _record(self, report, kind, scenario, result, order,
                fault_at=None, defer_event=None):
        finding = {
            "kind": kind,
            "order": list(order),
            "fault_at": fault_at,
            "defer_event": defer_event,
            "divergences": [d.to_json() for d in result.divergences],
            "scenario": scenario.to_json(),
            "repro": None,
        }
        index = len(report.findings)
        report.findings.append(finding)
        if self.out_dir is None:
            return
        nobble = self.runner.nobble
        if nobble is not None:
            try:
                nobble_import(nobble)
            except ValueError as exc:
                finding["repro"] = "not written: %s" % exc
                return
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(
            self.out_dir,
            "repro_%s_%s_%02d.py" % (self.driver, kind, index))
        emit = scenario
        # A defer finding names an event by index, which ddmin would
        # shift, so it is emitted unminimized.
        if kind != "defer" and self.minimize and index < self.max_minimize:
            emit, _runs = minimize_scenario(self.runner, scenario,
                                            max_runs=48)
            finding["minimized_events"] = len(emit.events)
        write_repro_script(emit, result.divergences, path, nobble=nobble,
                           defer_event=defer_event)
        finding["repro"] = path


def explore(driver, depth=6, **kwargs):
    """One-call convenience: build an :class:`Explorer` and run it."""
    return Explorer(driver, depth=depth, **kwargs).run()


def write_report(report, out_dir, name=None):
    """Serialize a report into ``out_dir``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, name or "explore_%s_d%d.json" % (report.driver,
                                                  report.depth))
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
