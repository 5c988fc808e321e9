"""Golden run of a small mixed fleet: same spec, same counters.

Twenty slots cover every family in both variants (legacy and decaf),
and 60 tick rounds fit three churn waves and six ``xpc_raise`` faults.
Every count the run reports and the final virtual clock are pinned, so
a change to how slots are built, probed, driven, faulted or removed
cannot move the fleet's simulated behaviour unnoticed.
"""

from repro.fleet import FleetHarness, FleetSpec

GOLDEN = {
    "probes": 22,
    "removes": 3,
    "churn_cycles": 2,
    "faults_fired": 6,
    "recoveries": 6,
    "traffic_units": 1264,
    "traffic_lost": 0,
    "clock_ns": 15_145_742_476,
}


def test_small_mixed_fleet_matches_golden():
    spec = FleetSpec(n_devices=20, decaf_fraction=0.5, nr_cpus=2,
                     duration_ms=60, churn_period_ms=20, fault_period_ms=10,
                     seed=3)
    harness = FleetHarness(spec).build()
    pairs = {(s.family, s.decaf) for s in harness.slots}
    assert len(pairs) == 10, "spec no longer covers every family x variant"
    harness.run()
    slots = harness.slots
    observed = {
        "probes": sum(s.probes for s in slots),
        "removes": harness.removes,
        "churn_cycles": harness.churn_cycles,
        "faults_fired": harness.faults_fired(),
        "recoveries": harness.recoveries(),
        "traffic_units": sum(s.traffic_units for s in slots),
        "traffic_lost": sum(s.traffic_lost for s in slots),
        "clock_ns": harness.kernel.clock.now_ns,
    }
    harness.teardown()
    assert observed == GOLDEN
