"""Fleet scale: a mixed hotplug fleet under one kernel.

One ``make_kernel(nr_cpus=4)`` hosts N device instances spread over
five families (e1000, rtl8139, uhci, ens1371, psmouse), half of them
decaf drivers with supervised user halves.  The harness interleaves
per-device traffic with hotplug churn (remove -> re-probe waves) and
fleet-wide fault injection, then reports sustained event throughput,
bytes of simulator memory per device, and the recovery-latency
distribution.

Gates, declared once below and mirrored in ``tools/bench_trend.py``:

* host speed scales with the work done: sustained simulator events per
  wall second stay above a floor, and wall seconds per virtual ms of
  tick rounds stay under a ceiling.  Both are set from N=128 runs with
  ~3x room for slower hosts; a fleet whose device models fall back to
  per-word interpretation misses both by more than 2x.  Each tick
  round drives N/16 slots, so wall s per virtual ms grows with N and
  its ceiling holds at N <= 128 only; events/s is gated at every N;
* >= 99% of injected faults recover, with p50/p99 outage latency
  recorded (outage = JVM restart + full driver re-init replay, so the
  p99 lands near 2s of *virtual* time -- that is the paper's recovery
  model, not harness slack).

Results go to ``BENCH_fleet.json``.  The default is the N=128 CI scale
(a few wall seconds); ``FLEET_BENCH_DEVICES=1024`` runs the large fleet
EXPERIMENTS.md reports (about a wall minute and a half).
"""

import json
import os

from repro.fleet import FleetHarness, FleetSpec

RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_fleet.json")

N_DEVICES = int(os.environ.get("FLEET_BENCH_DEVICES", "128"))
DURATION_MS = int(os.environ.get("FLEET_BENCH_DURATION_MS", "200"))

MIN_EVENTS_PER_SEC = 4000.0
MAX_WALL_S_PER_VIRTUAL_MS = 0.04
WALL_GATE_MAX_DEVICES = 128
MIN_RECOVERY_RATE = 0.99


def test_fleet_bench(table_printer):
    spec = FleetSpec(n_devices=N_DEVICES, decaf_fraction=0.5, nr_cpus=4,
                     duration_ms=DURATION_MS, fault_period_ms=10,
                     seed=1234)
    harness = FleetHarness(spec)
    harness.measure_build()
    harness.run()
    result = harness.result()
    harness.teardown()

    # Teardown must leave the shared kernel empty: a fleet that can't
    # unwind cleanly would leak across the churn waves too.
    kernel = harness.kernel
    assert len(kernel.net.devices) == 0
    assert len(kernel.usb.devices) == 0
    assert len(kernel.sound.cards) == 0
    assert len(kernel.input.devices) == 0
    assert len(kernel.modules.loaded) == 0

    table_printer(
        "fleet: %d mixed devices, %d CPUs, churn + faults"
        % (N_DEVICES, spec.nr_cpus),
        ["Metric", "Value"],
        [
            ("devices (decaf/legacy)", "%d/%d" % (
                result.extra["decaf_slots"], result.extra["legacy_slots"])),
            ("events/s sustained", "%.0f" % result.events_per_sec),
            ("wall s per virtual ms", "%.4f" % result.wall_s_per_virtual_ms),
            ("sim bytes/device", "%.0f" % result.mem_bytes_per_device),
            ("churn cycles", result.churn_cycles),
            ("probes/removes", "%d/%d" % (
                result.extra["probes"], result.extra["removes"])),
            ("faults -> recoveries", "%d -> %d" % (
                result.faults_injected, result.recoveries)),
            ("recovery rate", "%.3f" % result.recovery_rate),
            ("recovery p50/p99 ms", "%.0f/%.0f" % (
                result.recovery_p50_ms, result.recovery_p99_ms)),
            ("wall s", "%.1f" % result.extra["wall_elapsed_s"]),
        ],
    )

    payload = {
        "config": {
            "n_devices": N_DEVICES,
            "duration_ms": DURATION_MS,
            "nr_cpus": spec.nr_cpus,
            "decaf_fraction": spec.decaf_fraction,
            "seed": spec.seed,
        },
        "events_per_sec": result.events_per_sec,
        "wall_s_per_virtual_ms": result.wall_s_per_virtual_ms,
        "mem_bytes_per_device": result.mem_bytes_per_device,
        "churn_cycles": result.churn_cycles,
        "probes": result.extra["probes"],
        "removes": result.extra["removes"],
        "faults_injected": result.faults_injected,
        "recoveries": result.recoveries,
        "recovery_rate": result.recovery_rate,
        "recovery_p50_ms": result.recovery_p50_ms,
        "recovery_p99_ms": result.recovery_p99_ms,
        "packets": result.packets,
        "kernel_user_crossings": result.kernel_user_crossings,
        "wall_elapsed_s": result.extra["wall_elapsed_s"],
    }
    with open(os.path.abspath(RESULT_PATH), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    assert result.mem_bytes_per_device > 0
    assert result.churn_cycles > 0
    assert result.faults_injected > 0, "no fault ever met a crossing"
    assert result.recovery_rate >= MIN_RECOVERY_RATE, (
        "only %.3f of injected faults recovered" % result.recovery_rate)
    assert result.recovery_p99_ms > 0
    assert result.events_per_sec >= MIN_EVENTS_PER_SEC, (
        "fleet too slow: %.0f events/s" % result.events_per_sec)
    if N_DEVICES <= WALL_GATE_MAX_DEVICES:
        assert result.wall_s_per_virtual_ms <= MAX_WALL_S_PER_VIRTUAL_MS, (
            "fleet too slow: %.4f wall s per virtual ms"
            % result.wall_s_per_virtual_ms)
