"""SMP conformance: the differential harness on multi-CPU rigs.

With ``smp=N`` every rig runs N virtual CPUs and the e1000 pair
additionally runs multi-queue (per-queue NAPI contexts affined across
CPUs, rx compared as per-queue streams).  The e1000 pair must stay
tier-clean across 10 seeds -- strict and faulty modes both -- and the
sweep digest must be reproducible.
"""

import pytest

from repro.conformance import DifferentialRunner, ScenarioGenerator
from repro.conformance.__main__ import main, mode_for, run_sweep
from repro.family import FAMILIES


@pytest.fixture(scope="module")
def smp_runner():
    return DifferentialRunner(smp=4)


def test_e1000_tier_clean_for_10_seeds(smp_runner):
    for seed in range(10):
        scenario = ScenarioGenerator(seed).generate(
            "e1000", mode=mode_for(seed))
        result = smp_runner.run_pair(scenario)
        assert result.ok, "seed %d (%s):\n%s" % (seed, scenario.mode, "\n".join(
            "[%s] %s" % (d.channel, d.detail) for d in result.divergences))


def _smp_rig(driver, decaf, smp=4):
    """The rig the runner builds for ``driver`` at ``smp`` CPUs."""
    family = FAMILIES[driver]
    return family.rig(decaf, nr_cpus=smp, **family.smp_options(smp))


def test_smp_rig_topology():
    rig = _smp_rig("e1000", decaf=False)
    assert rig.kernel.nr_cpus == 4
    assert rig.device.num_queues == 4
    rig = _smp_rig("8139too", decaf=True)
    assert rig.kernel.nr_cpus == 4  # non-e1000 rigs stay single-queue


def test_multiqueue_rx_recorded_per_queue(smp_runner):
    """Under multi-queue the rx channel is a per-queue stream dict (the
    cross-queue interleave is timing-coupled and excluded by design)."""
    scenario = ScenarioGenerator(0).generate("e1000", mode="strict")
    result = smp_runner.run_pair(scenario)
    assert result.ok
    rx = result.legacy["rx"]
    assert isinstance(rx, dict)
    assert set(rx) == {"q0", "q1", "q2", "q3"}
    assert result.decaf["rx"] == rx


def test_smp_sweep_digest_is_reproducible():
    seeds = range(3)
    _, first, failures = run_sweep(seeds, ["e1000"],
                                   DifferentialRunner(smp=2), echo=lambda *_: None)
    assert not failures
    _, second, _ = run_sweep(seeds, ["e1000"],
                             DifferentialRunner(smp=2), echo=lambda *_: None)
    assert first == second


def test_cli_smp_flag(capsys):
    status = main(["--smp", "2", "--seeds", "2", "--drivers", "e1000"])
    assert status == 0
    out = capsys.readouterr().out
    assert "2 scenario pairs, 0 divergent" in out
