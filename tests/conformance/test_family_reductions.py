"""The per-family reductions the strict comparison applies.

Each family declares how its register footprint is reduced and which
of its counters may differ by a bound; the runner applies both
generically.  These pin the declarations themselves: the e1000's
per-queue register copies at the 0x100 stride, and the ens1371's
pcmN_periods bound at exactly its value.
"""

import pytest

from repro.conformance import DifferentialRunner, Observation, Scenario
from repro.conformance.runner import write_footprint
from repro.family import FAMILIES

E1000 = FAMILIES["e1000"].footprint


def _writes(offset, *values):
    return [("w", "e1000", offset, 4, value) for value in values]


class TestE1000Footprint:
    def test_queue1_icr_keeps_distinct_values(self):
        # Queue 1's ICR is 0x0C0 + 0x100.
        regs = write_footprint(_writes(0x1C0, 5, 5, 3), E1000)["e1000"]
        assert regs[0x1C0] == [3, 5]

    def test_queue1_rdt_keeps_the_final_position(self):
        # Queue 1's RDT is 0x2818 + 0x100.
        regs = write_footprint(_writes(0x2918, 1, 2, 3), E1000)["e1000"]
        assert regs[0x2918] == [3]

    def test_off_stride_register_keeps_its_sequence(self):
        regs = write_footprint(_writes(0x2898, 1, 1, 2), E1000)["e1000"]
        assert regs[0x2898] == [1, 1, 2]


def _ens1371_pair(legacy_periods, decaf_periods):
    family = FAMILIES["ens1371"]
    scenario = Scenario("ens1371", 0, "strict",
                        [family.base_event(None, 0, 1_000_000)])
    observations = []
    for periods, crossings in ((legacy_periods, 0), (decaf_periods, 1)):
        obs = Observation()
        obs["counters"].update(crossings=crossings, pcm0_periods=periods,
                               device_irqs=0)
        observations.append(obs)
    return scenario, observations


class TestEns1371PeriodBound:
    @pytest.mark.parametrize("delta", [-4, 4])
    def test_delta_at_the_bound_passes(self, delta):
        scenario, (legacy, decaf) = _ens1371_pair(10, 10 + delta)
        assert scenario.events[0]["periods"] == 4
        assert DifferentialRunner()._compare_strict(
            scenario, legacy, decaf) == []

    @pytest.mark.parametrize("delta", [-5, 5])
    def test_delta_past_the_bound_diverges(self, delta):
        scenario, (legacy, decaf) = _ens1371_pair(10, 10 + delta)
        divergences = DifferentialRunner()._compare_strict(
            scenario, legacy, decaf)
        assert [(d.channel, d.detail) for d in divergences] == [
            ("counters", "pcm0_periods: legacy 10 vs decaf %d (bound 4)"
             % (10 + delta))]
