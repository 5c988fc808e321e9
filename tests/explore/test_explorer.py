"""End-to-end exploration: footprints, pruning ratios, fault axis.

The acceptance criteria this file pins down:

* For the two NIC families the depth-6 schedule space is explored
  exhaustively modulo pruning -- ``explored + pruned == total`` -- with
  a pruning ratio of at least 3x.
* Enumerated fault placements are not vacuous: an ``xpc_raise`` armed
  at a reachable placement actually fires and is recovered.
* The W1C ack-register normalization that exploration surfaced (decaf
  timing legally coalesces two interrupt acks into one) is unit-tested
  directly against ``write_footprint`` and the 8139too family's
  ``footprint`` declaration.
"""

import json

import pytest

from repro.conformance.runner import DifferentialRunner, write_footprint
from repro.conformance.scenario import Scenario
from repro.devices.rtl8139 import ISR
from repro.explore.dpor import DependencyRelation, enumerate_orders
from repro.explore.explorer import Explorer, base_events, write_report
from repro.explore.footprint import capture_footprints
from repro.family import FAMILIES


@pytest.fixture(scope="module")
def runner():
    return DifferentialRunner()


def _depth6_enum(runner, driver):
    scenario = Scenario(driver, 0, "strict", base_events(driver, 6, 0))
    footprints, crossings = capture_footprints(runner, scenario)
    return enumerate_orders(DependencyRelation(footprints)), crossings


class TestPruningRatio:
    @pytest.mark.parametrize("driver", ["e1000", "8139too"])
    def test_depth6_at_least_3x_and_exhaustive(self, runner, driver):
        enum, _crossings = _depth6_enum(runner, driver)
        assert enum.explored + enum.pruned == enum.total == 720
        assert enum.ratio >= 3.0, (
            "%s: pruning ratio %.2f below the 3x acceptance floor"
            % (driver, enum.ratio))

    def test_footprints_are_stable_across_probes(self, runner):
        # The dependency relation feeds soundness: if footprints were
        # nondeterministic the canonical set would be meaningless.
        a, _ = _depth6_enum(runner, "e1000")
        b, _ = _depth6_enum(runner, "e1000")
        assert a.orders == b.orders


class TestExplorerRun:
    @pytest.fixture(scope="class")
    def report(self):
        return Explorer("e1000", depth=4, minimize=False).run()

    def test_state_accounting_invariant(self, report):
        assert (report.states_explored + report.states_pruned
                == report.states_total)
        # The explorer replays exactly the explored states.
        assert report.pairs_run == report.states_explored

    def test_no_findings_on_the_clean_pair(self, report):
        assert report.ok, json.dumps(report.findings[:2], indent=2)

    def test_fault_axis_reachable_not_vacuous(self, report):
        assert report.fault_reachable >= 1

    def test_report_serializes(self, report, tmp_path):
        path = write_report(report, str(tmp_path))
        data = json.loads(open(path).read())
        states = data["states"]
        assert (states["explored"] + states["pruned_redundant"]
                + states["pruned_unreachable"] == states["total"])
        assert data["driver"] == "e1000"

    def test_depth_bounds_enforced(self):
        with pytest.raises(ValueError):
            Explorer("e1000", depth=0)
        with pytest.raises(ValueError):
            Explorer("e1000", depth=9)


class TestFaultAxisFires:
    @pytest.mark.parametrize("driver", ["e1000", "8139too"])
    def test_enumerated_placement_fires_and_recovers(self, runner, driver):
        scenario = Scenario(
            driver, 0, "faulty", base_events(driver, 4, 0),
            faults=[{"kind": "xpc_raise", "at": 1}])
        obs = runner.run_one(scenario, decaf=True)
        counters = obs["counters"]
        assert counters["faults_fired"] >= 1
        assert counters["recoveries"] >= 1
        assert not counters["gave_up"]


RTL8139 = FAMILIES["8139too"].footprint


class TestAckW1cNormalization:
    """Two acks of {ROK} and {TOK} vs one coalesced ack of {ROK|TOK}."""

    def test_8139_isr_is_registered_w1c(self):
        assert ISR == 0x3E
        assert RTL8139[ISR] == "acked"

    def test_split_and_coalesced_acks_compare_equal(self):
        split = [("w", "8139too", 0x3E, 2, 0x0001),
                 ("w", "8139too", 0x3E, 2, 0x0004)]
        coalesced = [("w", "8139too", 0x3E, 2, 0x0005)]
        assert (write_footprint(split, RTL8139)["8139too"][0x3E]
                == write_footprint(coalesced, RTL8139)["8139too"][0x3E]
                == [0x0005])

    def test_non_ack_registers_keep_write_sequences(self):
        trace = [("w", "8139too", 0x44, 4, 1), ("w", "8139too", 0x44, 4, 2),
                 ("r", "8139too", 0x44, 4, 2)]
        assert write_footprint(trace, RTL8139)["8139too"][0x44] == [1, 2]

    def test_distinct_acked_bits_still_diverge(self):
        # Normalization is an OR-union, not an erasure: acking a bit
        # only one variant acked remains a divergence.
        a = [("w", "8139too", 0x3E, 2, 0x0001)]
        b = [("w", "8139too", 0x3E, 2, 0x0003)]
        assert (write_footprint(a, RTL8139)["8139too"][0x3E]
                != write_footprint(b, RTL8139)["8139too"][0x3E])
