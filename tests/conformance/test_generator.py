"""Scenario generation: deterministic, seed-sensitive, well-formed."""

import pytest

from repro.conformance import (
    DRIVERS,
    ScenarioGenerator,
    canonical_json,
    digest_of,
)
from repro.conformance.minimize import ddmin
from repro.conformance.observe import is_subsequence
from repro.family import FAMILIES


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_same_seed_same_scenario(self, driver):
        a = ScenarioGenerator(7).generate(driver, "strict")
        b = ScenarioGenerator(7).generate(driver, "strict")
        assert canonical_json(a.to_json()) == canonical_json(b.to_json())

    def test_generation_does_not_consume_global_random(self):
        import random

        random.seed(123)
        before = random.random()
        random.seed(123)
        ScenarioGenerator(7).generate("e1000", "strict")
        assert random.random() == before

    def test_different_seeds_differ(self):
        a = ScenarioGenerator(1).generate("e1000", "strict")
        b = ScenarioGenerator(2).generate("e1000", "strict")
        assert canonical_json(a.to_json()) != canonical_json(b.to_json())

    def test_different_drivers_differ(self):
        a = ScenarioGenerator(1).generate("e1000", "strict")
        b = ScenarioGenerator(1).generate("8139too", "strict")
        assert a.events != b.events

    def test_json_roundtrip(self):
        from repro.conformance import Scenario

        a = ScenarioGenerator(3).generate("psmouse", "strict")
        b = Scenario.from_json(a.to_json())
        assert canonical_json(a.to_json()) == canonical_json(b.to_json())


class TestScenarioShape:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_events_are_time_ordered(self, driver):
        scenario = ScenarioGenerator(5).generate(driver, "strict")
        times = [ev["t"] for ev in scenario.events]
        assert times == sorted(times)
        assert len(times) >= 2

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_family_tag(self, driver):
        scenario = ScenarioGenerator(5).generate(driver, "strict")
        assert scenario.family is FAMILIES[driver]

    def test_strict_mode_has_no_faults(self):
        scenario = ScenarioGenerator(5).generate("e1000", "strict")
        assert scenario.faults == []

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_faulty_mode_has_faults(self, driver):
        scenario = ScenarioGenerator(5).generate(driver, "faulty")
        assert scenario.faults
        for fault in scenario.faults:
            assert fault["kind"] == "xpc_raise"
            assert fault["at"] > 0

    def test_mac_addresses_are_locally_administered(self):
        for seed in range(12):
            scenario = ScenarioGenerator(seed).generate("e1000", "strict")
            for ev in scenario.events:
                if ev["kind"] == "config_mac":
                    mac = bytes.fromhex(ev["addr"])
                    assert mac[0] & 0x02  # locally administered
                    assert not mac[0] & 0x01  # not multicast


class TestObserveHelpers:
    def test_canonical_json_is_stable(self):
        assert (canonical_json({"b": 1, "a": [2, {"d": 3, "c": 4}]})
                == canonical_json({"a": [2, {"c": 4, "d": 3}], "b": 1}))

    def test_digest_of_differs_on_content(self):
        assert digest_of({"x": 1}) != digest_of({"x": 2})

    def test_is_subsequence(self):
        assert is_subsequence([], [1, 2, 3])
        assert is_subsequence([1, 3], [1, 2, 3])
        assert is_subsequence([1, 2, 3], [1, 2, 3])
        assert not is_subsequence([3, 1], [1, 2, 3])
        assert not is_subsequence([1, 1], [1, 2, 3])
        assert not is_subsequence([4], [1, 2, 3])


class TestDdmin:
    def test_reduces_to_single_culprit(self):
        items = list(range(20))

        def fails(subset):
            return 13 in subset

        assert ddmin(items, fails) == [13]

    def test_reduces_to_interacting_pair(self):
        items = list(range(16))

        def fails(subset):
            return 3 in subset and 11 in subset

        assert sorted(ddmin(items, fails)) == [3, 11]

    def test_keeps_everything_when_all_needed(self):
        items = [0, 1, 2]

        def fails(subset):
            return len(subset) == 3

        assert ddmin(items, fails) == [0, 1, 2]

    def test_passing_input_returned_unchanged(self):
        assert ddmin([1, 2, 3], lambda subset: False) == [1, 2, 3]
