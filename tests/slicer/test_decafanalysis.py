"""Future-work extensions: decaf-source analysis and entry-point specs."""

import pytest

from repro.drivers.decaf.e1000_decaf import E1000DecafDriver
from repro.drivers.decaf.e1000_hw_decaf import E1000Hw
from repro.drivers.decaf.ens1371_decaf import Ens1371DecafDriver

# The analysis resolves the struct names in its type hints through the
# struct registry, so the legacy module defining e1000_adapter must be
# loaded (``repro.slicer.plans`` loads it through DRIVER_CONFIGS); the
# decaf driver itself no longer imports it.
from repro.drivers.legacy import e1000_main  # noqa: F401
from repro.slicer import DRIVER_CONFIGS, build_call_graph, partition_driver
from repro.slicer.decafanalysis import (
    analyze_decaf_accesses,
    entry_point_spec,
    merge_accesses,
    parse_entry_point_spec,
)


class TestDecafSourceAnalysis:
    def test_finds_fields_the_decaf_code_touches(self):
        accesses = analyze_decaf_accesses(
            [E1000DecafDriver], {"adapter": "e1000_adapter"})
        adapter = accesses.get("e1000_adapter")
        assert adapter is not None
        # watchdog writes link_speed/link_duplex on the twin.
        assert "link_speed" in adapter.writes
        assert "link_duplex" in adapter.writes
        # init writes config_space.
        assert "config_space" in adapter.writes

    def test_follows_nested_chains(self):
        accesses = analyze_decaf_accesses(
            [E1000DecafDriver], {"adapter": "e1000_adapter"})
        hw = accesses.get("e1000_hw")
        assert hw is not None
        assert "mac_addr" in hw.all  # adapter.hw.mac_addr in set_mac

    def test_ens1371_chip_fields(self):
        accesses = analyze_decaf_accesses(
            [Ens1371DecafDriver], {"chip": "ensoniq"})
        chip = accesses.get("ensoniq")
        assert chip is not None
        assert "sctrl" in chip.writes
        assert "ctrl" in chip.writes
        assert "port" in chip.reads

    def test_merge_unions_reads_and_writes(self):
        from repro.core.marshal import FieldAccess

        a = {"s": FieldAccess(reads={"x"})}
        b = {"s": FieldAccess(writes={"y"}), "t": FieldAccess(reads={"z"})}
        merged = merge_accesses(a, b)
        assert merged["s"].reads == {"x"}
        assert merged["s"].writes == {"y"}
        assert merged["t"].reads == {"z"}

    def test_no_xvar_needed_for_visible_fields(self):
        """The point of the extension: a field only the decaf driver
        touches is picked up without a DECAF_XVAR annotation."""
        from repro.slicer.accessanalysis import analyze_field_accesses

        config = DRIVER_CONFIGS["e1000"]
        modules = config.load_modules()
        graph = build_call_graph(modules)
        partition = partition_driver(graph, config)
        legacy = analyze_field_accesses(modules, partition.user_funcs,
                                        config.type_hints)
        decaf = analyze_decaf_accesses(
            [E1000DecafDriver, E1000Hw],
            {"adapter": "e1000_adapter", "hw": "e1000_hw"})
        merged = merge_accesses(legacy, decaf)
        # watchdog_runs-adjacent fields written only in decaf code are
        # present after the merge.
        assert "link_speed" in merged["e1000_adapter"].writes


class TestEntryPointSpec:
    @pytest.fixture(scope="class")
    def spec(self):
        config = DRIVER_CONFIGS["8139too"]
        graph = build_call_graph(config.load_modules())
        partition = partition_driver(graph, config)
        return entry_point_spec("8139too", partition, config.type_hints)

    def test_sections_present(self, spec):
        assert "[user-entry-points]" in spec
        assert "[kernel-entry-points]" in spec
        assert "[marshaled-types]" in spec

    def test_entry_points_listed_with_types(self, spec):
        assert "rtl8139_open(dev)" in spec
        assert "rtl8139_chip_reset(tp: rtl8139_private)" in spec
        assert "linux.request_irq" in spec

    def test_round_trip(self, spec):
        parsed = parse_entry_point_spec(spec)
        assert "rtl8139_open" in parsed["user-entry-points"]
        assert "rtl8139_chip_reset" in parsed["kernel-entry-points"]
        assert "rtl8139_private" in parsed["marshaled-types"]

    def test_spec_covers_every_entry_point(self, spec):
        config = DRIVER_CONFIGS["8139too"]
        graph = build_call_graph(config.load_modules())
        partition = partition_driver(graph, config)
        parsed = parse_entry_point_spec(spec)
        assert set(parsed["user-entry-points"]) == partition.user_entry_points


class TestUnreadableDecafClass:
    def test_class_without_source_is_an_error_naming_it(self):
        """A class whose source ``inspect`` cannot read used to be
        skipped, silently dropping its decaf-only fields from the plan."""
        ghost = type("GhostDecafDriver", (), {
            "open": lambda self, adapter: adapter.link_speed})
        with pytest.raises(ValueError, match="GhostDecafDriver"):
            analyze_decaf_accesses([ghost], {"adapter": "e1000_adapter"})
