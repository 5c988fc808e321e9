"""Case-study analyses (section 5) and evolution machinery (Table 4)."""

import os
import subprocess
import sys

import pytest

from repro.analysis import (
    analyze_error_handling,
    count_exception_usage,
    count_module_loc,
    infrastructure_loc_report,
)
from repro.drivers.decaf import e1000_decaf, e1000_hw_decaf, e1000_param_decaf
from repro.drivers.legacy import e1000_ethtool, e1000_hw, e1000_main, e1000_param
from repro.evolution import (
    apply_patch_series,
    build_e1000_patch_series,
    extend_struct,
)

E1000_LEGACY = [e1000_main, e1000_hw, e1000_param, e1000_ethtool]


@pytest.fixture(scope="module")
def e1000_report():
    return analyze_error_handling(E1000_LEGACY)


class TestErrorHandlingAnalysis:
    def test_finds_ignored_errors(self, e1000_report):
        """The paper found 28 broken-error-handling cases in the real
        14 kLoC driver; ours is ~8x smaller and carries a proportional
        number of genuine ones."""
        assert e1000_report.ignored_count >= 10

    def test_known_case_detected(self, e1000_report):
        callees = {(i.function, i.callee) for i in e1000_report.ignored}
        # e1000_update_eeprom_checksum drops e1000_write_eeprom's result
        # in 2.6.18 -- one of the documented cases.
        assert ("e1000_update_eeprom_checksum", "e1000_write_eeprom") in callees

    def test_checked_call_not_flagged(self, e1000_report):
        """ret_val = f(); if ret_val: return ret_val is NOT ignored."""
        flagged = {(i.function, i.callee) for i in e1000_report.ignored}
        assert ("e1000_phy_reset", "e1000_write_phy_reg") not in flagged

    def test_error_returning_functions_identified(self, e1000_report):
        assert "e1000_read_phy_reg" in e1000_report.error_returning_functions
        assert "e1000_setup_link" in e1000_report.error_returning_functions

    def test_propagation_overhead_measured(self, e1000_report):
        """Paper: 675 lines (~8%) of e1000_hw.c were error plumbing.
        Same shape: a substantial single-digit-to-20% slice."""
        frac = e1000_report.propagation_fraction("e1000_hw")
        assert 0.05 < frac < 0.35

    def test_decaf_version_has_no_propagation_chains(self):
        decaf_report = analyze_error_handling([e1000_hw_decaf])
        assert decaf_report.propagation_lines == 0

    def test_decaf_chip_layer_is_smaller(self):
        """Exception conversion shrinks the chip layer (paper: -8%)."""
        legacy_loc = count_module_loc("repro.drivers.legacy.e1000_hw")
        decaf_loc = count_module_loc("repro.drivers.decaf.e1000_hw_decaf")
        assert decaf_loc < legacy_loc

    def test_exception_usage_counted(self):
        n, classes = count_exception_usage(
            [e1000_decaf, e1000_hw_decaf, e1000_param_decaf])
        assert n >= 10
        assert "PhyException" in classes


class TestInfrastructureLoc:
    def test_report_structure(self):
        report = infrastructure_loc_report()
        assert "Runtime support" in report
        assert "DriverSlicer" in report
        assert report["total"] > 1000

    def test_all_rows_nonzero(self):
        report = infrastructure_loc_report()
        for section in ("Runtime support", "DriverSlicer"):
            for row, loc in report[section].items():
                assert loc > 0, row


class TestEvolution:
    def test_series_is_deterministic(self):
        a = build_e1000_patch_series()
        b = build_e1000_patch_series()
        assert [(p.number, p.target, p.lines_changed) for p in a] == \
            [(p.number, p.target, p.lines_changed) for p in b]

    def test_320_patches(self):
        patches = build_e1000_patch_series()
        assert len(patches) == 320

    def test_table4_distribution(self):
        report, _plan = apply_patch_series(build_e1000_patch_series())
        rows = report.table4_rows()
        # Paper: 4690 decaf / 381 nucleus / 23 interface.
        assert rows["Decaf driver"] > 10 * rows["Driver nucleus"]
        assert rows["Driver nucleus"] > 10 * rows["User/kernel interface"]
        assert abs(rows["Decaf driver"] - 4690) / 4690 < 0.1
        assert abs(rows["Driver nucleus"] - 381) / 381 < 0.2

    def test_series_applies_in_a_fresh_interpreter(self):
        """The series registers the structs it extends itself: Table 4
        must not depend on what the caller imported first."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        code = ("from repro.evolution import apply_patch_series, "
                "build_e1000_patch_series\n"
                "report, _ = apply_patch_series(build_e1000_patch_series())\n"
                "print(report.interface_patches)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "8"

    def test_two_batches(self):
        patches = build_e1000_patch_series()
        r1, _ = apply_patch_series(patches, batches=(1,))
        r2, _ = apply_patch_series(patches, batches=(2,))
        full, _ = apply_patch_series(patches)
        assert r1.patches_applied + r2.patches_applied == full.patches_applied
        assert r1.decaf_lines + r2.decaf_lines == full.decaf_lines

    def test_interface_patch_extends_struct_for_real(self):
        from repro.drivers.legacy.e1000_main import e1000_adapter

        new_cls = extend_struct(e1000_adapter, "rx_csum_test", "U32")
        assert "rx_csum_test" in new_cls._fields_by_name
        # Old fields preserved, annotations included.
        assert "config_space" in new_cls._fields_by_name
        obj = new_cls()
        assert obj.rx_csum_test == 0

    def test_new_field_marshals_only_after_regen(self):
        """The 3.2.4 regeneration workflow: before the DECAF_XVAR
        annotation the new field does not cross; after regen it does."""
        from repro.core.marshal import MarshalCodec, MarshalPlan, TO_USER, FieldAccess
        from repro.drivers.legacy.e1000_main import e1000_adapter

        new_cls = extend_struct(e1000_adapter, "wol_test", "U32")
        obj = new_cls(wol_test=7, msg_enable=3)

        # Plan from before the patch: knows msg_enable, not wol_test.
        stale = MarshalPlan()
        stale.set_access(new_cls.__name__, FieldAccess(reads={"msg_enable"}))
        codec = MarshalCodec(stale)
        out = codec.decode(codec.encode(obj, new_cls, TO_USER),
                           new_cls, TO_USER)
        assert out.wol_test == 0  # not marshaled

        # Regenerated with the annotation.
        from repro.slicer.accessanalysis import build_marshal_plan

        regen = build_marshal_plan(
            {new_cls.__name__: FieldAccess(reads={"msg_enable"})},
            extra_access=[(new_cls.__name__, "wol_test", "RW")],
        )
        codec2 = MarshalCodec(regen)
        out2 = codec2.decode(codec2.encode(obj, new_cls, TO_USER),
                             new_cls, TO_USER)
        assert out2.wol_test == 7

    def test_interface_patches_verified_in_series(self):
        report, plan = apply_patch_series(build_e1000_patch_series())
        assert report.interface_patches == 8
        assert report.regenerations == 8
        # Every added field is in the final plan's access set.
        for new_cls, field_name, mode in report.new_fields:
            access = plan.access_for(new_cls)
            assert access is not None
            assert field_name in access.all
