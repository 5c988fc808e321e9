"""DriverSlicer: call graph, partitioning, access analysis, codegen."""

import ast

import pytest

from repro.drivers.legacy import e1000_hw, e1000_main, rtl8139
from repro.slicer import (
    DRIVER_CONFIGS,
    build_call_graph,
    conversion_report,
    count_annotations,
    generate_xdr_spec,
    partition_driver,
    split_driver_source,
)
from repro.slicer.accessanalysis import analyze_field_accesses, build_marshal_plan
from repro.slicer.xdrgen import driver_struct_classes


@pytest.fixture(scope="module")
def rtl_graph():
    return build_call_graph([rtl8139])


@pytest.fixture(scope="module")
def rtl_partition(rtl_graph):
    return partition_driver(rtl_graph, DRIVER_CONFIGS["8139too"])


class TestCallGraph:
    def test_functions_discovered(self, rtl_graph):
        assert "rtl8139_open" in rtl_graph.functions
        assert "rtl8139_interrupt" in rtl_graph.functions

    def test_direct_call_edges(self, rtl_graph):
        callees = rtl_graph.callees("rtl8139_interrupt")
        assert "rtl8139_rx" in callees
        assert "rtl8139_tx_interrupt" in callees

    def test_kernel_api_edges(self, rtl_graph):
        info = rtl_graph.functions["rtl8139_open"]
        assert "request_irq" in info.kernel_calls
        assert "dma_alloc_coherent" in info.kernel_calls

    def test_reference_edges(self, rtl_graph):
        info = rtl_graph.functions["rtl8139_init_one"]
        assert "rtl8139_open" in info.references  # dev.open = rtl8139_open

    def test_loc_counted(self, rtl_graph):
        assert rtl_graph.functions["rtl8139_open"].loc > 5
        assert rtl_graph.total_loc() > 200

    def test_cross_module_calls(self):
        graph = build_call_graph([e1000_main, e1000_hw])
        info = graph.functions["e1000_probe"]
        assert "e1000_set_mac_type" in info.driver_calls

    def test_struct_classes_recorded(self, rtl_graph):
        assert "rtl8139_private" in rtl_graph.struct_classes


class TestPartition:
    def test_roots_in_kernel(self, rtl_partition):
        assert "rtl8139_interrupt" in rtl_partition.kernel_funcs
        assert "rtl8139_start_xmit" in rtl_partition.kernel_funcs

    def test_reachability_pulls_helpers(self, rtl_partition):
        # interrupt -> rx -> rx_err -> hw_start: all kernel.
        assert "rtl8139_rx" in rtl_partition.kernel_funcs
        assert "rtl8139_hw_start" in rtl_partition.kernel_funcs

    def test_management_code_moves_out(self, rtl_partition):
        for name in ("rtl8139_open", "rtl8139_close", "rtl8139_init_one",
                     "rtl8139_thread", "mdio_read"):
            assert name in rtl_partition.user_funcs, name

    def test_user_entry_points(self, rtl_partition):
        assert "rtl8139_open" in rtl_partition.user_entry_points
        assert "rtl8139_thread" in rtl_partition.user_entry_points

    def test_kernel_entry_points_include_api(self, rtl_partition):
        assert "linux.request_irq" in rtl_partition.kernel_entry_points
        assert "rtl8139_chip_reset" in rtl_partition.kernel_entry_points

    def test_unknown_root_rejected(self, rtl_graph):
        from repro.slicer.config import SliceConfig

        config = SliceConfig("x", ("rtl8139",), ("no_such_function",))
        with pytest.raises(ValueError):
            partition_driver(rtl_graph, config)

    def test_majority_of_functions_leave_kernel(self):
        """Paper: >75% of functions move out for 4 of 5 drivers."""
        for name in ("8139too", "e1000", "ens1371", "psmouse"):
            report = conversion_report(DRIVER_CONFIGS[name])
            assert report["user_fraction"] > 0.5, name

    def test_uhci_stays_mostly_kernel(self):
        """Paper: only 4% of uhci-hcd could move to Java."""
        report = conversion_report(DRIVER_CONFIGS["uhci_hcd"])
        e1000 = conversion_report(DRIVER_CONFIGS["e1000"])
        assert report["user_fraction"] < e1000["user_fraction"]

    def test_pinned_functions_stay_kernel(self):
        report = conversion_report(DRIVER_CONFIGS["e1000"])
        part = report["partition"]
        for name in ("e1000_intr_test", "e1000_test_intr_handler"):
            assert name in part.kernel_funcs, name


class TestAccessAnalysis:
    def test_reads_and_writes_separated(self):
        config = DRIVER_CONFIGS["e1000"]
        report = conversion_report(config)
        plan = report["marshal_plan"]
        access = plan._accesses["e1000_hw"]
        assert "device_id" in access.all
        assert "mac_addr" in access.writes

    def test_nested_write_marks_container(self):
        config = DRIVER_CONFIGS["e1000"]
        report = conversion_report(config)
        access = report["marshal_plan"]._accesses["e1000_adapter"]
        assert "tx_ring" in access.writes  # adapter.tx_ring.count = ...

    def test_extra_access_merges(self):
        plan = build_marshal_plan(
            {}, extra_access=[("e1000_adapter", "itr", "RW")]
        )
        access = plan._accesses["e1000_adapter"]
        assert "itr" in access.reads and "itr" in access.writes


class TestAnnotations:
    def test_counts(self):
        total, per_struct = count_annotations([e1000_main, e1000_hw])
        assert total >= 5
        assert per_struct["e1000_adapter"] >= 3  # netdev, pdev, config_space

    def test_xvar_detection(self):
        import textwrap
        import types

        from repro.slicer.annotations import find_xvar_annotations

        src = textwrap.dedent('''
            def entry_point(adapter):
                DECAF_RWVAR("rx_csum")
                return 0

            def DECAF_RWVAR(name):
                pass
        ''')
        module = types.ModuleType("fake_drv")
        module.__dict__["__source__"] = src
        import unittest.mock as mock

        with mock.patch("inspect.getsource", return_value=src):
            found = find_xvar_annotations([module])
        assert ("entry_point", "RW", "rx_csum") in found


class TestXdrGen:
    def test_figure3_array_rewrite(self):
        spec = generate_xdr_spec(driver_struct_classes([e1000_main]))
        # The generated wrapper struct from Fig. 3.
        assert "struct array64_uint32_t {" in spec
        assert "uint32_t array[64];" in spec
        assert "array64_uint32_t_ptr config_space;" in spec

    def test_long_long_becomes_hyper(self):
        spec = generate_xdr_spec(driver_struct_classes([e1000_main]))
        assert "unsigned hyper tx_packets;" in spec

    def test_opaque_pointer_commented(self):
        spec = generate_xdr_spec(driver_struct_classes([e1000_main]))
        assert "opaque kernel pointer" in spec

    def test_embedded_struct_reference(self):
        spec = generate_xdr_spec(driver_struct_classes([e1000_main]))
        assert "struct e1000_tx_ring_autoxdr_c tx_ring;" in spec


class TestSplitter:
    def test_both_trees_parse(self, rtl_partition):
        trees = split_driver_source([rtl8139], rtl_partition)
        nucleus_src, library_src = trees["rtl8139"]
        ast.parse(nucleus_src)
        ast.parse(library_src)

    def test_each_function_in_exactly_one_tree(self, rtl_partition):
        trees = split_driver_source([rtl8139], rtl_partition)
        nucleus_src, library_src = trees["rtl8139"]
        nucleus_funcs = {n.name for n in ast.parse(nucleus_src).body
                         if isinstance(n, ast.FunctionDef)}
        library_funcs = {n.name for n in ast.parse(library_src).body
                         if isinstance(n, ast.FunctionDef)}
        assert nucleus_funcs == rtl_partition.kernel_funcs
        assert library_funcs == rtl_partition.user_funcs
        assert not nucleus_funcs & library_funcs

    def test_definitions_survive_in_both(self, rtl_partition):
        """Structs, constants and comments appear in both copies
        (section 3.2.1: readable patched source, shared definitions)."""
        trees = split_driver_source([rtl8139], rtl_partition)
        nucleus_src, library_src = trees["rtl8139"]
        for text in ("class rtl8139_private", "RX_BUF_LEN", "ISR_ROK"):
            assert text in nucleus_src
            assert text in library_src

    def test_moved_functions_marked(self, rtl_partition):
        trees = split_driver_source([rtl8139], rtl_partition)
        nucleus_src, _library_src = trees["rtl8139"]
        assert "[DriverSlicer] rtl8139_open moved to the driver library" \
            in nucleus_src


class TestConversionReport:
    def test_table2_shape(self):
        report = conversion_report(DRIVER_CONFIGS["8139too"])
        assert report["total_loc"] > 0
        assert report["nucleus_funcs"] + report["decaf_funcs"] \
            + report["library_funcs"] == len(report["graph"].functions)
        assert report["annotations"] >= 1

    def test_partial_conversion_accounting(self):
        """Functions not yet converted stay counted in the library."""
        report = conversion_report(DRIVER_CONFIGS["8139too"],
                                   decaf_converted={"rtl8139_open"})
        assert report["decaf_funcs"] == 1
        assert report["library_funcs"] > 0


class TestJavaClassGeneration:
    def test_class_per_struct(self):
        from repro.slicer.xdrgen import generate_java_classes

        classes = generate_java_classes(driver_struct_classes([e1000_main]))
        assert "e1000_adapter" in classes
        assert "e1000_tx_ring" in classes

    def test_public_container_fields(self):
        """Paper: 'containers of public fields for every element of the
        original C structures'."""
        from repro.slicer.xdrgen import generate_java_classes
        from repro.drivers.legacy.e1000_main import e1000_adapter

        classes = generate_java_classes(driver_struct_classes([e1000_main]))
        src = classes["e1000_adapter"]
        for field in e1000_adapter.fields():
            assert ("public" in src) and (" %s;" % field.name in src), \
                field.name

    def test_type_mapping(self):
        from repro.slicer.xdrgen import generate_java_classes

        classes = generate_java_classes(driver_struct_classes([e1000_main]))
        src = classes["e1000_adapter"]
        assert "public int msg_enable;" in src
        assert "public e1000_tx_ring tx_ring;" in src
        assert "public long[] config_space;" in src
        assert "opaque kernel pointer" in src

    def test_no_methods_generated(self):
        """The generated classes 'do not take advantage of Java
        language features' -- pure field containers."""
        from repro.slicer.xdrgen import generate_java_classes

        classes = generate_java_classes(driver_struct_classes([e1000_main]))
        for src in classes.values():
            assert "(" not in src.split("public class", 1)[1].replace(
                "(jrpcgen)", "")
