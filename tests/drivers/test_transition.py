"""Incremental conversion: the section 5.3 migration workflow."""

import pytest

from repro.drivers.decaf.plumbing import DecafPlumbing
from repro.drivers.decaf.transition import (
    TransitionError,
    TransitionTable,
)
from repro.kernel import make_kernel


@pytest.fixture
def table(kernel):
    from repro.core.marshal import MarshalPlan

    plumbing = DecafPlumbing(kernel, "8139too", plan=MarshalPlan())
    return TransitionTable(plumbing)


class TestTransitionTable:
    def test_starts_in_library(self, table):
        table.register("check_media", lambda tp: 1)
        assert table.binding("check_media") == "library"
        assert table.conversion_progress() == (0, 1)

    def test_convert_requires_decaf_impl(self, table):
        table.register("check_media", lambda tp: 1)
        with pytest.raises(TransitionError):
            table.convert("check_media")
        table.add_decaf_implementation("check_media", lambda tp: 1)
        table.convert("check_media")
        assert table.binding("check_media") == "decaf"
        assert table.conversion_progress() == (1, 1)

    def test_dispatch_follows_binding(self, table):
        calls = []
        table.register("f", lambda: calls.append("c") or 1,
                        lambda: calls.append("java") or 1)
        table.call("f")
        table.convert("f")
        table.call("f")
        assert calls == ["c", "java"]
        assert table.library_calls == 1
        assert table.decaf_calls == 1

    def test_domains_tracked(self, table):
        domains = table.plumbing.domains
        seen = {}
        table.register("f", lambda: seen.setdefault("c", domains.current),
                        lambda: seen.setdefault("j", domains.current))
        table.call("f")
        table.convert("f")
        table.call("f")
        assert seen == {"c": "driver-lib", "j": "decaf"}

    def test_revert_after_bug(self, table):
        table.register("f", lambda: "good", lambda: "buggy")
        table.convert("f")
        assert table.call("f") == "buggy"
        table.revert("f")
        assert table.call("f") == "good"

    def test_decaf_calls_cross_the_language_boundary(self, table):
        table.register("f", lambda: 0, lambda: 0)
        before = table.plumbing.xpc.lang_crossings
        table.call("f")             # library: no language crossing
        assert table.plumbing.xpc.lang_crossings == before
        table.convert("f")
        table.call("f")             # decaf: one crossing
        assert table.plumbing.xpc.lang_crossings == before + 1

    def test_unknown_function_rejected(self, table):
        with pytest.raises(TransitionError):
            table.call("nope")


class TestCompareMethodology:
    def test_matching_implementations_pass(self, table):
        table.register("f", lambda x: x * 2, lambda x: x + x)
        assert table.compare("f", 21) == 42

    def test_divergence_detected(self, table):
        table.register("f", lambda x: x * 2, lambda x: x * 3)
        with pytest.raises(TransitionError, match="diverges"):
            table.compare("f", 1)

    def test_key_projection(self, table):
        table.register("f", lambda: {"v": 1, "noise": "a"},
                        lambda: {"v": 1, "noise": "b"})
        result = table.compare("f", key=lambda r: r["v"])
        assert result["v"] == 1


class TestIncrementalDriverMigration:
    def test_function_by_function_against_real_hardware(self):
        """The paper's E1000 methodology in miniature: start with all
        user functions in C, convert leaf-first, comparing each
        against the original on the live device model."""
        from repro.core.marshal import MarshalPlan
        from repro.devices import EthernetLink, Rtl8139Device
        from repro.drivers.legacy import rtl8139 as legacy
        from repro.drivers.linuxapi import LinuxApi

        kernel = make_kernel()
        link = EthernetLink(kernel, bits_per_second=100_000_000)
        nic = Rtl8139Device(kernel, link)
        kernel.pci.add_function(nic.pci)
        kernel.pci.request_regions(nic.pci, "t")
        legacy.linux = LinuxApi(kernel)

        tp = legacy.rtl8139_private()
        tp.ioaddr = nic.pci.resource_start(0)

        plumbing = DecafPlumbing(kernel, "8139too", plan=MarshalPlan())
        table = TransitionTable(plumbing)
        rt = plumbing.decaf_rt

        # C versions (the freshly-split driver library)...
        table.register("read_mac", lambda: legacy.read_mac_address(tp) or
                       list(tp.mac_addr))
        table.register("read_bmsr", lambda: legacy.mdio_read(tp, 1))

        # ...then decaf rewrites, one at a time, compared before converting.
        table.add_decaf_implementation(
            "read_mac",
            lambda: [rt.inb(tp.ioaddr + i) for i in range(6)])
        assert table.compare("read_mac") == list(nic.mac)
        table.convert("read_mac")

        table.add_decaf_implementation(
            "read_bmsr", lambda: rt.inw(tp.ioaddr + legacy.BMSR))
        assert table.compare("read_bmsr") == table.call("read_bmsr")
        table.convert("read_bmsr")

        assert table.conversion_progress() == (2, 2)
        assert table.unconverted() == []
