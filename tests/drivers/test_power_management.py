"""Suspend/resume: power-management paths on both driver generations.

The paper calls initialization, shutdown and power management "ideal
code to move [to Java], as it executes rarely yet contains complicated
logic that is error prone".  Both stacks implement it; these tests
drive a full suspend/resume cycle and verify traffic flows afterwards.
"""

import pytest

from repro.kernel import SkBuff
from tests.conftest import xmit_all
from repro.workloads import make_e1000_rig


class TestLegacySuspendResume:
    def test_cycle_preserves_traffic(self):
        from repro.drivers.legacy import e1000_main

        rig = make_e1000_rig()
        rig.insmod()
        dev = rig.netdev()
        assert rig.kernel.net.dev_open(dev) == 0
        rig.kernel.run_for_ms(60)

        assert e1000_main.e1000_suspend(rig.device.pci) == 0
        assert not rig.device.pci.enabled
        assert e1000_main.e1000_resume(rig.device.pci) == 0
        rig.kernel.run_for_ms(60)

        sent = []
        rig.link.peer_rx = lambda f: sent.append(f)
        xmit_all(rig, dev, [bytes(500)] * 10)
        rig.kernel.run_for_ms(10)
        assert len(sent) == 10

    def test_config_space_round_trips(self):
        from repro.drivers.legacy import e1000_main

        rig = make_e1000_rig()
        rig.insmod()
        adapter = rig.endpoint.priv
        assert e1000_main.e1000_suspend(rig.device.pci) == 0
        saved = list(adapter.config_space)
        assert e1000_main.e1000_resume(rig.device.pci) == 0
        assert adapter.config_space == saved

    def test_suspend_while_down(self):
        from repro.drivers.legacy import e1000_main

        rig = make_e1000_rig()
        rig.insmod()
        assert e1000_main.e1000_suspend(rig.device.pci) == 0
        assert e1000_main.e1000_resume(rig.device.pci) == 0


class TestDecafSuspendResume:
    def test_cycle_runs_in_decaf_driver(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        assert rig.kernel.net.dev_open(dev) == 0
        rig.kernel.run_for_ms(60)
        nucleus = rig.nucleus

        before = rig.crossings()
        assert nucleus.plumbing.up.suspend(nucleus.adapter) == 0
        assert not rig.device.pci.enabled
        assert nucleus.plumbing.up.resume(nucleus.adapter) == 0
        rig.kernel.run_for_ms(60)
        # Suspend+resume is chatty: config-space save AND restore are
        # per-dword kernel calls (128+), exactly the rarely-executed
        # complicated path the paper moves out of the kernel.
        assert rig.crossings() - before > 100

        sent = []
        rig.link.peer_rx = lambda f: sent.append(f)
        xmit_all(rig, dev, [bytes(500)] * 10)
        rig.kernel.run_for_ms(10)
        assert len(sent) == 10

    def test_resume_phy_failure_is_loud(self):
        """Decaf resume propagates a PHY failure; the legacy suspend
        path's unchecked power_down call is one of the analysis's
        ignored-error cases."""
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        nucleus = rig.nucleus
        assert nucleus.plumbing.up.suspend(nucleus.adapter) == 0

        def dead_mdic(value, rig=rig):
            rig.device.regs[0x20] = 0

        rig.device._write_mdic = dead_mdic
        assert nucleus.plumbing.up.resume(nucleus.adapter) < 0

    def test_behaviour_matches_legacy(self):
        from repro.drivers.legacy import e1000_main

        def cycle(decaf):
            rig = make_e1000_rig(decaf=decaf)
            rig.insmod()
            dev = rig.netdev()
            rig.kernel.net.dev_open(dev)
            rig.kernel.run_for_ms(60)
            if decaf:
                nucleus = rig.nucleus
                assert nucleus.plumbing.up.suspend(nucleus.adapter) == 0
                assert nucleus.plumbing.up.resume(nucleus.adapter) == 0
            else:
                assert e1000_main.e1000_suspend(rig.device.pci) == 0
                assert e1000_main.e1000_resume(rig.device.pci) == 0
            rig.kernel.run_for_ms(60)
            sent = []
            rig.link.peer_rx = lambda f: sent.append(f)
            xmit_all(rig, dev, [bytes([7]) * 321] * 5)
            rig.kernel.run_for_ms(10)
            return sent

        assert cycle(False) == cycle(True)
