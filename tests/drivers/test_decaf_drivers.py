"""The five decaf drivers: behaviour, crossings, and Decaf invariants."""

import struct

import pytest

from repro.kernel import SkBuff
from tests.conftest import xmit_all
from repro.kernel.sound import SNDRV_PCM_TRIGGER_START, SNDRV_PCM_TRIGGER_STOP
from repro.kernel.usb import usb_sndbulkpipe
from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
)


class TestDecafRtl8139:
    def test_probe_via_xpc(self):
        rig = make_8139too_rig(decaf=True)
        rig.insmod()
        assert rig.crossings() > 0
        assert rig.netdev().dev_addr == rig.device.mac

    def test_data_path_never_crosses(self):
        rig = make_8139too_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        before = rig.crossings()
        sent, got = [], []
        rig.link.peer_rx = lambda f: sent.append(f)
        rig.kernel.net.rx_sink = lambda d, s: got.append(s)
        xmit_all(rig, dev, [bytes(500)] * 30)
        for i in range(30):
            rig.link.inject(bytes(600))
        rig.kernel.run_for_ms(10)
        assert len(sent) == 30 and len(got) == 30
        assert rig.crossings() == before  # zero crossings on data path

    def test_link_watch_upcalls_from_worker(self):
        rig = make_8139too_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        before = rig.crossings()
        rig.kernel.run_for_s(5)
        assert rig.crossings() > before  # deferred-timer upcalls ran

    def test_init_slower_than_native(self):
        native = make_8139too_rig(decaf=False)
        native.insmod()
        decaf = make_8139too_rig(decaf=True)
        decaf.insmod()
        assert decaf.init_latency_ns > 3 * native.init_latency_ns

    def test_set_mac_address_through_decaf(self):
        rig = make_8139too_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        new_mac = bytes(range(6))
        assert dev.set_mac_address(dev, new_mac) == 0
        # The decaf driver wrote the device's IDR registers.
        assert bytes(rig.device.regs[0:6]) == new_mac


class TestDecafE1000:
    def test_probe_and_open(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        assert rig.kernel.net.dev_open(dev) == 0
        assert dev.dev_addr == rig.device.mac

    def test_config_space_snapshot_crosses_per_dword(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        # 64 dwords read via individual downcalls -> many crossings.
        assert rig.crossings() >= 64
        adapter = rig.module.instance.adapter
        assert len(adapter.config_space) == 64
        assert adapter.config_space[0] & 0xFFFF == 0x8086

    def test_watchdog_runs_in_decaf_driver(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_s(5)
        assert rig.module.instance.decaf.watchdog_runs >= 2
        assert dev.netif_carrier_ok()

    def test_exception_surfaces_as_errno(self):
        """A decaf exception crosses the boundary as a negative errno --
        and a bad EEPROM is *detected*, unlike the legacy driver which
        drops init_hw's error on the floor."""
        rig = make_e1000_rig(decaf=True)
        rig.device.eeprom[3] ^= 0xFFFF
        ret = rig.kernel.modules.insmod(rig.module)
        assert ret < 0

    def test_driver_library_programs_rings(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        lib = rig.module.instance.library
        assert lib.calls >= 4  # configure_tx/rctl/rx/alloc_rx_buffers

    def test_param_validation_via_classes(self):
        rig = make_e1000_rig(decaf=True, options={"TxDescriptors": 100000,
                                                  "RxDescriptors": 128})
        rig.insmod()
        adapter = rig.module.instance.adapter
        assert adapter.tx_ring.count == 256   # invalid -> default
        assert adapter.rx_ring.count == 128   # valid -> applied

    def test_diagnostics_still_served_by_nucleus(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_ms(50)
        assert rig.module.instance.diag_test() == [0, 0, 0, 0, 0]

    def test_data_path_never_crosses(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_ms(60)
        before = rig.crossings()
        for _ in range(50):
            rig.kernel.net.dev_queue_xmit(dev, SkBuff(bytes(1000)))
        for _ in range(50):
            rig.link.inject(bytes(1000))
        rig.kernel.run_for_ms(10)
        assert rig.crossings() == before


class TestDecafEns1371:
    def test_requires_mutex_sound_library(self):
        from repro.kernel import make_kernel
        from repro.devices import Ens1371Device
        from repro.drivers.decaf import ens1371_nucleus

        kernel = make_kernel(sound_use_mutex=False)
        card = Ens1371Device(kernel)
        kernel.pci.add_function(card.pci)
        assert kernel.modules.insmod(ens1371_nucleus.make_module()) != 0

    def test_playback_through_decaf_ops(self):
        rig = make_ens1371_rig(decaf=True)
        rig.insmod()
        sound = rig.kernel.sound
        ss = sound.cards[0].pcms[0].playback
        before = rig.crossings()
        assert sound.pcm_open(ss) == 0
        assert sound.pcm_hw_params(ss, 44100, 2, 2, 4096, 4) == 0
        assert sound.pcm_prepare(ss) == 0
        assert sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_START) == 0
        written = sound.pcm_write(ss, 44100 * 4)
        assert written == 44100 * 4
        assert sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_STOP) == 0
        assert sound.pcm_close(ss) == 0
        start_stop_crossings = rig.crossings() - before
        # Paper: the decaf driver was called 15 times during playback,
        # all at start and end.  Same shape: a handful, not per-period.
        assert 4 <= start_stop_crossings <= 20
        assert ss.runtime.periods_elapsed > 30

    def test_mixer_controls_registered_per_downcall(self):
        rig = make_ens1371_rig(decaf=True)
        rig.insmod()
        card = rig.kernel.sound.cards[0]
        assert len(card.controls) >= 20
        assert rig.crossings() >= len(card.controls)

    def test_pointer_op_stays_kernel(self):
        """snd_pcm_period_elapsed calls pointer in irq context; if it
        upcalled, the context rules would kill the run."""
        rig = make_ens1371_rig(decaf=True)
        rig.insmod()
        sound = rig.kernel.sound
        ss = sound.cards[0].pcms[0].playback
        sound.pcm_open(ss)
        sound.pcm_hw_params(ss, 44100, 2, 2, 4096, 4)
        sound.pcm_prepare(ss)
        sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_START)
        in_period = rig.crossings()
        rig.kernel.run_for_ms(500)  # ~20 period interrupts
        assert rig.crossings() == in_period
        assert ss.runtime.periods_elapsed >= 15


class TestDecafUhci:
    def test_enumerates_and_transfers(self):
        rig = make_uhci_rig(decaf=True)
        rig.insmod()
        dev = rig.kernel.usb.devices[0]
        disk = rig.extra["disk"]
        payload = bytes([7]) * 512
        cmd = struct.pack("<BBHI", 1, 0, 1, 3) + payload
        st_, _n = rig.kernel.usb.usb_bulk_msg(dev, usb_sndbulkpipe(dev, 2), cmd)
        assert st_ == 0
        assert disk.blocks[3] == payload

    def test_urb_path_never_crosses(self):
        rig = make_uhci_rig(decaf=True)
        rig.insmod()
        dev = rig.kernel.usb.devices[0]
        before = rig.crossings()
        for i in range(5):
            cmd = struct.pack("<BBHI", 1, 0, 1, i) + bytes(512)
            rig.kernel.usb.usb_bulk_msg(dev, usb_sndbulkpipe(dev, 2), cmd)
        assert rig.crossings() == before

    def test_suspend_resume(self):
        rig = make_uhci_rig(decaf=True)
        rig.insmod()
        nucleus = rig.module.instance
        uhci = nucleus.state.uhci
        assert nucleus.plumbing.upcall(
            nucleus.decaf.suspend, args=[(uhci, type(uhci))]) == 0
        assert rig.device.sts & 0x20  # halted
        assert nucleus.plumbing.upcall(
            nucleus.decaf.resume, args=[(uhci, type(uhci))]) == 0
        rig.kernel.run_for_ms(5)
        assert not rig.device.sts & 0x20


class TestDecafPsmouse:
    def test_detection_runs_in_decaf(self):
        rig = make_psmouse_rig(decaf=True)
        rig.insmod()
        psmouse = rig.module.instance.state.psmouse
        assert psmouse.name == "IntelliMouse"
        assert psmouse.pktsize == 4
        # Paper: 24 crossings for psmouse init; each PS/2 command is one.
        assert 15 <= rig.crossings() <= 35

    def test_interrupt_decode_stays_kernel(self):
        rig = make_psmouse_rig(decaf=True)
        rig.insmod()
        before = rig.crossings()
        events = []
        rig.module.instance.state.input_dev.sink = (
            lambda evs: events.extend(evs))
        for _ in range(100):
            rig.device.move(1, 1)
        assert rig.crossings() == before
        assert len(events) > 0

    def test_failed_mouse_probe_raises_and_unwinds(self):
        class DeadMouse:
            def handle_byte(self, port, byte):
                pass  # never answers

        from repro.kernel import make_kernel
        from repro.drivers.decaf import psmouse_nucleus

        kernel = make_kernel()
        port = kernel.input.new_serio_port()
        port.attach_device(DeadMouse())
        ret = kernel.modules.insmod(psmouse_nucleus.make_module())
        assert ret < 0
        assert kernel.input.devices == []  # nothing half-registered


class TestE1000ComboLock:
    def test_watchdog_acquires_in_user_mode(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_s(3)
        lock = rig.module.instance.adapter_lock
        assert lock.sem_acquisitions >= 1   # watchdog, user mode
        assert not lock.held

    def test_reinit_holds_lock_and_watchdog_defers(self):
        """While the decaf driver holds the adapter combolock during a
        reinit, the kernel-side watchdog tick defers instead of
        sleeping on the semaphore (section 3.1.3's deferral)."""
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_ms(100)
        nucleus = rig.module.instance

        # Slow down the reinit so watchdog ticks land inside it.
        orig_down = nucleus.k_down

        def slow_down(adapter):
            # Sleep BEFORE stopping the watchdog (k_down cancels it),
            # so ticks land while the decaf driver holds the lock.
            rig.kernel.msleep(4500)  # spans >2 watchdog periods
            return orig_down(adapter)

        nucleus.k_down = slow_down
        try:
            nucleus.stub_tx_timeout(dev)  # -> decaf reinit_locked
        finally:
            nucleus.k_down = orig_down
        assert nucleus.watchdog_skips >= 1
        assert not nucleus.adapter_lock.held
        # Driver still alive afterwards.
        rig.kernel.run_for_s(3)
        assert dev.netif_carrier_ok()


class TestDecafPhyDiagnostics:
    def _hw(self):
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        return rig, rig.module.instance.decaf.hw

    def test_cable_length_matches_legacy(self):
        from repro.drivers.legacy import e1000_hw as legacy_hw
        from repro.workloads import make_e1000_rig as mk

        # Legacy measurement.
        lrig = mk()
        lrig.insmod()
        ret, lo, hi = legacy_hw.e1000_get_cable_length(
            lrig.endpoint.priv.hw)
        assert ret == 0
        # Decaf measurement on an identical device.
        drig, hw = self._hw()
        assert hw.get_cable_length() == (lo, hi)

    def test_polarity_and_downshift(self):
        rig, hw = self._hw()
        assert hw.check_polarity() is False
        assert hw.check_downshift() is False
        rig.device.phy_regs[0x11] |= 0x0020 | 0x0002
        assert hw.check_downshift() is True
        assert hw.check_polarity() is True

    def test_mdi_validation_raises(self):
        from repro.drivers.decaf.exceptions import ConfigException

        rig, hw = self._hw()
        hw.hw.autoneg = 0
        hw.hw.mdix = 1
        with pytest.raises(ConfigException):
            hw.validate_mdi_setting()

    def test_phy_info_carries_diagnostics(self):
        rig, hw = self._hw()
        hw.phy_get_info()
        assert hw.hw.phy_info.cable_length >= 0
        assert hw.hw.phy_info.downshift in (0, 1)
