"""The five legacy drivers, end to end against their device models."""

import struct

import pytest

from repro.kernel import SkBuff
from tests.conftest import xmit_all
from repro.kernel.sound import SNDRV_PCM_TRIGGER_START, SNDRV_PCM_TRIGGER_STOP
from repro.kernel.usb import usb_rcvbulkpipe, usb_sndbulkpipe
from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
)


class TestRtl8139Legacy:
    def test_probe_registers_netdev(self):
        rig = make_8139too_rig()
        rig.insmod()
        dev = rig.netdev()
        assert dev is not None
        assert dev.dev_addr == rig.device.mac

    def test_tx_rx_roundtrip(self):
        rig = make_8139too_rig()
        rig.insmod()
        dev = rig.netdev()
        assert rig.kernel.net.dev_open(dev) == 0
        sent, got = [], []
        rig.link.peer_rx = lambda f: sent.append(f)
        rig.kernel.net.rx_sink = lambda d, s: got.append(s.data)
        xmit_all(rig, dev, [bytes([i]) * 200 for i in range(20)])
        for i in range(20):
            rig.link.inject(bytes([0x80 + i]) * 300)
        rig.kernel.run_for_ms(50)
        assert len(sent) == 20
        assert got == [bytes([0x80 + i]) * 300 for i in range(20)]
        assert dev.stats.tx_packets == 20
        assert dev.stats.rx_packets == 20
        rig.kernel.net.dev_close(dev)

    def test_small_frames_padded_to_ethernet_minimum(self):
        rig = make_8139too_rig()
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        sent = []
        rig.link.peer_rx = lambda f: sent.append(f)
        rig.kernel.net.dev_queue_xmit(dev, SkBuff(b"hi"))
        rig.kernel.run_for_ms(1)
        assert len(sent[0]) >= 60

    def test_flow_control_wakes_queue(self):
        rig = make_8139too_rig()
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        # Fill all four tx slots without letting completions run.
        count = 0
        while not dev.netif_queue_stopped() and count < 10:
            rig.kernel.net.dev_queue_xmit(dev, SkBuff(bytes(1500)))
            count += 1
        assert dev.netif_queue_stopped()
        rig.kernel.run_for_ms(5)
        assert not dev.netif_queue_stopped()
        assert dev.tx_queue_wakeups >= 1

    def test_rmmod_clean(self):
        rig = make_8139too_rig()
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.net.dev_close(dev)
        rig.rmmod(check_leaks=True)  # all DMA freed

    def test_link_watch_timer_runs(self):
        rig = make_8139too_rig()
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_s(5)
        assert dev.priv._kstate.thread_timer.fired >= 2


class TestE1000Legacy:
    def test_mac_read_from_eeprom(self):
        rig = make_e1000_rig()
        rig.insmod()
        assert rig.netdev().dev_addr == rig.device.mac

    def test_eeprom_checksum_validated(self):
        rig = make_e1000_rig()
        rig.device.eeprom[3] ^= 0xFFFF  # corrupt
        assert rig.kernel.modules.insmod(rig.module) != 0

    def test_tx_rx_roundtrip(self):
        rig = make_e1000_rig()
        rig.insmod()
        dev = rig.netdev()
        assert rig.kernel.net.dev_open(dev) == 0
        rig.kernel.run_for_ms(50)
        sent, got = [], []
        rig.link.peer_rx = lambda f: sent.append(f)
        rig.kernel.net.rx_sink = lambda d, s: got.append(s.data)
        for i in range(100):
            assert rig.kernel.net.dev_queue_xmit(
                dev, SkBuff(bytes([i & 0xFF]) * 1000)) == 0
        for i in range(100):
            rig.link.inject(bytes([i & 0xFF]) * 900)
        rig.kernel.run_for_ms(50)
        assert len(sent) == 100
        assert len(got) == 100
        assert got[55] == bytes([55]) * 900

    def test_watchdog_maintains_carrier(self):
        rig = make_e1000_rig()
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_s(3)
        assert dev.netif_carrier_ok()
        assert rig.kernel.net.find("eth0").stats is dev.stats

    def test_change_mtu_validates(self):
        rig = make_e1000_rig()
        rig.insmod()
        dev = rig.netdev()
        from repro.drivers.legacy.e1000_main import e1000_change_mtu

        assert e1000_change_mtu(dev, 50) < 0
        assert e1000_change_mtu(dev, 9000) == 0
        assert dev.mtu == 9000

    def test_ethtool_diagnostics_pass(self):
        from repro.drivers.legacy import e1000_ethtool

        rig = make_e1000_rig()
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_ms(50)
        results = e1000_ethtool.e1000_diag_test(dev)
        assert results == [0, 0, 0, 0, 0]

    def test_intr_test_exercises_the_data_race_pattern(self):
        """The interrupt test waits for the irq handler to update
        test_icr -- works in the kernel, impossible from decaf."""
        from repro.drivers.legacy import e1000_ethtool

        rig = make_e1000_rig()
        rig.insmod()
        dev = rig.netdev()
        rig.kernel.net.dev_open(dev)
        rig.kernel.run_for_ms(50)
        assert e1000_ethtool.e1000_intr_test(dev.priv) == 0
        # The shared variable really was written from irq context.
        assert e1000_ethtool.test_icr["value"] != 0


class TestEns1371Legacy:
    def test_codec_vendor_probed(self):
        rig = make_ens1371_rig()
        rig.insmod()
        assert rig.endpoint.pcm.private_data.codec_vendor == 0x43525914

    def test_mixer_controls_registered(self):
        rig = make_ens1371_rig()
        rig.insmod()
        card = rig.kernel.sound.cards[0]
        assert len(card.controls) >= 20
        assert "Master Playback Volume" in card.controls

    def test_playback_pipeline(self):
        rig = make_ens1371_rig()
        rig.insmod()
        sound = rig.kernel.sound
        ss = rig.kernel.sound.cards[0].pcms[0].playback
        assert sound.pcm_open(ss) == 0
        assert sound.pcm_hw_params(ss, 44100, 2, 2, 4096, 4) == 0
        assert sound.pcm_prepare(ss) == 0
        assert sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_START) == 0
        written = sound.pcm_write(ss, 44100 * 4)  # 1 second
        assert written == 44100 * 4
        assert ss.runtime.periods_elapsed > 30
        assert rig.device.period_interrupts == ss.runtime.periods_elapsed
        assert sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_STOP) == 0
        assert sound.pcm_close(ss) == 0

    def test_rate_programmed_through_src(self):
        rig = make_ens1371_rig()
        rig.insmod()
        sound = rig.kernel.sound
        ss = rig.kernel.sound.cards[0].pcms[0].playback
        sound.pcm_open(ss)
        sound.pcm_hw_params(ss, 22050, 2, 2, 4096, 4)
        assert rig.device.src_ram[0x75 % 128] == 22050


class TestUhciLegacy:
    def test_device_enumerated(self):
        rig = make_uhci_rig()
        rig.insmod()
        assert len(rig.kernel.usb.devices) == 1
        assert rig.kernel.usb.devices[0].address == 1

    def test_bulk_write_read(self):
        rig = make_uhci_rig()
        rig.insmod()
        dev = rig.kernel.usb.devices[0]
        disk = rig.extra["disk"]
        payload = bytes(range(256)) * 4
        cmd = struct.pack("<BBHI", 1, 0, 2, 10) + payload
        st_, n = rig.kernel.usb.usb_bulk_msg(dev, usb_sndbulkpipe(dev, 2), cmd)
        assert st_ == 0
        assert disk.blocks[10] == payload[:512]
        rig.kernel.usb.usb_bulk_msg(
            dev, usb_sndbulkpipe(dev, 2), struct.pack("<BBHI", 2, 0, 2, 10))
        buf = bytearray(1024)
        st_, n = rig.kernel.usb.usb_bulk_msg(dev, usb_rcvbulkpipe(dev, 1), buf)
        assert st_ == 0 and n == 1024
        assert bytes(buf) == payload

    def test_transfer_to_absent_device_fails(self):
        rig = make_uhci_rig()
        rig.insmod()
        dev = rig.kernel.usb.devices[0]
        dev.address = 99  # no such address on the bus
        st_, _n = rig.kernel.usb.usb_bulk_msg(
            dev, usb_sndbulkpipe(dev, 2), b"\x00" * 16)
        assert st_ != 0

    def test_rmmod_halts_controller(self):
        rig = make_uhci_rig()
        rig.insmod()
        rig.rmmod()
        assert rig.device.sts & 0x20  # HCHALTED


class TestPsmouseLegacy:
    def test_intellimouse_detected(self):
        rig = make_psmouse_rig()
        rig.insmod()
        psmouse = rig.extra["port"].drvdata
        assert psmouse.name == "IntelliMouse"
        assert psmouse.pktsize == 4

    def test_plain_mouse_detected_without_extension(self):
        rig = make_psmouse_rig()
        rig.device.intellimouse_capable = False
        rig.insmod()
        psmouse = rig.extra["port"].drvdata
        assert psmouse.name == "PS/2 Mouse"
        assert psmouse.pktsize == 3

    def test_movement_events(self):
        from repro.drivers.legacy import psmouse as drv

        rig = make_psmouse_rig()
        rig.insmod()
        events = []
        rig.endpoint.sink = lambda evs: events.extend(evs)
        rig.device.move(10, -4, buttons=0b101)
        assert (drv.EV_REL, drv.REL_X, 10) in events
        assert (drv.EV_REL, drv.REL_Y, -4) in events
        assert (drv.EV_KEY, drv.BTN_LEFT, 1) in events
        assert (drv.EV_KEY, drv.BTN_MIDDLE, 1) in events

    def test_rate_and_resolution_programmed(self):
        rig = make_psmouse_rig()
        rig.insmod()
        assert rig.device.sample_rate == 100
        assert rig.device.resolution == 3  # 200 dpi -> code 3
        assert rig.device.reporting

    def test_disconnect_disables_reporting(self):
        rig = make_psmouse_rig()
        rig.insmod()
        rig.rmmod()
        assert not rig.device.reporting


class TestE1000PhyDiagnostics:
    def _hw(self):
        rig = make_e1000_rig()
        rig.insmod()
        return rig, rig.endpoint.priv.hw

    def test_cable_length_m88(self):
        from repro.drivers.legacy import e1000_hw

        rig, hw = self._hw()
        ret, lo, hi = e1000_hw.e1000_get_cable_length(hw)
        assert ret == 0
        assert (lo, hi) in e1000_hw.M88_CABLE_LENGTH

    def test_polarity_normal(self):
        from repro.drivers.legacy import e1000_hw

        rig, hw = self._hw()
        ret, reversed_ = e1000_hw.e1000_check_polarity(hw)
        assert ret == 0
        assert reversed_ == 0  # model reports normal polarity

    def test_downshift_detection(self):
        from repro.drivers.legacy import e1000_hw

        rig, hw = self._hw()
        ret, downshift = e1000_hw.e1000_check_downshift(hw)
        assert ret == 0
        assert downshift in (0, 1)
        # Flip the downshift bit in the model and observe it.
        rig.device.phy_regs[0x11] |= 0x0020
        ret, downshift = e1000_hw.e1000_check_downshift(hw)
        assert (ret, downshift) == (0, 1)

    def test_mdi_validation(self):
        from repro.drivers.legacy import e1000_hw

        rig, hw = self._hw()
        hw.autoneg = 0
        hw.mdix = 1
        assert e1000_hw.e1000_validate_mdi_setting(hw) != 0
        hw.autoneg = 1
        assert e1000_hw.e1000_validate_mdi_setting(hw) == 0

    def test_phy_info_includes_cable_length(self):
        from repro.drivers.legacy import e1000_hw

        rig, hw = self._hw()
        assert e1000_hw.e1000_phy_get_info(hw) == 0
        assert hw.phy_info.cable_length >= 0

    def test_smartspeed_cycle_on_igp(self):
        from repro.drivers.legacy import e1000_hw
        from repro.workloads import make_e1000_rig as mk

        rig = mk()
        rig.device.phy_regs[2] = 0x02A8  # IGP01 id
        rig.device.phy_regs[3] = 0x0380
        rig.insmod()
        hw = rig.endpoint.priv.hw
        assert hw.phy_type == e1000_hw.E1000_PHY_IGP
        # Force a downshift indication (IGP path reads PHY_STATUS; the
        # M88-style bit is ignored, so smartspeed sees no downshift and
        # stays idle).
        assert e1000_hw.e1000_smartspeed(hw) == 0
        assert hw.smart_speed == 0
        # Simulate an in-progress smartspeed cycle and run it out.
        hw.smart_speed = 1
        for _ in range(e1000_hw.SMART_SPEED_MAX + 1):
            assert e1000_hw.e1000_smartspeed(hw) == 0
        assert hw.smart_speed == 0  # gigabit advertisement restored
        adv = rig.device.phy_regs[0x09]
        assert adv & 0x0300
