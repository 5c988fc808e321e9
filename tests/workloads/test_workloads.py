"""Workloads: Table 3's measurement machinery (short virtual runs)."""

import pytest

from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
    mpg123_play,
    move_and_click,
    netperf_recv,
    netperf_send,
    netperf_udp_rr,
    tar_to_flash,
)


class TestNetperfSend:
    def test_e1000_send_saturates_gigabit(self):
        rig = make_e1000_rig()
        rig.insmod()
        result = netperf_send(rig, duration_s=0.3)
        assert result.throughput_mbps > 900
        assert 0.02 < result.cpu_utilization < 0.5

    def test_8139too_send_saturates_100m(self):
        rig = make_8139too_rig()
        rig.insmod()
        result = netperf_send(rig, duration_s=0.3)
        assert result.throughput_mbps > 90
        assert result.throughput_mbps <= 100

    def test_decaf_matches_native_throughput(self):
        """Table 3's headline: relative performance ~= 1.00."""
        native = make_e1000_rig(decaf=False)
        native.insmod()
        rn = netperf_send(native, duration_s=0.3)
        decaf = make_e1000_rig(decaf=True)
        decaf.insmod()
        rd = netperf_send(decaf, duration_s=0.3)
        assert rd.throughput_mbps / rn.throughput_mbps > 0.99

    def test_data_path_does_not_invoke_decaf(self):
        rig = make_8139too_rig(decaf=True)
        rig.insmod()
        result = netperf_send(rig, duration_s=0.3)
        # Link-watch may fire 0 times in 0.3 s; data path itself: zero.
        assert result.kstat.get("xpc.crossings", 0) <= 1


class TestNetperfRecv:
    def test_e1000_recv_near_line_rate(self):
        rig = make_e1000_rig()
        rig.insmod()
        result = netperf_recv(rig, duration_s=0.3)
        assert result.throughput_mbps > 850

    def test_recv_costs_more_cpu_than_send(self):
        """Paper: E1000 recv 20% vs send 2.8% -- receive pays the
        copies."""
        rig_s = make_e1000_rig()
        rig_s.insmod()
        send = netperf_send(rig_s, duration_s=0.3)
        rig_r = make_e1000_rig()
        rig_r.insmod()
        recv = netperf_recv(rig_r, duration_s=0.3)
        assert recv.cpu_utilization > send.cpu_utilization

    def test_no_packets_dropped_at_line_rate(self):
        rig = make_e1000_rig()
        rig.insmod()
        netperf_recv(rig, duration_s=0.3)
        assert rig.device.rx_no_buffer == 0


class TestNetperfUdp:
    def test_udp_rr_completes_transactions(self):
        rig = make_e1000_rig()
        rig.insmod()
        result = netperf_udp_rr(rig, duration_s=0.2)
        assert result.extra["transactions"] > 100


class TestMpg123:
    def test_realtime_bound(self):
        rig = make_ens1371_rig()
        rig.insmod()
        result = mpg123_play(rig, duration_s=3.0)
        # Playback of N seconds takes ~N virtual seconds.
        assert result.duration_s == pytest.approx(3.0, rel=0.2)
        assert result.cpu_utilization < 0.05

    def test_decaf_invocations_only_at_start_stop(self):
        rig = make_ens1371_rig(decaf=True)
        rig.insmod()
        result = mpg123_play(rig, duration_s=3.0)
        assert 4 <= result.kstat.get("xpc.crossings", 0) <= 20
        assert result.extra["periods_elapsed"] > 60


class TestTarUsb:
    def test_bandwidth_limited_by_usb11(self):
        rig = make_uhci_rig()
        rig.insmod()
        result = tar_to_flash(rig, archive_bytes=256 * 1024)
        # USB 1.1 bulk moves ~1.2 MB/s; 256 KB takes ~0.2 s or more.
        assert result.duration_s > 0.15
        assert result.extra["disk_blocks_written"] >= 512

    def test_decaf_duration_matches_native(self):
        native = make_uhci_rig()
        native.insmod()
        rn = tar_to_flash(native, archive_bytes=128 * 1024)
        decaf = make_uhci_rig(decaf=True)
        decaf.insmod()
        rd = tar_to_flash(decaf, archive_bytes=128 * 1024)
        assert rd.duration_s == pytest.approx(rn.duration_s, rel=0.05)
        assert rd.kstat.get("xpc.crossings", 0) == 0


class TestMouse:
    def test_events_flow(self):
        rig = make_psmouse_rig()
        rig.insmod()
        result = move_and_click(rig, duration_s=5)
        assert result.extra["input_events"] > 100
        assert result.cpu_utilization < 0.01

    def test_decaf_not_invoked_by_movement(self):
        rig = make_psmouse_rig(decaf=True)
        rig.insmod()
        result = move_and_click(rig, duration_s=5)
        assert result.kstat.get("xpc.crossings", 0) == 0


class TestInitLatency:
    @pytest.mark.parametrize("make_rig", [
        make_8139too_rig, make_e1000_rig, make_ens1371_rig,
        make_uhci_rig, make_psmouse_rig,
    ], ids=["8139too", "e1000", "ens1371", "uhci", "psmouse"])
    def test_decaf_init_slower(self, make_rig):
        native = make_rig(decaf=False)
        native.insmod()
        decaf = make_rig(decaf=True)
        decaf.insmod()
        assert decaf.init_latency_ns > 2 * native.init_latency_ns
