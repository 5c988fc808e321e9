"""Supervised recovery: the ISSUE's acceptance criterion, end to end.

An unchecked exception is injected (via the deterministic fault
harness) into each of the four decaf drivers *mid-workload*.  The
exception must never propagate past the XPC boundary: the supervisor
quiesces, restarts the user half, replays the configuration log, and
the workload runs to completion.  Recoveries and lost work surface in
the WorkloadResult's kstat window and as ``recovery.*`` tracepoints.
"""

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
    move_and_click,
    mpg123_play,
    netperf_send,
    tar_to_flash,
)
from repro.workloads.netperf import _wait_for_progress


def _supervised(make_rig, callsite, at=1):
    rig = make_rig(decaf=True)
    rig.insmod()
    rig.supervise()
    rig.inject_faults(FaultPlan([
        FaultSpec("xpc_raise", callsite=callsite, at=at),
    ]))
    return rig


def _assert_recovered(rig, result, driver):
    assert result.kstat["faults.fired"] == 1
    assert result.kstat["recovery.recoveries"] == 1
    counters = result.trace_summary["kstat"]
    assert counters["recovery.%s.faults_seen" % driver] == 1
    assert counters["recovery.%s.recoveries" % driver] == 1
    assert counters["faults.%s.fired" % driver] == 1
    # The channel is healthy again and the fault left dmesg evidence.
    assert not rig.channel.failed
    assert not rig.supervisor.gave_up
    assert any("driver restarted" in message
               for _ns, message in rig.kernel.log_lines)


class TestMidWorkloadRecovery:
    """One test per decaf driver: fault mid-workload, finish anyway."""

    def test_e1000_recovers_during_netperf_send(self):
        # The watchdog notification flush (an async crossing with no
        # caller to retry for) blows up ~2 s into the stream.
        rig = _supervised(make_e1000_rig, "watchdog")
        result = netperf_send(rig, duration_s=4.0, trace=True)
        _assert_recovered(rig, result, "e1000")
        assert result.packets > 0
        assert result.throughput_mbps > 0

    def test_rtl8139_recovers_during_netperf_send(self):
        # The link-watch thread upcall (a sync crossing: the plumbing
        # recovers and retries, the caller never sees the fault).
        rig = _supervised(make_8139too_rig, "thread")
        result = netperf_send(rig, duration_s=4.0, trace=True)
        _assert_recovered(rig, result, "8139too")
        assert result.packets > 0

    def test_ens1371_recovers_during_playback(self):
        # The START trigger itself faults; recovery happens *inside*
        # the trigger upcall and the retry returns success, so playback
        # proceeds from the first sample.
        rig = _supervised(make_ens1371_rig, "playback_trigger")
        result = mpg123_play(rig, duration_s=2.0, trace=True)
        _assert_recovered(rig, result, "ens1371")
        assert result.bytes_moved > 0

    def test_psmouse_recovers_during_move_and_click(self):
        # The 1 Hz resync health poll faults; the replayed connect
        # re-detects and re-enables the mouse, dropping the samples
        # that arrived while reporting was off.
        rig = _supervised(make_psmouse_rig, "resync_check")
        result = move_and_click(rig, duration_s=3.0, trace=True)
        _assert_recovered(rig, result, "psmouse")
        assert result.packets > 0
        assert result.extra["input_events"] > 0

    def test_uhci_recovers_during_tar(self):
        # The root-hub status poll faults.  uhci's data path is
        # kernel-resident (the 4%-converted split), so the archive
        # lands complete with zero lost work.
        rig = _supervised(make_uhci_rig, "rh_status_check")
        result = tar_to_flash(rig, trace=True)
        _assert_recovered(rig, result, "uhci_hcd")
        assert result.bytes_moved == 2 * 1024 * 1024
        assert result.packets_lost == 0


class TestRecoveryBudget:
    def test_supervisor_gives_up_past_budget(self):
        # Three deterministic faults against a budget of two: the
        # third recovery attempt is refused and the driver stays
        # FAILED -- but the kernel-resident data path keeps running,
        # so the workload still finishes.
        rig = make_8139too_rig(decaf=True)
        rig.insmod()
        rig.supervise(max_recoveries=2)
        rig.inject_faults(FaultPlan([
            FaultSpec("xpc_raise", callsite="thread", at=1),
            FaultSpec("xpc_raise", callsite="thread", at=2),
            FaultSpec("xpc_raise", callsite="thread", at=3),
        ]))
        result = netperf_send(rig, duration_s=8.0)
        assert result.kstat["faults.fired"] == 3
        assert result.kstat["recovery.recoveries"] == 2
        assert rig.supervisor.gave_up
        assert rig.channel.failed
        assert result.packets > 0
        assert any("giving up" in message
                   for _ns, message in rig.kernel.log_lines)


class TestSyncRecoveryRetry:
    def test_retried_upcall_runs_on_the_live_user_half(self):
        # The fault fires at the open upcall's entry; recovery rebuilds
        # the user half and the retried open must configure *that*
        # instance, or its link-watch thread never runs again.
        rig = _supervised(make_8139too_rig, "Rtl8139DecafDriver.open")
        assert rig.kernel.net.dev_open(rig.netdev()) == 0
        assert rig.supervisor.recoveries == 1
        assert rig.nucleus.decaf.have_thread
        downcalls = rig.xpc.downcalls
        rig.kernel.run_for_ns(5_000_000_000)
        assert rig.xpc.downcalls > downcalls


class TestMtuReplay:
    @pytest.mark.parametrize("order", [
        ("mtu", "open"),
        ("open", "mtu", "close", "open"),
        ("open", "mtu"),
    ])
    def test_e1000_recovers_with_the_new_mtu(self, order):
        # The first two orders log change_mtu *before* open; its replay
        # then runs on an adapter that is not up yet.
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        rig.supervise()
        dev = rig.netdev()
        net = rig.kernel.net
        for op in order:
            if op == "open":
                assert net.dev_open(dev) == 0
            elif op == "close":
                net.dev_close(dev)
            else:
                assert dev.change_mtu(dev, 9000) == 0
        rig.inject_faults(FaultPlan([
            FaultSpec("xpc_raise", callsite="watchdog", at=1),
        ]))
        rig.kernel.run_for_ns(5_000_000_000)
        assert rig.kernel.kstat.snapshot()["faults.fired"] == 1
        assert rig.supervisor.recoveries == 1
        assert not rig.supervisor.gave_up
        assert not rig.channel.failed
        assert dev.netif_running()
        assert dev.mtu == 9000
        assert rig.nucleus.adapter.hw.max_frame_size == 9018


class TestUnsupervisedContainment:
    def test_fault_is_contained_even_without_supervisor(self):
        # No supervisor attached: the boundary still contains the
        # fault (fail-fast, no recovery), and the periodic health poll
        # that would inject it never runs -- so arm the fault on the
        # open upcall instead.
        rig = make_8139too_rig(decaf=True)
        rig.insmod()
        rig.inject_faults(FaultPlan([
            FaultSpec("xpc_raise", callsite="open"),
        ]))
        dev = rig.netdev()
        ret = rig.kernel.net.dev_open(dev)
        assert ret < 0
        assert rig.channel.failed
        assert rig.xpc.boundary_faults == 1


class TestWedgeDetection:
    """Satellite: a recovery outage must not read as a wedged device,
    and a genuinely wedged device must still fail loudly."""

    def test_genuine_wedge_still_raises(self, kernel):
        assert kernel.events.peek_time() is None  # precondition
        with pytest.raises(RuntimeError, match="wedged"):
            _wait_for_progress(kernel, kernel.clock.now_ns + 1, rig=None)

    def test_supervised_but_idle_rig_still_raises(self, kernel):
        class _IdleRig:
            @staticmethod
            def recovery_pending():
                return False

        assert kernel.events.peek_time() is None
        with pytest.raises(RuntimeError, match="wedged"):
            _wait_for_progress(kernel, kernel.clock.now_ns + 1, _IdleRig())

    def test_pending_recovery_suppresses_wedge_error(self, kernel):
        class _RecoveringRig:
            @staticmethod
            def recovery_pending():
                return True

        assert kernel.events.peek_time() is None
        before = kernel.clock.now_ns
        _wait_for_progress(kernel, before + 10_000_000, _RecoveringRig())
        # It waited for the recovery work item instead of raising.
        assert kernel.clock.now_ns == before + 1_000_000
