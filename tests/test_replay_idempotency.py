"""Replay-log idempotency when recovery races a deferred flush.

A fault surfacing in ``flush_deferred`` has no caller to retry for, so
the supervisor schedules an asynchronous restart work item.  If a sync
upcall hits the FAILED channel before that work item runs, the sync
path recovers first (so the caller's retry can proceed) and the work
item must then find a healthy channel and do *nothing* -- one fault,
one restart, one replay of the configuration log.  Double-replaying
would re-run probe/open against an already-configured device and
double-apply any non-idempotent side effects.
"""

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.workloads import make_e1000_rig, netperf_send


@pytest.fixture
def rig():
    r = make_e1000_rig(decaf=True)
    r.insmod()
    r.supervise()
    dev = r.netdev()
    assert r.kernel.net.dev_open(dev) == 0
    return r


def _fail_in_flush(rig):
    """Mark the channel FAILED the way a deferred-flush fault does:
    contained with no caller, async restart scheduled."""
    contained = rig.channel._contain(
        RuntimeError("injected flush fault"), "flush_deferred")
    assert contained
    assert rig.channel.failed


class TestSyncRecoveryPreemptsAsync:
    def test_one_fault_one_recovery_one_replay(self, rig):
        sup = rig.supervisor
        nucleus = rig.nucleus
        log_len = len(nucleus.replay_log)
        assert log_len > 0  # probe/open were recorded

        _fail_in_flush(rig)
        assert sup._work_pending  # the async restart is queued

        # A sync caller hits the FAILED channel first and recovers
        # inline so its retry can go through.
        assert sup.recover() is True
        assert sup.recoveries == 1
        assert sup.replayed_ops == log_len

        # The queued work item now runs against a healthy channel: it
        # must not restart or replay again.
        rig.kernel.run_for_ms(10)
        assert sup.recoveries == 1
        assert sup.replayed_ops == log_len
        assert not rig.channel.failed

    def test_replay_leaves_the_log_unchanged(self, rig):
        """Replayed config ops re-record themselves through the same
        nucleus paths; latest-wins must keep the log's length, order
        and payloads identical -- else each recovery would compound."""
        nucleus = rig.nucleus
        before = nucleus.replay_log.entries()

        _fail_in_flush(rig)
        assert rig.supervisor.recover() is True
        rig.kernel.run_for_ms(10)

        assert nucleus.replay_log.entries() == before

    def test_two_faults_replay_exactly_twice(self, rig):
        """N recoveries replay the log exactly N times, no matter how
        the async work items interleave."""
        sup = rig.supervisor
        nucleus = rig.nucleus
        log_len = len(nucleus.replay_log)

        for expected in (1, 2):
            _fail_in_flush(rig)
            assert sup.recover() is True
            rig.kernel.run_for_ms(10)
            assert sup.recoveries == expected
            assert sup.replayed_ops == expected * log_len


class TestDeferredBatchNotReplayed:
    def test_pending_notifications_drop_once(self, rig):
        """Notifications queued before the fault belong to the dead
        half: they are dropped (and counted) exactly once, never
        delivered by the restarted instance."""
        nucleus = rig.nucleus
        nucleus.channel.defer("watchdog_tick", ())
        nucleus.channel.defer("watchdog_tick", ())
        dropped_before = rig.xpc.deferred_dropped

        _fail_in_flush(rig)
        assert rig.supervisor.recover() is True

        dropped = rig.xpc.deferred_dropped - dropped_before
        assert dropped >= 1  # the batch died with its instance
        # Nothing stale left to flush into the new instance.
        assert nucleus.nuclear.flush_notifications() == 0
        rig.kernel.run_for_ms(10)
        assert rig.xpc.deferred_dropped - dropped_before == dropped


class TestEndToEndFlushFault:
    def test_watchdog_flush_fault_replays_once(self):
        """The real async path: the e1000 watchdog's notification
        flush faults mid-netperf.  Exactly one restart, and the log is
        replayed exactly once per restart."""
        rig = make_e1000_rig(decaf=True)
        rig.insmod()
        sup = rig.supervise()
        rig.inject_faults(FaultPlan([
            FaultSpec("xpc_raise", callsite="watchdog", at=1),
        ]))
        result = netperf_send(rig, duration_s=4.0)

        assert result.kstat["faults.fired"] == 1
        assert sup.recoveries == 1
        # At fault time the log held exactly probe + open (netperf's
        # teardown later unrecords open, so don't compare against the
        # post-workload log).  One restart replays each exactly once.
        assert sup.replayed_ops == 2
        restarts = [m for _ns, m in rig.kernel.log_lines
                    if "restarting user-level driver half" in m]
        assert len(restarts) == 1
        assert not rig.channel.failed
        assert result.packets > 0
