"""Tracker epochs across restarts: stale finalizers must never free
a successor's twins.

``UserObjectTracker.clear()`` (called by ``reset_user_side`` on every
supervised restart) bumps an epoch that disarms finalizers belonging to
the dead driver instance.  Without it, the GC of generation-N objects
would evict entries a generation-N+1 driver re-created at the same
``(c_addr, type_id)`` keys -- a use-after-free of live twin handles.
These tests pin the epoch discipline at unit level and then across two
real supervised restarts.
"""

import gc

import pytest

from repro.core import CStruct, U32, UserObjectTracker
from repro.faults import FaultPlan, FaultSpec
from repro.workloads import make_psmouse_rig, move_and_click


class t_twin(CStruct):
    FIELDS = [("v", U32)]


class Handle:
    """Stand-in for a user-level ('Java') driver object."""


TYPE_ID = "codec:t_twin"


class TestEpochUnit:
    def test_clear_bumps_epoch_once_per_call(self):
        tracker = UserObjectTracker()
        start = tracker._epoch
        tracker.clear()
        tracker.clear()
        assert tracker._epoch == start + 2

    def test_stale_finalizer_is_disarmed_by_clear(self):
        """GC of a pre-restart object must not evict the post-restart
        association living at the same key."""
        released = []
        tracker = UserObjectTracker()
        tracker.release_hook = lambda addr, tid: released.append(addr)

        old = Handle()
        tracker.associate(0x1000, TYPE_ID, old, weak=True)
        tracker.clear()  # restart: old generation's entries dropped

        new = Handle()
        tracker.associate(0x1000, TYPE_ID, new, weak=True)
        del old
        gc.collect()

        assert tracker.xlate_c_to_j(0x1000, TYPE_ID) is new
        assert released == []

    def test_middle_generation_finalizers_stay_dead(self):
        """Two restarts: objects from *both* earlier generations may be
        collected in any order without touching the live generation."""
        released = []
        tracker = UserObjectTracker()
        tracker.release_hook = lambda addr, tid: released.append(addr)

        gen1 = [Handle() for _ in range(4)]
        for i, obj in enumerate(gen1):
            tracker.associate(0x2000 + i, TYPE_ID, obj, weak=True)
        tracker.clear()  # restart #1

        gen2 = [Handle() for _ in range(4)]
        for i, obj in enumerate(gen2):
            tracker.associate(0x2000 + i, TYPE_ID, obj, weak=True)
        tracker.clear()  # restart #2

        gen3 = [Handle() for _ in range(4)]
        for i, obj in enumerate(gen3):
            tracker.associate(0x2000 + i, TYPE_ID, obj, weak=True)

        del gen1, gen2
        gc.collect()

        assert len(tracker) == 4
        for i, obj in enumerate(gen3):
            assert tracker.xlate_c_to_j(0x2000 + i, TYPE_ID) is obj
        assert released == []

    def test_live_generation_finalizer_still_releases(self):
        """The epoch guard must not break the feature it guards: GC of
        a *current* generation object does release its twin."""
        released = []
        tracker = UserObjectTracker()
        tracker.release_hook = lambda addr, tid: released.append(addr)

        obj = Handle()
        tracker.associate(0x3000, TYPE_ID, obj, weak=True)
        del obj
        gc.collect()

        assert released == [0x3000]
        assert len(tracker) == 0

    def test_explicit_disassociate_then_gc_is_not_a_double_free(self):
        """An explicitly released handle must not be released again by
        its finalizer: the hook frees the kernel twin, and freeing it
        twice corrupts the kernel-side tracker."""
        released = []
        tracker = UserObjectTracker()
        tracker.release_hook = lambda addr, tid: released.append(addr)

        obj = Handle()
        tracker.associate(0x4000, TYPE_ID, obj, weak=True)
        tracker.disassociate(obj)
        del obj
        gc.collect()

        assert released == []


class TestEpochAcrossSupervisedRestarts:
    @pytest.fixture(scope="class")
    def twice_recovered_rig(self):
        """A decaf psmouse that faults and recovers twice: the 1 Hz
        resync poll blows up on its first and second post-arming runs."""
        rig = make_psmouse_rig(decaf=True)
        rig.insmod()
        rig.supervise()
        rig.inject_faults(FaultPlan([
            FaultSpec("xpc_raise", callsite="resync_check", at=1),
            FaultSpec("xpc_raise", callsite="resync_check", at=2),
        ]))
        result = move_and_click(rig, duration_s=4.0, trace=True)
        return rig, result

    def test_two_restarts_bump_epoch_twice(self, twice_recovered_rig):
        rig, result = twice_recovered_rig
        assert result.kstat["recovery.recoveries"] == 2
        assert not rig.supervisor.gave_up
        assert rig.channel.user_tracker._epoch == 2

    def test_no_stale_release_after_restarts(self, twice_recovered_rig):
        """Collecting the dead generations' garbage releases nothing:
        every finalizer armed before a restart is epoch-disarmed."""
        rig, _result = twice_recovered_rig
        tracker = rig.channel.user_tracker
        hook, released = tracker.release_hook, []
        tracker.release_hook = lambda addr, tid: (released.append(addr),
                                                  hook(addr, tid))
        try:
            gc.collect()
        finally:
            tracker.release_hook = hook
        assert released == []

    def test_driver_is_live_after_two_restarts(self, twice_recovered_rig):
        """The restarted instance's own twins work: the mouse still
        turns movement into input events through the new user half."""
        rig, result = twice_recovered_rig
        assert not rig.channel.failed
        assert result.extra["input_events"] > 0
