"""The XPC failure boundary and its satellite regressions.

Covers: the single-choke-point allocation fault accounting in
``kernel/memory.py``, exception containment at the XPC boundary
(fail-fast, counters, dmesg evidence), deferred-error recording in
``flush_deferred``, user-object-tracker staleness across a driver
restart, payload corruption, and register wedging.
"""

import pytest

from repro.core import CStruct, DomainManager, U32, Xpc, XpcChannel
from repro.core.marshal import MarshalPlan
from repro.core.objtracker import UserObjectTracker
from repro.core.xpc import DriverFailedError, FailurePolicy
from repro.drivers.decaf.exceptions import DriverException, errno_of
from repro.drivers.decaf.rtl8139_nucleus import Rtl8139Nucleus


class f_state(CStruct):
    FIELDS = [("v", U32)]


def _policy_channel(kernel, on_fault=None):
    xpc = Xpc(kernel)
    channel = XpcChannel(xpc, DomainManager(), MarshalPlan())
    channel.failure_policy = FailurePolicy(
        checked=(DriverException,), on_fault=on_fault
    )
    return channel


class TestMemoryFaultAccounting:
    """Satellite: both alloc paths share one fault choke point."""

    def test_fail_next_spans_kmalloc_and_dma(self, kernel):
        mm = kernel.memory
        mm.fail_next = 2
        assert mm.kmalloc(64, owner="t") is None
        assert mm.dma_alloc_coherent(64, owner="t") is None
        # Exactly two failures: the budget is shared, not per-path.
        assert mm.fail_next == 0
        assert mm.kmalloc(64, owner="t") is not None
        assert mm.dma_alloc_coherent(64, owner="t") is not None

    def test_alloc_seq_counts_both_paths(self, kernel):
        mm = kernel.memory
        base = mm.alloc_seq
        mm.kmalloc(8, owner="t")
        mm.dma_alloc_coherent(8, owner="t")
        mm.kmalloc(8, owner="t")
        assert mm.alloc_seq == base + 3

    def test_fault_hook_sees_every_attempt(self, kernel):
        mm = kernel.memory
        seen = []
        mm.fault_hook = lambda seq, size, owner: (
            seen.append((size, owner)), size == 32)[1]
        assert mm.kmalloc(16, owner="a") is not None
        assert mm.dma_alloc_coherent(32, owner="b") is None  # hook fails it
        assert mm.kmalloc(32, owner="c") is None
        mm.fault_hook = None
        assert seen == [(16, "a"), (32, "b"), (32, "c")]

    def test_hook_fires_before_fail_next_is_spent(self, kernel):
        mm = kernel.memory
        mm.fault_hook = lambda seq, size, owner: True
        mm.fail_next = 1
        assert mm.kmalloc(8, owner="t") is None
        # The hook took the blame; the fail_next budget is untouched.
        assert mm.fail_next == 1
        mm.fault_hook = None


class TestFailureBoundary:
    def test_unchecked_exception_is_contained(self, kernel):
        channel = _policy_channel(kernel)
        obj = f_state(v=7)
        channel.kernel_tracker.register(obj)

        def buggy(twin):
            raise ZeroDivisionError("latent driver bug")

        with pytest.raises(DriverFailedError) as excinfo:
            channel.upcall(buggy, args=[(obj, f_state)])
        assert isinstance(excinfo.value.cause, ZeroDivisionError)
        assert channel.failed
        assert channel.xpc.boundary_faults == 1
        # Evidence lands in dmesg.
        assert any("driver FAILED" in message
                   for _ns, message in kernel.log_lines)

    def test_checked_exception_still_propagates(self, kernel):
        channel = _policy_channel(kernel)

        def protocol_error():
            raise DriverException("expected error", errno=19)

        with pytest.raises(DriverException):
            channel.upcall(protocol_error)
        assert not channel.failed
        assert channel.xpc.boundary_faults == 0

    def test_failed_channel_fails_fast(self, kernel):
        channel = _policy_channel(kernel)
        with pytest.raises(DriverFailedError):
            channel.upcall(lambda: 1 / 0)
        # Subsequent calls are rejected without crossing.
        crossings = channel.xpc.kernel_user_crossings
        for call in (channel.upcall, channel.downcall, channel.lang_call):
            with pytest.raises(DriverFailedError):
                call(lambda: 0)
        assert channel.xpc.kernel_user_crossings == crossings
        assert channel.xpc.failed_calls == 3

    def test_fault_hook_is_notified_once_per_fault(self, kernel):
        faults = []
        channel = _policy_channel(
            kernel, on_fault=lambda exc, cs: faults.append((exc, cs)))
        with pytest.raises(DriverFailedError):
            channel.upcall(lambda: 1 / 0)
        assert len(faults) == 1
        assert isinstance(faults[0][0], ZeroDivisionError)

    def test_bare_channel_keeps_raw_semantics(self, kernel):
        channel = XpcChannel(Xpc(kernel), DomainManager(), MarshalPlan())
        with pytest.raises(ZeroDivisionError):
            channel.upcall(lambda: 1 / 0)
        assert not channel.failed
        assert channel.xpc.boundary_faults == 0

    def test_reset_user_side_revives_the_channel(self, kernel):
        channel = _policy_channel(kernel)
        with pytest.raises(DriverFailedError):
            channel.upcall(lambda: 1 / 0)
        assert channel.failed
        channel.reset_user_side()
        assert not channel.failed
        assert channel.failure is None
        assert channel.upcall(lambda: 42) == 42

    def test_plumbing_reports_fault_errno_without_supervisor(self, kernel):
        nucleus = Rtl8139Nucleus(kernel)
        nucleus.connect("8139too", plan=MarshalPlan())

        def buggy():
            raise KeyError("missing")

        ret = nucleus.upcall(buggy)
        assert ret == errno_of(KeyError())
        assert nucleus.channel.failed

    def test_payload_corruption_is_contained(self, kernel):
        channel = _policy_channel(kernel)
        obj = f_state(v=9)
        channel.kernel_tracker.register(obj)
        hits = {"n": 0}

        def corrupt(data, direction):
            hits["n"] += 1
            return data[: len(data) // 2]

        channel.corrupt_hook = corrupt
        with pytest.raises(DriverFailedError):
            channel.upcall(lambda twin: twin.v, args=[(obj, f_state)])
        assert hits["n"] >= 1
        assert channel.failed


class TestDeferredErrorRecording:
    """Satellite: flush_deferred must leave evidence, not swallow."""

    def test_bare_channel_records_and_continues(self, kernel):
        channel = XpcChannel(Xpc(kernel), DomainManager(), MarshalPlan())
        ran = []

        def boom():
            raise RuntimeError("handler bug")

        channel.defer(boom)
        channel.defer(lambda: ran.append(1))
        assert channel.flush_deferred() == 2
        # The error was counted, typed, and logged; later items ran.
        assert channel.xpc.deferred_errors == 1
        assert channel.xpc.deferred_error_types == {"RuntimeError": 1}
        assert isinstance(channel.last_deferred_error, RuntimeError)
        assert ran == [1]
        assert any("deferred notification" in message
                   for _ns, message in kernel.log_lines)

    def test_policy_channel_drops_batch_after_containment(self, kernel):
        channel = _policy_channel(kernel)
        ran = []

        def boom():
            raise RuntimeError("unchecked bug in a notification")

        channel.defer(boom)
        channel.defer(lambda: ran.append(1))
        channel.flush_deferred()
        # The driver FAILED mid-batch: the rest belongs to the dead
        # instance and is dropped, not executed.
        assert channel.failed
        assert ran == []
        assert channel.xpc.deferred_dropped == 1

    def test_failed_channel_drops_whole_queue(self, kernel):
        channel = _policy_channel(kernel)
        with pytest.raises(DriverFailedError):
            channel.upcall(lambda: 1 / 0)
        channel.defer(lambda: None)
        assert channel.flush_deferred() == 0
        assert channel.xpc.deferred_dropped == 1

    def test_checked_exception_in_flush_does_not_fail_driver(self, kernel):
        channel = _policy_channel(kernel)
        ran = []

        def protocol_error():
            raise DriverException("expected", errno=5)

        channel.defer(protocol_error)
        channel.defer(lambda: ran.append(1))
        channel.flush_deferred()
        assert not channel.failed
        assert ran == [1]
        assert channel.xpc.deferred_error_types == {"DriverException": 1}


class TestTrackerStaleness:
    """Satellite: user-tracker associations must not survive restarts."""

    def test_clear_prevents_stale_alias(self):
        tracker = UserObjectTracker()
        old = f_state()
        tracker.associate(0x1000, 1, old)
        tracker.clear()
        # A new driver instance's object lands at the same address.
        assert tracker.xlate_c_to_j(0x1000, 1) is None
        new = f_state()
        tracker.associate(0x1000, 1, new)
        assert tracker.xlate_c_to_j(0x1000, 1) is new

    def test_stale_finalizer_cannot_release_new_association(self):
        tracker = UserObjectTracker()
        old = f_state()
        tracker.associate(0x2000, 1, old, weak=True)
        finalizer = tracker._make_finalizer((0x2000, 1), id(old))
        tracker.clear()
        new = f_state()
        tracker.associate(0x2000, 1, new)
        # The dead instance's GC callback fires after the restart; it
        # must not evict the new instance's twin (epoch mismatch).
        finalizer(None)
        assert tracker.xlate_c_to_j(0x2000, 1) is new

    def test_channel_close_clears_user_tracker(self, kernel):
        channel = XpcChannel(Xpc(kernel), DomainManager(), MarshalPlan())
        channel.user_tracker.associate(0x3000, 1, f_state())
        channel.close()
        assert channel.user_tracker.xlate_c_to_j(0x3000, 1) is None

    def test_reset_user_side_clears_user_tracker(self, kernel):
        channel = _policy_channel(kernel)
        channel.user_tracker.associate(0x4000, 1, f_state())
        channel.reset_user_side()
        assert channel.user_tracker.xlate_c_to_j(0x4000, 1) is None


class TestRegisterWedge:
    def test_wedged_register_reads_forced_value_and_drops_writes(self, kernel):
        class _Handler:
            def __init__(self):
                self.value = 0xAB

            def read(self, offset, size):
                return self.value

            def write(self, offset, value, size):
                self.value = value

        handler = _Handler()
        region = kernel.io.register(0x100, 4, handler, "t", is_mmio=False)
        assert kernel.io.inb(0x100) == 0xAB
        kernel.io.wedge(0x100, value=0xFFFFFFFF)
        assert kernel.io.inb(0x100) == 0xFF  # masked to access width
        kernel.io.outb(0x12, 0x100)
        assert handler.value == 0xAB  # write dropped
        kernel.io.unwedge(0x100)
        assert kernel.io.inb(0x100) == 0xAB
        kernel.io.unregister(region)
