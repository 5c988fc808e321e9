"""Object trackers, domains, XPC channels, combolocks, runtimes."""

import gc

import pytest

from repro.core import (
    ComboLock,
    CStruct,
    DomainManager,
    I32,
    KernelObjectTracker,
    Ptr,
    Struct,
    U32,
    UserObjectTracker,
    Xpc,
    XpcChannel,
)
from repro.core.domains import DECAF, DRIVER_LIB, KERNEL
from repro.core.marshal import TypeRegistry
from repro.kernel import DeadlockError, SleepInAtomicError, SpinLock


class t_leaf(CStruct):
    FIELDS = [("v", U32)]


class t_outer(CStruct):
    FIELDS = [("first", Struct(t_leaf)), ("n", I32), ("peer", Ptr("t_outer"))]


class TestKernelTracker:
    def test_register_lookup(self):
        tracker = KernelObjectTracker()
        obj = t_leaf()
        tracker.register(obj)
        assert tracker.lookup(obj.c_addr) is obj
        assert tracker.hits == 1

    def test_miss(self):
        tracker = KernelObjectTracker()
        assert tracker.lookup(0x123) is None
        assert tracker.hits == 0

    def test_remove(self):
        tracker = KernelObjectTracker()
        obj = t_leaf()
        tracker.register(obj)
        tracker.remove(obj.c_addr)
        assert tracker.lookup(obj.c_addr) is None


class TestUserTracker:
    def test_same_address_different_types(self):
        """One C pointer, two Java objects: type id disambiguates
        (paper section 3.1.2)."""
        tracker = UserObjectTracker()
        outer = t_outer()
        j_outer, j_leaf = t_outer(), t_leaf()
        type_ids = TypeRegistry()
        outer_tid = type_ids.id_of(t_outer)
        leaf_tid = type_ids.id_of(t_leaf)
        addr = outer.c_addr  # == outer.first.c_addr (first member)
        tracker.associate(addr, outer_tid, j_outer)
        tracker.associate(addr, leaf_tid, j_leaf)
        assert tracker.xlate_c_to_j(addr, outer_tid) is j_outer
        assert tracker.xlate_c_to_j(addr, leaf_tid) is j_leaf

    def test_reverse_translation(self):
        tracker = UserObjectTracker()
        j = t_leaf()
        tracker.associate(0x1000, 7, j)
        assert tracker.xlate_j_to_c(j) == (0x1000, 7)

    def test_disassociate(self):
        tracker = UserObjectTracker()
        j = t_leaf()
        tracker.associate(0x1000, 7, j)
        assert tracker.disassociate(j) == (0x1000, 7)
        assert tracker.xlate_c_to_j(0x1000, 7) is None

    def test_weak_reference_auto_release(self):
        """The paper's sketched GC extension: dropping the Java object
        removes the tracker entry and fires the release hook."""
        tracker = UserObjectTracker()
        released = []
        tracker.release_hook = lambda addr, tid: released.append((addr, tid))
        j = t_leaf()
        tracker.associate(0x2000, 9, j, weak=True)
        assert tracker.xlate_c_to_j(0x2000, 9) is j
        del j
        gc.collect()
        assert released == [(0x2000, 9)]
        assert tracker.xlate_c_to_j(0x2000, 9) is None

    def test_strong_entries_survive_gc(self):
        tracker = UserObjectTracker()
        j = t_leaf()
        tracker.associate(0x2000, 9, j, weak=False)
        ident = id(j)
        del j
        gc.collect()
        assert tracker.xlate_c_to_j(0x2000, 9) is not None
        assert id(tracker.xlate_c_to_j(0x2000, 9)) == ident


class TestDomains:
    def test_push_pop(self):
        dm = DomainManager()
        assert dm.current == KERNEL
        dm.push(DECAF)
        assert dm.current == DECAF
        assert dm.in_user()
        dm.pop(DECAF)
        assert dm.in_kernel()

    def test_entered_context_manager(self):
        dm = DomainManager()
        with dm.entered(DRIVER_LIB):
            assert dm.current == DRIVER_LIB
        assert dm.current == KERNEL

    def test_transition_count(self):
        dm = DomainManager()
        with dm.entered(DECAF):
            with dm.entered(KERNEL):
                pass
        assert dm.transitions == 2


class TestXpcChannel:
    def make_channel(self, kernel):
        dm = DomainManager()
        xpc = Xpc(kernel)
        return XpcChannel(xpc, dm), xpc, dm

    def test_upcall_identity_preserved(self, kernel):
        channel, xpc, _dm = self.make_channel(kernel)
        obj = t_outer(n=3)
        channel.kernel_tracker.register(obj)
        ids = []
        for _ in range(3):
            channel.upcall(lambda twin: ids.append(id(twin)),
                           args=[(obj, t_outer)])
        assert len(set(ids)) == 1

    def test_upcall_writes_propagate_back(self, kernel):
        channel, _xpc, _dm = self.make_channel(kernel)
        obj = t_outer(n=1)
        channel.kernel_tracker.register(obj)

        def mutate(twin):
            twin.n = 42

        channel.upcall(mutate, args=[(obj, t_outer)])
        assert obj.n == 42

    def test_upcall_from_atomic_context_rejected(self, kernel):
        channel, _xpc, _dm = self.make_channel(kernel)
        obj = t_outer()
        channel.kernel_tracker.register(obj)
        lock = SpinLock(kernel, "t")
        with lock:
            with pytest.raises(SleepInAtomicError):
                channel.upcall(lambda twin: 0, args=[(obj, t_outer)])

    def test_crossing_counters(self, kernel):
        channel, xpc, _dm = self.make_channel(kernel)
        obj = t_outer()
        channel.kernel_tracker.register(obj)
        channel.upcall(lambda t: 0, args=[(obj, t_outer)])
        channel.downcall(lambda t: 0, args=[(obj, t_outer)])
        assert xpc.kernel_user_crossings == 2
        assert xpc.upcalls == 1 and xpc.downcalls == 1
        assert xpc.bytes_marshaled > 0

    def test_crossing_costs_advance_clock(self, kernel):
        channel, _xpc, _dm = self.make_channel(kernel)
        obj = t_outer()
        channel.kernel_tracker.register(obj)
        t0 = kernel.now_ns()
        channel.upcall(lambda t: 0, args=[(obj, t_outer)])
        assert kernel.now_ns() - t0 >= 2 * kernel.costs.xpc_thread_dispatch_ns

    def test_direct_call_no_kernel_crossing(self, kernel):
        channel, xpc, _dm = self.make_channel(kernel)
        assert channel.direct_call(lambda x: x + 1, 41) == 42
        assert xpc.kernel_user_crossings == 0
        assert xpc.lang_crossings == 1

    def test_scalar_extras_passed(self, kernel):
        channel, _xpc, _dm = self.make_channel(kernel)
        obj = t_outer()
        channel.kernel_tracker.register(obj)
        got = []
        channel.upcall(lambda twin, a, b: got.append((a, b)),
                       args=[(obj, t_outer)], extra=(7, "s"))
        assert got == [(7, "s")]

    def test_user_born_object_canonicalized(self, kernel):
        """A Java-born object passed to the kernel gets a kernel twin;
        later passes reuse it."""
        channel, _xpc, dm = self.make_channel(kernel)
        with dm.entered(DECAF):
            java_obj = t_outer(n=5)
        seen = []
        channel.downcall(lambda twin: seen.append(twin),
                         args=[(java_obj, t_outer)])
        channel.downcall(lambda twin: seen.append(twin),
                         args=[(java_obj, t_outer)])
        assert seen[0] is seen[1]
        assert seen[0] is not java_obj
        assert seen[0].n == 5


class TestComboLock:
    def test_kernel_acquisition_is_spinlock(self, kernel):
        dm = DomainManager()
        lock = ComboLock(kernel, dm, "t")
        lock.acquire()
        assert lock.mode == "kernel-spin"
        assert kernel.context.in_atomic()
        lock.release()
        assert not kernel.context.in_atomic()
        assert lock.spin_acquisitions == 1

    def test_user_acquisition_is_semaphore(self, kernel):
        dm = DomainManager()
        lock = ComboLock(kernel, dm, "t")
        with dm.entered(DECAF):
            lock.acquire()
            assert lock.mode == "user-sem"
            kernel.msleep(1)  # legal: semaphore mode doesn't spin
            lock.release()
        assert lock.sem_acquisitions == 1

    def test_kernel_contends_with_user_holder(self, kernel):
        dm = DomainManager()
        lock = ComboLock(kernel, dm, "t")
        with dm.entered(DECAF):
            lock.acquire()
        with pytest.raises(DeadlockError):
            lock.acquire()  # kernel side would sleep forever (1 thread)
        assert lock.kernel_waits_on_user == 1

    def test_kernel_wait_on_user_checked_against_atomic(self, kernel):
        dm = DomainManager()
        lock = ComboLock(kernel, dm, "t")
        with dm.entered(DECAF):
            lock.acquire()
        spin = SpinLock(kernel, "s")
        with spin:
            with pytest.raises(SleepInAtomicError):
                lock.acquire()


class TestRuntimes:
    def test_nuclear_runtime_masks_device_irq_during_upcall(self, kernel):
        from repro.core.runtime import NuclearRuntime

        dm = DomainManager()
        xpc = Xpc(kernel)
        channel = XpcChannel(xpc, dm)
        nuclear = NuclearRuntime(kernel, dm, channel, irq_line=6)
        fired = []
        kernel.irq.request_irq(6, lambda i, d: fired.append(1) or 1, "t")

        def user_func():
            kernel.irq.raise_irq(6)  # device interrupts mid-upcall
            assert fired == []       # masked while decaf code runs
            return 0

        nuclear.upcall(user_func)
        assert fired == [1]  # delivered after the upcall returns

    def test_decaf_runtime_shared_object_lifecycle(self, kernel):
        from repro.core.runtime import DecafRuntime

        dm = DomainManager()
        xpc = Xpc(kernel)
        channel = XpcChannel(xpc, dm)
        rt = DecafRuntime(kernel, dm, channel)
        used0 = kernel.memory.used_bytes
        obj = rt.new_shared(t_outer, weak=True)
        assert kernel.memory.used_bytes > used0
        del obj
        gc.collect()
        assert kernel.memory.used_bytes == used0  # finalizer freed it

    def test_decaf_runtime_explicit_free(self, kernel):
        from repro.core.runtime import DecafRuntime

        dm = DomainManager()
        channel = XpcChannel(Xpc(kernel), dm)
        rt = DecafRuntime(kernel, dm, channel)
        used0 = kernel.memory.used_bytes
        obj = rt.new_shared(t_outer, weak=False)
        rt.free_shared(obj)
        assert kernel.memory.used_bytes == used0

    def test_jvm_startup_charged_once(self, kernel):
        from repro.core.runtime import DecafRuntime

        dm = DomainManager()
        channel = XpcChannel(Xpc(kernel), dm)
        rt = DecafRuntime(kernel, dm, channel)
        t0 = kernel.now_ns()
        rt.start()
        startup = kernel.now_ns() - t0
        assert startup == kernel.costs.jvm_startup_ns
        rt.start()
        assert kernel.now_ns() - t0 == startup  # second start free
