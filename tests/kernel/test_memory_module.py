"""Memory manager and module loader."""

import mmap
import os

import pytest

from repro.kernel import GFP_ATOMIC, KernelModule, MemoryLeakError, SimulationError


class TestKmalloc:
    def test_alloc_free(self, kernel):
        alloc = kernel.memory.kmalloc(128, owner="t")
        assert alloc is not None
        assert kernel.memory.used_bytes == 128
        kernel.memory.kfree(alloc)
        assert kernel.memory.used_bytes == 0

    def test_double_free_detected(self, kernel):
        alloc = kernel.memory.kmalloc(64)
        kernel.memory.kfree(alloc)
        with pytest.raises(SimulationError):
            kernel.memory.kfree(alloc)

    def test_kfree_none_is_noop(self, kernel):
        kernel.memory.kfree(None)

    def test_fault_injection(self, kernel):
        kernel.memory.fail_next = 2
        assert kernel.memory.kmalloc(64) is None
        assert kernel.memory.kmalloc(64, GFP_ATOMIC) is None
        assert kernel.memory.kmalloc(64) is not None

    def test_exhaustion(self):
        from repro.kernel import make_kernel

        kernel = make_kernel()
        kernel.memory._total = 1000
        assert kernel.memory.kmalloc(2000) is None

    def test_live_allocations_by_owner(self, kernel):
        a = kernel.memory.kmalloc(10, owner="drv-a")
        kernel.memory.kmalloc(10, owner="drv-b")
        live = kernel.memory.live_allocations(owner="drv-a")
        assert live == [a]


class TestDma:
    def test_regions_do_not_overlap(self, kernel):
        r1 = kernel.memory.dma_alloc_coherent(8192)
        r2 = kernel.memory.dma_alloc_coherent(4096)
        assert r1.dma_addr + len(r1.data) <= r2.dma_addr

    def test_dma_find_interior_address(self, kernel):
        region = kernel.memory.dma_alloc_coherent(8192)
        found, offset = kernel.memory.dma_find(region.dma_addr + 5000)
        assert found is region
        assert offset == 5000

    def test_dma_find_miss(self, kernel):
        found, offset = kernel.memory.dma_find(0x123)
        assert found is None

    def test_device_visibility(self, kernel):
        """A DMA region is shared memory: device-side writes are seen
        by the 'CPU' and vice versa."""
        region = kernel.memory.dma_alloc_coherent(64)
        region.data[0:4] = b"ABCD"
        found, off = kernel.memory.dma_find(region.dma_addr)
        assert bytes(found.data[0:4]) == b"ABCD"

    def test_free(self, kernel):
        region = kernel.memory.dma_alloc_coherent(4096)
        kernel.memory.dma_free_coherent(region)
        assert kernel.memory.dma_find(region.dma_addr)[0] is None
        with pytest.raises(SimulationError):
            kernel.memory.dma_free_coherent(region)

    def test_empty_allocation_fails(self, kernel):
        assert kernel.memory.dma_alloc_coherent(0) is None
        assert kernel.memory.dma_alloc_coherent(-4096) is None
        assert kernel.memory.live_allocations() == []

    def test_regions_are_fixed_size(self, kernel):
        region = kernel.memory.dma_alloc_coherent(4096)
        region.data[4000:4096] = bytes(96)
        with pytest.raises(IndexError):
            region.data[4000:4100] = bytes(100)
        with pytest.raises(IndexError):
            region.data[4096] = 1
        assert len(region) == 4096

    def test_kstat_footprint(self, kernel):
        alloc = kernel.memory.kmalloc(100)
        region = kernel.memory.dma_alloc_coherent(8192)
        snap = kernel.kstat.snapshot()
        assert (snap["mm.dma.regions"], snap["mm.dma.bytes"]) == (1, 8192)
        assert (snap["mm.kmalloc.live"], snap["mm.kmalloc.bytes"]) == (1, 100)
        kernel.memory.dma_free_coherent(region)
        kernel.memory.kfree(alloc)
        snap = kernel.kstat.snapshot()
        assert [snap["mm." + k] for k in ("dma.regions", "dma.bytes",
                                          "kmalloc.live", "kmalloc.bytes")
                ] == [0, 0, 0, 0]

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_idle_regions_are_not_resident(self, kernel):
        """Backing pages become resident when first touched, not at
        allocation: 64 idle 512 KiB regions cost almost no RSS."""
        def rss():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * mmap.PAGESIZE

        before = rss()
        regions = [kernel.memory.dma_alloc_coherent(512 * 1024)
                   for _ in range(64)]
        idle = rss() - before
        assert idle < 4 * 1024 * 1024, idle
        for region in regions:
            region.data[len(region) // 2] = 1  # one page each
        touched = rss() - before
        assert touched - idle >= len(regions) * mmap.PAGESIZE


class _OkModule(KernelModule):
    name = "ok"

    def init_module(self, kernel):
        kernel.consume(1_000_000)
        return 0

    def cleanup_module(self, kernel):
        pass


class _LeakyModule(KernelModule):
    name = "leaky"

    def init_module(self, kernel):
        self.alloc = kernel.memory.kmalloc(64, owner="leaky")
        return 0

    def cleanup_module(self, kernel):
        pass  # forgets to free


class TestModuleLoader:
    def test_insmod_measures_latency(self, kernel):
        assert kernel.modules.insmod(_OkModule()) == 0
        latency = kernel.modules.last_init_latency_ns
        assert latency >= 1_000_000 + kernel.costs.insmod_base_ns

    def test_double_insmod_busy(self, kernel):
        from repro.kernel.errors import EBUSY

        kernel.modules.insmod(_OkModule())
        assert kernel.modules.insmod(_OkModule()) == -EBUSY

    def test_rmmod(self, kernel):
        kernel.modules.insmod(_OkModule())
        kernel.modules.rmmod("ok")
        assert "ok" not in kernel.modules.loaded

    def test_rmmod_detects_leaks(self, kernel):
        kernel.modules.insmod(_LeakyModule())
        with pytest.raises(MemoryLeakError):
            kernel.modules.rmmod("leaky")

    def test_rmmod_leak_check_optional(self, kernel):
        kernel.modules.insmod(_LeakyModule())
        kernel.modules.rmmod("leaky", check_leaks=False)
