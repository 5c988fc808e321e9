"""Kernel memory management: kmalloc/kfree accounting and DMA memory.

Two properties matter to Decaf:

* ``GFP_KERNEL`` allocations may sleep and are therefore forbidden in
  atomic context (``GFP_ATOMIC`` is the non-sleeping variant) -- another
  context rule that pins code into the driver nucleus.
* Allocations are tracked per-owner so module unload can detect leaks;
  the decaf drivers' garbage-collected shared objects are verified against
  this ledger.

DMA-coherent memory doubles as the backing store for device descriptor
rings: a :class:`DmaRegion` is a private anonymous ``mmap`` visible to
both the driver and the device model, which is how real DMA behaves.
Like a coherent buffer on hardware it is fixed-size (a write past its
end raises) and costs no resident memory until it is touched: the OS
zero-fills each page on first access.
"""

import itertools
import mmap

from .errors import ENOMEM, SimulationError

GFP_KERNEL = "GFP_KERNEL"
GFP_ATOMIC = "GFP_ATOMIC"


class Allocation:
    __slots__ = ("address", "size", "owner", "flags", "freed")

    def __init__(self, address, size, owner, flags):
        self.address = address
        self.size = size
        self.owner = owner
        self.flags = flags
        self.freed = False


class DmaRegion:
    """Physically-contiguous memory shared between CPU and device.

    Weakly referenceable, so an XPC channel's handle to a region does
    not outlive the region once its driver frees it.
    """

    __slots__ = ("dma_addr", "data", "owner", "freed", "__weakref__")

    def __init__(self, dma_addr, size, owner):
        self.dma_addr = dma_addr
        # Private, not the default shared mapping: no shmem object per
        # region, cheaper faults, and reads of an untouched page map the
        # zero page instead of allocating one.
        self.data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.owner = owner
        self.freed = False

    def __len__(self):
        return len(self.data)


class MemoryManager:
    def __init__(self, kernel, total_bytes=512 * 1024 * 1024):
        self._kernel = kernel
        self._total = total_bytes
        self._used = 0
        self.dma_bytes = 0
        self._addr = itertools.count(0x1000_0000, 0x100)
        self._next_dma = 0x8000_0000
        self._live = {}
        self._dma_regions = {}
        self._dma_hit = None  # last region resolved by dma_find
        self.alloc_count = 0
        self.alloc_seq = 0  # every attempt, success or not, across both paths
        self.fail_next = 0  # fault injection: fail the next N allocations
        # Declarative fault injection (repro.faults): called with
        # (seq, size, owner) on every attempt; truthy return fails it.
        self.fault_hook = None
        kernel.kstat.register("mm", self._kstat)

    def _kstat(self):
        """DMA and kmalloc footprint for the kstat registry (pull-only)."""
        return {
            "dma.regions": len(self._dma_regions),
            "dma.bytes": self.dma_bytes,
            "kmalloc.live": len(self._live),
            "kmalloc.bytes": self._used - self.dma_bytes,
        }

    def _should_fail(self, size, owner):
        """Single choke point for injected allocation failures.

        Both ``kmalloc`` and ``dma_alloc_coherent`` route through here,
        so one ``fail_next`` decrement covers exactly one attempt no
        matter which path it lands on, and ``alloc_seq`` gives fault
        plans a stable "Nth allocation" to aim at.
        """
        self.alloc_seq += 1
        hook = self.fault_hook
        if hook is not None and hook(self.alloc_seq, size, owner):
            return True
        if self.fail_next > 0:
            self.fail_next -= 1
            return True
        return False

    @property
    def used_bytes(self):
        return self._used

    def kmalloc(self, size, flags=GFP_KERNEL, owner="kernel"):
        """Allocate; returns an :class:`Allocation` or None on failure."""
        if flags == GFP_KERNEL:
            self._kernel.context.might_sleep("kmalloc(GFP_KERNEL)")
        elif flags != GFP_ATOMIC:
            raise SimulationError("unknown gfp flags %r" % (flags,))
        if self._should_fail(size, owner):
            return None
        if self._used + size > self._total:
            return None
        self._kernel.charge(self._kernel.costs.kmalloc_ns, "mm")
        addr = next(self._addr)
        alloc = Allocation(addr, size, owner, flags)
        self._live[addr] = alloc
        self._used += size
        self.alloc_count += 1
        return alloc

    def kfree(self, alloc):
        if alloc is None:
            return
        if alloc.freed:
            raise SimulationError(
                "double free of %d-byte allocation owned by %s"
                % (alloc.size, alloc.owner)
            )
        alloc.freed = True
        del self._live[alloc.address]
        self._used -= alloc.size

    def dma_alloc_coherent(self, size, owner="kernel"):
        """Allocate DMA memory usable by device models; may sleep."""
        self._kernel.context.might_sleep("dma_alloc_coherent")
        if size <= 0:
            return None
        if self._should_fail(size, owner):
            return None
        self._kernel.charge(self._kernel.costs.kmalloc_ns * 4, "mm")
        dma_addr = self._next_dma
        # Keep regions 4 KiB-aligned and non-overlapping.
        self._next_dma += (size + 0xFFF) & ~0xFFF
        region = DmaRegion(dma_addr, size, owner)
        self._dma_regions[dma_addr] = region
        self._used += size
        self.dma_bytes += size
        return region

    def dma_free_coherent(self, region):
        if region is None:
            return
        if region.freed:
            raise SimulationError("double free of DMA region @%x" % region.dma_addr)
        region.freed = True
        del self._dma_regions[region.dma_addr]
        self._used -= len(region.data)
        self.dma_bytes -= len(region.data)
        if self._dma_hit is region:
            self._dma_hit = None

    def dma_region(self, dma_addr):
        """Device-side lookup of a DMA region by bus address."""
        return self._dma_regions.get(dma_addr)

    def dma_find(self, addr):
        """Resolve any bus address to ``(region, offset)`` or (None, 0).

        Supports addresses pointing into the middle of a region, which is
        how devices see buffer pointers in descriptor rings.  Datapath
        lookups hit the same region (the rx/tx buffer arena) for every
        packet, so the last resolved region is checked first.
        """
        hit = self._dma_hit
        if hit is not None:
            base = hit.dma_addr
            if base <= addr < base + len(hit.data):
                return hit, addr - base
        region = self._dma_regions.get(addr)
        if region is not None:
            self._dma_hit = region
            return region, 0
        for base, region in self._dma_regions.items():
            if base <= addr < base + len(region.data):
                self._dma_hit = region
                return region, addr - base
        return None, 0

    def live_allocations(self, owner=None):
        allocs = list(self._live.values()) + list(self._dma_regions.values())
        if owner is None:
            return allocs
        return [a for a in allocs if a.owner == owner]
