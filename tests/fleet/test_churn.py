"""Hotplug churn: repeated probe/remove cycles must not accumulate state.

Every driver family (legacy and decaf) rides through 50 remove ->
re-probe cycles on one kernel.  After a warmup the kernel-global
gauges -- device registries, live DMA allocations, pending events and
work items, kstat providers and keys -- and traced Python memory must
be flat: a monotonic drift in any of them is a leak that a long-lived
fleet would hit at scale.
"""

import gc
import tracemalloc

import pytest

from repro.family import FAMILIES
from repro.fleet import FleetHarness, FleetSpec
from repro.fleet.slots import DeviceSlot
from repro.kernel import make_kernel
from repro.kernel.memory import DmaRegion
from tests.conftest import freed_dma_regions, uncollected

CYCLES = 50
WARMUP = 10


def _gauges(kernel):
    """Kernel-global occupancy that churn must leave flat."""
    return {
        "net_devices": len(kernel.net.devices),
        "usb_devices": len(kernel.usb.devices),
        "sound_cards": len(kernel.sound.cards),
        "input_devices": len(kernel.input.devices),
        "dma_allocations": len(kernel.memory.live_allocations()),
        "pending_events": len(kernel.events),
        "pending_work": len(kernel.workqueue._pending),
        "kstat_providers": len(kernel.kstat._providers),
        # Removed drivers' counts are retired under fixed names, so
        # the key set stays bounded too.
        "kstat_keys": len(kernel.kstat.snapshot()),
        "modules": len(kernel.modules.loaded),
    }


def _one_slot(kernel, family, decaf):
    return DeviceSlot(0, decaf, family).attach(kernel)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("decaf", [False, True],
                         ids=["legacy", "decaf"])
def test_churn_cycles_leave_kernel_flat(family, decaf):
    kernel = make_kernel(nr_cpus=2, nr_irqs=16, sound_use_mutex=True)
    slot = _one_slot(kernel, family, decaf)

    baseline = None
    traced_at_warmup = 0
    freed = []
    tracemalloc.start()
    try:
        for cycle in range(CYCLES):
            slot.probe()
            slot.tick()
            kernel.run_for_ms(2)
            with freed_dma_regions(kernel) as gone:
                slot.remove()
            freed += gone
            if cycle == WARMUP - 1:
                baseline = _gauges(kernel)
                gc.collect()
                traced_at_warmup = tracemalloc.get_traced_memory()[0]
        assert slot.probes == CYCLES
        gc.collect()
        traced_at_end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    assert _gauges(kernel) == baseline, \
        "kernel gauges drifted over %d churn cycles" % CYCLES
    # Python-level memory after warmup must be flat too (small slack
    # for allocator noise; a real per-cycle leak across 40 cycles
    # dwarfs it).
    growth = traced_at_end - traced_at_warmup
    assert growth < 256 * 1024, \
        "traced memory grew %d bytes over %d post-warmup cycles" % (
            growth, CYCLES - WARMUP)
    # tracemalloc does not see DMA backing: every region a remove
    # freed must be collected.
    assert not uncollected(freed)


def test_leak_check_sees_a_region_retained_across_remove():
    kernel = make_kernel(nr_cpus=2, nr_irqs=16)
    slot = _one_slot(kernel, "e1000", decaf=True)
    slot.probe()
    kernel.run_for_ms(2)
    kept = next(r for r in kernel.memory.live_allocations()
                if isinstance(r, DmaRegion) and r.owner == "e1000")
    with freed_dma_regions(kernel) as freed:
        slot.remove()
    assert kept.freed
    assert uncollected(freed) == [kept]


def test_mixed_fleet_concurrent_smoke():
    """A small mixed fleet probes, moves traffic, and tears down clean."""
    spec = FleetSpec(n_devices=10, decaf_fraction=0.5, nr_cpus=2,
                     duration_ms=30, fault_period_ms=0, seed=3)
    harness = FleetHarness(spec)
    harness.build()
    assert sum(1 for s in harness.slots if s.bound) == 10
    harness.run()
    assert sum(s.traffic_units for s in harness.slots) > 0
    harness.teardown()
    kernel = harness.kernel
    assert len(kernel.net.devices) == 0
    assert len(kernel.usb.devices) == 0
    assert len(kernel.sound.cards) == 0
    assert len(kernel.input.devices) == 0
    assert len(kernel.modules.loaded) == 0


def test_churned_slot_keeps_working_after_reprobe():
    """Traffic works identically on the re-probed instance."""
    kernel = make_kernel(nr_cpus=2, nr_irqs=16)
    slot = _one_slot(kernel, "e1000", decaf=True)
    slot.probe()
    first = slot.tick()
    kernel.run_for_ms(2)
    slot.remove()
    slot.probe()
    second = slot.tick()
    kernel.run_for_ms(2)
    slot.remove()
    assert first > 0
    assert second == first


def test_measure_build_counts_dma_backing():
    """tracemalloc does not see DMA backing; the per-device figure adds
    the sample's DMA bytes from the allocation ledger."""
    spec = FleetSpec(n_devices=4, mix=("8139too",), decaf_fraction=0.5,
                     nr_cpus=2, fault_period_ms=0, seed=3)
    harness = FleetHarness(spec)
    dma0 = harness.kernel.memory.dma_bytes
    harness.measure_build(sample=4)
    dma_per_device = (harness.kernel.memory.dma_bytes - dma0) / 4
    harness.teardown()
    assert dma_per_device > 0
    assert harness.mem_bytes_per_device > dma_per_device
