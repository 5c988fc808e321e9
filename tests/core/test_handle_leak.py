"""Opaque handles and deferred polls do not outlive what they serve.

The decaf e1000 nucleus hands its rx/tx DMA regions to the user half as
opaque handles.  A channel that held freed regions in a strong table
kept about 1 MiB per ``dev_open``/``dev_close`` cycle alive until rmmod.
Regions are now held weakly, and every object gets a fresh handle, so a
stale handle cannot resolve to a newer region that reuses a dead one's
``id()``.

A nucleus's periodic poll (watchdog, link watch, root-hub status,
resync) owns one timer and one work item for the nucleus's life: an
open/close cycle or a supervised recovery restarts it without leaving
another ``KernelTimer``/``WorkItem`` behind.
"""

import gc
import tracemalloc

import pytest

from repro.family import FAMILIES
from repro.kernel.memory import DmaRegion
from repro.kernel.timers import KernelTimer, WorkItem
from repro.workloads import make_e1000_rig
from tests.conftest import freed_dma_regions, uncollected

from .test_xpc_defer import make_channel

#: Retention budget per open/close cycle (the leak was ~1,036 KiB).
#: Python objects only: DMA backing is invisible to tracemalloc, so
#: the freed regions are checked by weakref instead.
MAX_KIB_PER_CYCLE = 16


def _open_close(rig):
    """One dev_open/dev_close cycle; weakrefs to the regions it freed."""
    net, dev = rig.kernel.net, rig.netdev()
    assert net.dev_open(dev) == 0
    with freed_dma_regions(rig.kernel) as freed:
        assert net.dev_close(dev) == 0
    return freed


def _live_timers():
    gc.collect()
    return sum(isinstance(obj, (KernelTimer, WorkItem))
               for obj in gc.get_objects())


def _check_open_close_retention(family, regions_per_cycle):
    """20 open/close cycles free their DMA regions and Python objects
    and leave the count of live timers and work items flat."""
    rig = FAMILIES[family].rig(decaf=True)
    rig.insmod()
    for _ in range(2):  # warm every lazily built cache
        _open_close(rig)
    cycles = 20
    freed = []
    timers = _live_timers()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(cycles):
            freed += _open_close(rig)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kib_per_cycle = (after - before) / 1024 / cycles
    assert kib_per_cycle <= MAX_KIB_PER_CYCLE, kib_per_cycle
    assert len(freed) >= regions_per_cycle * cycles
    assert not uncollected(freed)
    assert _live_timers() == timers


def test_decaf_e1000_open_close_retains_no_ring_buffers():
    _check_open_close_retention("e1000", 4)  # rx/tx rings and arenas


def test_decaf_8139too_open_close_retains_no_ring_buffers():
    _check_open_close_retention("8139too", 2)  # rx ring and tx buffers


@pytest.mark.parametrize("family", ["uhci_hcd", "psmouse"])
def test_supervised_recovery_retains_no_timers(family):
    rig = FAMILIES[family].rig(decaf=True)
    rig.insmod()
    sup = rig.supervise()
    before = _live_timers()
    for expected in (1, 2, 3):
        assert rig.channel._contain(RuntimeError("injected"), "test")
        assert sup.recover() is True
        rig.kernel.run_for_ms(10)
        assert sup.recoveries == expected
    assert _live_timers() == before


def test_leak_check_sees_one_retained_region():
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    net, dev = rig.kernel.net, rig.netdev()
    assert net.dev_open(dev) == 0
    kept = rig.nucleus.adapter.rx_ring.buffer_region
    with freed_dma_regions(rig.kernel) as freed:
        assert net.dev_close(dev) == 0
    assert uncollected(freed) == [kept]


def test_freed_region_handle_does_not_resolve_to_a_new_region():
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    net, dev = rig.kernel.net, rig.netdev()
    nucleus = rig.nucleus
    channel = nucleus.channel
    assert net.dev_open(dev) == 0
    old = nucleus.adapter.rx_ring.buffer_region
    stale = channel.handle_of(old)
    assert channel.object_of(stale) is old
    assert net.dev_close(dev) == 0
    del old
    gc.collect()
    assert channel.object_of(stale) == stale  # unknown: the bare number
    assert net.dev_open(dev) == 0
    new = nucleus.adapter.rx_ring.buffer_region
    assert channel.object_of(stale) is not new
    assert channel.handle_of(new) != stale
    assert net.dev_close(dev) == 0


def test_id_reuse_gets_a_fresh_handle(kernel):
    channel, _xpc = make_channel(kernel)
    region = DmaRegion(0x8000_0000, 64, "test")
    stale = channel.handle_of(region)
    assert channel.handle_of(region) == stale  # stable while alive
    del region
    gc.collect()
    assert channel.handle_count() == 0
    # CPython hands the freed slot to the next same-size object, so one
    # of these almost surely reuses the dead region's id().
    newer = [DmaRegion(0x8000_1000 + i * 0x1000, 64, "test")
             for i in range(32)]
    for obj in newer:
        handle = channel.handle_of(obj)
        assert handle != stale
        assert channel.object_of(handle) is obj
    assert channel.object_of(stale) == stale
