"""Unloading the last driver module releases its kernel.

A driver source module is shared by every device it drives, so its
only kernel-bound global, ``linux``, is cleared when the last module
on that kernel binding it unloads.  Nothing else may keep a torn-down kernel (and
its DMA arenas and skb pools) alive.
"""

import gc
import weakref

import pytest

from repro.family import FAMILIES
from repro.fleet import FleetHarness, FleetSpec


def test_fleet_teardown_releases_the_kernel():
    spec = FleetSpec(n_devices=32, decaf_fraction=0.5, nr_cpus=2,
                     duration_ms=20, fault_period_ms=5, seed=11)
    harness = FleetHarness(spec).build()
    harness.run()
    assert harness.faults_fired() > 0
    harness.teardown()
    kernel = weakref.ref(harness.kernel)
    del harness
    gc.collect()
    assert kernel() is None


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("decaf", [False, True], ids=["legacy", "decaf"])
def test_rig_rmmod_releases_the_kernel(family, decaf):
    rig = FAMILIES[family].rig(decaf=decaf)
    rig.insmod()
    rig.rmmod(check_leaks=True)
    kernel = weakref.ref(rig.kernel)
    del rig
    gc.collect()
    assert kernel() is None
