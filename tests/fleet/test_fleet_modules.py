"""A fleet loads one module per driver variant and unplugs, not rmmods.

The fleet kernel loads each (family, variant) pair's module once, the
first time a slot of that pair probes; churn then hot-unplugs and
re-plugs devices under modules that stay loaded.  Teardown unloads the
modules and fails if any allocation survives but the kernel's own
skb-pool arenas.
"""

import pytest

from repro.drivers.linuxapi import LinuxApi
from repro.fleet import FleetHarness, FleetSpec
from repro.kernel.errors import MemoryLeakError
from repro.kernel.module import ModuleLoader


def test_one_module_per_family_and_variant(monkeypatch):
    spec = FleetSpec(n_devices=20, decaf_fraction=0.5, nr_cpus=2,
                     duration_ms=60, churn_period_ms=20, fault_period_ms=10,
                     seed=3)
    harness = FleetHarness(spec).build()
    kernel = harness.kernel
    pairs = {(s.family.key, s.decaf) for s in harness.slots}
    assert len(kernel.modules.loaded) == len(pairs) == 10

    calls = []
    for name in ("insmod", "rmmod"):
        monkeypatch.setattr(ModuleLoader, name, lambda *a, name=name, **k:
                            calls.append(name))
    harness.run(duration_ms=spec.churn_period_ms)
    assert harness.removes > 0
    assert len(kernel.modules.loaded) == len(pairs)
    harness.run()
    assert harness.churn_cycles > 0
    assert calls == []
    monkeypatch.undo()
    harness.teardown()
    assert not kernel.modules.loaded


def test_teardown_raises_when_a_remove_leaks(monkeypatch):
    spec = FleetSpec(n_devices=2, mix=("uhci_hcd",), decaf_fraction=0.0,
                     nr_cpus=1, duration_ms=4, fault_period_ms=0, seed=1)
    harness = FleetHarness(spec).build()
    harness.run()
    skipped = []
    free = LinuxApi.dma_free_coherent

    def free_all_but_one(self, region):
        if skipped:
            free(self, region)
        else:
            skipped.append(region)

    monkeypatch.setattr(LinuxApi, "dma_free_coherent", free_all_but_one)
    with pytest.raises(MemoryLeakError, match="uhci_hcd"):
        harness.teardown()
    assert len(skipped) == 1
