"""``DeviceInstance.netdev()`` is the instance's own network device.

Network devices are named from a per-kernel counter, so a NIC that
re-registers after a reload is ``eth1``, and the second NIC on a fleet
kernel is another slot's ``eth1``: a lookup by the name ``eth0`` finds
nothing, or a peer's device.  The lookup goes through the PCI function
the way the driver does, and also works after a bare
``kernel.modules.insmod`` (which does not set ``rig.endpoint``).
"""

import pytest

from repro.family import FAMILIES
from repro.fleet.slots import DeviceSlot
from repro.kernel import make_kernel

NICS = ["e1000", "8139too"]
VARIANTS = pytest.mark.parametrize("decaf", [False, True],
                                   ids=["legacy", "decaf"])


@VARIANTS
@pytest.mark.parametrize("family", NICS)
def test_netdev_after_rmmod_insmod(family, decaf):
    rig = FAMILIES[family].rig(decaf=decaf)
    rig.insmod()
    first = rig.netdev()
    assert first is rig.endpoint
    rig.rmmod()
    assert rig.netdev() is None
    rig.insmod()
    dev = rig.netdev()
    assert dev is not None and dev is rig.endpoint
    assert dev.name != first.name  # re-registered under a new name
    assert rig.kernel.net.dev_open(dev) == 0
    assert rig.kernel.net.dev_close(dev) == 0


@VARIANTS
@pytest.mark.parametrize("family", NICS)
def test_netdev_after_bare_insmod(family, decaf):
    rig = FAMILIES[family].rig(decaf=decaf)
    assert rig.kernel.modules.insmod(rig.module) == 0
    assert rig.endpoint is None
    dev = rig.netdev()
    assert dev in rig.kernel.net.devices
    assert rig.kernel.net.dev_open(dev) == 0
    assert rig.kernel.net.dev_close(dev) == 0


@VARIANTS
@pytest.mark.parametrize("family", NICS)
def test_two_slots_each_get_their_own_netdev(family, decaf):
    kernel = make_kernel(nr_cpus=1, nr_irqs=16)
    slots = [DeviceSlot(i, decaf, family).attach(kernel) for i in (0, 1)]
    for slot in slots:
        slot.probe()
    first, second = (slot.netdev() for slot in slots)
    assert first is slots[0].endpoint
    assert second is slots[1].endpoint
    assert first is not second
    for slot in slots:
        slot.remove()
