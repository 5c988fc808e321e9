"""A count outlives its owner: kstat keeps what a removed driver counted.

Unregistering a kstat provider retires its last reading into the cold
counters, and unregistering a netdev retires its packet counts, so a
window that spans an ``rmmod`` or a fleet's churn reads every count
made in it.  Without that, a removed ``Xpc``, supervisor or netdev
takes its counts along and the window reads low, or negative.
"""

import pytest

from repro.core import xpc
from repro.family import FAMILIES
from repro.fleet import FleetHarness, FleetSpec
from repro.health import KstatRegistry
from repro.workloads import make_e1000_rig, netperf_send

#: Occupancy gauges: the only keys a window may see fall.
GAUGES = ("mm.", ".queue_stopped", ".hit_rate")


def _negative_counts(delta):
    return sorted(key for key, value in delta.items()
                  if value < 0 and not any(g in key for g in GAUGES))


@pytest.mark.parametrize("family", ["e1000", "8139too"])
def test_window_over_rmmod_counts_every_crossing(family):
    rig = FAMILIES[family].rig(decaf=True)
    rig.insmod()
    kernel, channel_xpc = rig.kernel, rig.xpc
    crossings0 = channel_xpc.kernel_user_crossings
    before = kernel.kstat.snapshot()
    dev = rig.netdev()
    assert kernel.net.dev_open(dev) == 0
    kernel.run_for_ms(50)
    assert kernel.net.dev_close(dev) == 0
    rig.rmmod()
    made = channel_xpc.kernel_user_crossings - crossings0
    delta = KstatRegistry.delta(before, kernel.kstat.snapshot())
    assert made > 0
    assert delta["xpc.crossings"] == made
    assert delta["xpc.%s.crossings" % family] == made
    assert _negative_counts(delta) == []


def test_netperf_send_then_rmmod_keeps_tx_packets():
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    kernel = rig.kernel
    before = kernel.kstat.snapshot()
    result = netperf_send(rig, duration_s=0.05)
    rig.rmmod()
    delta = KstatRegistry.delta(before, kernel.kstat.snapshot())
    assert result.packets > 0
    assert delta["net.eth0.tx_packets"] == result.packets
    assert _negative_counts(delta) == []


def test_fleet_result_counts_churned_out_channels(monkeypatch):
    created = []
    init = xpc.Xpc.__init__

    def record(self, kernel):
        init(self, kernel)
        created.append(self)

    monkeypatch.setattr(xpc.Xpc, "__init__", record)
    spec = FleetSpec(n_devices=16, decaf_fraction=0.5, nr_cpus=2,
                     duration_ms=80, churn_period_ms=10, churn_max=4,
                     fault_period_ms=10, seed=5)
    harness = FleetHarness(spec).build()
    harness.run()
    result = harness.result()
    total = sum(x.kernel_user_crossings for x in created)
    live = {id(slot.xpc) for slot in harness.slots if slot.xpc is not None}
    harness.teardown()
    assert any(id(x) not in live and x.kernel_user_crossings
               for x in created), "no churned-out channel crossed"
    assert result.extra["crossings"] == total
    assert result.kstat["xpc.crossings"] == total
    assert result.kstat["recovery.recoveries"] == harness.recoveries()
    assert _negative_counts(result.kstat) == []
