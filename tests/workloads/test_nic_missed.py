"""Frames a NIC loses, counted where the device model drops them.

Over 2.5 virtual s of ``netperf_recv`` (one watchdog upcall) the decaf
e1000 loses 2,312 of 195,312 offered frames off its full receive
backlog, and the decaf 8139too overflows its ring 201 times; the legacy
drivers keep up.  Each NIC reports its losses as kstat
``nic.<instance>.rx_missed``, which outlives an unplug like every
other count.
"""

import pytest

from repro.workloads import make_8139too_rig, make_e1000_rig, netperf_recv

SECONDS = 2.5


@pytest.mark.parametrize("make, decaf, offered, missed", [
    (make_e1000_rig, False, 195_312, 0),
    (make_e1000_rig, True, 195_312, 2_312),
    (make_8139too_rig, False, 19_531, 0),
    (make_8139too_rig, True, 19_531, 201),
], ids=["e1000", "e1000+decaf", "8139too", "8139too+decaf"])
def test_missed_frames_over_a_receive_window(make, decaf, offered, missed):
    rig = make(decaf=decaf)
    rig.insmod()
    kernel = rig.kernel
    key = "nic.%s.rx_missed" % rig.name
    assert key in kernel.kstat.snapshot()
    result = netperf_recv(rig, duration_s=SECONDS)
    assert result.kstat.get(key, 0) == missed
    assert result.packets + missed == offered

    rig.rmmod()
    rig.family.unplug(rig)
    assert kernel.kstat.snapshot().get(key, 0) == missed


def test_e1000_counts_backlog_drops_not_ring_full_retries():
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    netperf_recv(rig, duration_s=SECONDS)
    nic = rig.device
    assert nic.rx_missed == 2_312
    # A backlogged frame is refused again on every retry.
    assert nic.rx_no_buffer > nic.rx_missed
