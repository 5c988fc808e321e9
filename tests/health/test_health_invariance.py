"""Installing the health plane changes nothing on a healthy run.

Each case is a supervised decaf rig driving one Table 3 workload for
about one virtual second, once without a health plane and once with
one.  The plane only observes: the two runs must give the same
``row()`` (apart from the plane's own keys), end at the same virtual
time, and no watchdog may fire -- a fire on a healthy driver would be
a false wedge, and its supervised restart would move every column.
"""

import pytest

from repro.workloads import (
    make_8139too_rig, make_e1000_rig, make_ens1371_rig, make_psmouse_rig,
    make_uhci_rig, move_and_click, mpg123_play, netperf_recv, netperf_send,
    tar_to_flash)

HEALTH_KEYS = ("watchdog_fires", "health_dumps")

CASES = {
    "e1000-netperf_send": (make_e1000_rig,
                           lambda rig: netperf_send(rig, duration_s=1.0)),
    "e1000-netperf_recv": (make_e1000_rig,
                           lambda rig: netperf_recv(rig, duration_s=1.0)),
    "8139too-netperf_send": (make_8139too_rig,
                             lambda rig: netperf_send(rig, duration_s=1.0)),
    "ens1371-mpg123_play": (make_ens1371_rig,
                            lambda rig: mpg123_play(rig, duration_s=1.0)),
    # 1 MiB at USB 1.1 full speed is ~0.9 virtual s.
    "uhci-tar_to_flash": (make_uhci_rig,
                          lambda rig: tar_to_flash(
                              rig, archive_bytes=1024 * 1024)),
    "psmouse-move_and_click": (make_psmouse_rig,
                               lambda rig: move_and_click(
                                   rig, duration_s=1.0)),
}


def _supervised_run(make_rig, workload, health):
    rig = make_rig(decaf=True, health=health)
    rig.insmod()
    rig.supervise()
    result = workload(rig)
    row = {key: value for key, value in result.row().items()
           if key not in HEALTH_KEYS}
    return rig, row


@pytest.mark.parametrize("case", sorted(CASES))
def test_health_plane_only_observes(case):
    make_rig, workload = CASES[case]
    bare, bare_row = _supervised_run(make_rig, workload, health=False)
    watched, watched_row = _supervised_run(make_rig, workload, health=True)

    assert watched_row == bare_row
    assert watched.kernel.clock.now_ns == bare.kernel.clock.now_ns
    watchdog = watched.kernel.health.watchdog
    assert watchdog.checks > 0
    assert watchdog.events == []
    assert watched.supervisor.recoveries == 0
    assert watched.kernel.health.dumps == []
