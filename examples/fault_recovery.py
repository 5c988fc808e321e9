#!/usr/bin/env python3
"""Fault isolation + supervised recovery, end to end (section 4.1).

For each decaf driver, inject an unchecked exception mid-workload
through the deterministic fault harness, let the supervisor restart
the user-level half and replay its configuration log, and show the
workload completing anyway -- the paper's reliability story:

    driver fault -> contained at the XPC boundary -> quiesce ->
    restart user half -> replay config -> resume traffic

Run:  python examples/fault_recovery.py [driver] [trace.json]

``driver`` is one of e1000, 8139too, ens1371, psmouse, uhci_hcd
(default: all).  With ``trace.json`` the run is exported as a
Chrome/Perfetto trace whose ``recovery.*`` instants mark the outage.
"""

import sys

from repro.faults import FaultPlan, FaultSpec
from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
    move_and_click,
    mpg123_play,
    netperf_send,
    tar_to_flash,
)

# driver -> (rig builder, faulted callsite, workload runner)
SCENARIOS = {
    "e1000": (make_e1000_rig, "watchdog",
              lambda rig, trace: netperf_send(rig, duration_s=4.0,
                                              trace=trace)),
    "8139too": (make_8139too_rig, "thread",
                lambda rig, trace: netperf_send(rig, duration_s=4.0,
                                                trace=trace)),
    "ens1371": (make_ens1371_rig, "playback_trigger",
                lambda rig, trace: mpg123_play(rig, duration_s=2.0,
                                               trace=trace)),
    "psmouse": (make_psmouse_rig, "resync_check",
                lambda rig, trace: move_and_click(rig, duration_s=3.0,
                                                  trace=trace)),
    "uhci_hcd": (make_uhci_rig, "rh_status_check",
                 lambda rig, trace: tar_to_flash(rig, trace=trace)),
}


def run_one(driver, trace=True):
    make_rig, callsite, workload = SCENARIOS[driver]
    rig = make_rig(decaf=True)
    rig.insmod()
    rig.supervise()
    rig.inject_faults(FaultPlan([
        FaultSpec("xpc_raise", callsite=callsite),
    ]))
    result = workload(rig, trace)

    stats = rig.supervisor.stats()
    print("=== %s: fault at %r mid-%s ===" % (driver, callsite, result.name))
    row = result.row()
    print("   faults injected:  %d" % row["faults_injected"])
    print("   recoveries:       %d" % row["recoveries"])
    print("   work lost:        %d" % result.packets_lost)
    print("   outage:           %.3f ms (replayed %d config ops)"
          % (stats["outage_ms"], stats["replayed_ops"]))
    print("   workload result:  %d packets, %.3f MB moved"
          % (result.packets, result.bytes_moved / 1e6))
    for _ns, message in rig.kernel.log_lines:
        if "recovery" in message or "fault-inject" in message:
            print("   dmesg: %s" % message)
    assert row["recoveries"] == 1, "expected exactly one recovery"
    assert not rig.channel.failed, "driver should be healthy again"
    return result


def main(argv):
    drivers = [argv[1]] if len(argv) > 1 else list(SCENARIOS)
    trace = argv[2] if len(argv) > 2 else True
    for driver in drivers:
        run_one(driver, trace=trace)
        print()


if __name__ == "__main__":
    main(sys.argv)
