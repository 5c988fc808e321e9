#!/usr/bin/env python3
"""Quickstart: boot a simulated machine, load a decaf driver, move data.

Builds the E1000 rig twice -- once with the legacy kernel-only driver,
once with the Decaf split driver -- runs a short netperf-style send on
each, and prints what the paper's Table 3 measures: throughput parity,
init-latency cost, and where the crossings went.

Run:  python examples/quickstart.py
"""

from repro.workloads import make_e1000_rig, netperf_send


def run(decaf):
    rig = make_e1000_rig(decaf=decaf)
    rig.insmod()
    result = netperf_send(rig, duration_s=1.0)
    return rig, result


def main():
    print("Decaf Drivers quickstart: E1000 on a simulated gigabit link\n")

    native_rig, native = run(decaf=False)
    decaf_rig, decaf = run(decaf=True)

    print("%-28s %14s %14s" % ("", "native", "decaf"))
    print("%-28s %13.1f %14.1f" % ("throughput (Mb/s)",
                                   native.throughput_mbps,
                                   decaf.throughput_mbps))
    print("%-28s %13.1f%% %13.1f%%" % ("CPU utilization",
                                       100 * native.cpu_utilization,
                                       100 * decaf.cpu_utilization))
    print("%-28s %13.2fs %13.2fs" % ("driver init latency",
                                     native.init_latency_s,
                                     decaf.init_latency_s))
    row = decaf.row()
    print("%-28s %14d %14d" % ("kernel/user crossings",
                               0, row["crossings"]))
    print("%-28s %14s %14d" % ("decaf calls during workload",
                               "-", row["decaf_invocations"]))

    ratio = decaf.throughput_mbps / native.throughput_mbps
    print("\nRelative performance: %.3f "
          "(paper reports 0.99-1.00 across drivers)" % ratio)
    print("The data path never leaves the kernel; initialization pays "
          "for XPC and marshaling.")


if __name__ == "__main__":
    main()
