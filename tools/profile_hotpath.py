#!/usr/bin/env python
"""Profile the NIC datapath hot loop: cProfile + ktrace attribution.

Runs one netperf-recv workload under ``cProfile`` and reports where the
*wall-clock* cycles go, bucketed by simulator layer (driver loop, device
model, kernel core, io dispatch, net stack, tracing, workload), plus the
*virtual-time* attribution the kernel's CPU accounting keeps per charge
category.  The two views answer different questions:

* cProfile buckets: where does the **simulator** burn host CPU?
* ktrace/vtime categories: where does the **simulated machine** spend
  its virtual CPU?  This is the Table-3-style utilization split; a
  simulator speed-up must leave it unchanged (byte-identical runs
  charge identical virtual time).

Examples::

    PYTHONPATH=src python tools/profile_hotpath.py --top 10
    PYTHONPATH=src python tools/profile_hotpath.py --driver rtl8139 \
        --mode napi --seconds 0.5 --sort tottime
    PYTHONPATH=src python tools/profile_hotpath.py --driver e1000 \
        --smp 4 --queues 4
    PYTHONPATH=src python tools/profile_hotpath.py --fleet 1024
"""

import argparse
import cProfile
import hashlib
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.workloads.netperf import netperf_recv  # noqa: E402
from repro.workloads.rigs import make_8139too_rig, make_e1000_rig  # noqa: E402

# Layer buckets, matched against each profiled function's source path.
# First match wins; order from most to least specific.
BUCKETS = (
    ("driver-loop", ("drivers/legacy/", "drivers/decaf/")),
    ("device-model", ("repro/devices/",)),
    ("io-dispatch", ("kernel/ioports",)),
    ("net-stack", ("kernel/netdev", "kernel/napi")),
    ("kernel-core", ("kernel/core", "kernel/events", "kernel/vtime",
                     "kernel/irq", "kernel/context", "kernel/locks",
                     "kernel/workqueue", "kernel/memory", "kernel/timers")),
    ("trace", ("repro/trace/",)),
    ("workload", ("repro/workloads/",)),
    ("cstruct/marshal", ("core/cstruct", "core/marshal")),
)


def _bucket_for(path):
    norm = path.replace(os.sep, "/")
    for name, needles in BUCKETS:
        for needle in needles:
            if needle in norm:
                return name
    return "other"


def build_rig(args):
    if args.driver == "rtl8139":
        return make_8139too_rig(
            decaf=args.decaf,
            irq_mode=args.mode,
            nr_cpus=args.smp,
            rx_coalesce_ns=100_000 if args.mode == "napi" else 0,
        )
    return make_e1000_rig(
        decaf=args.decaf,
        irq_mode=args.mode,
        nr_cpus=args.smp,
        num_queues=args.queues,
    )


def profile_fleet(args):
    """Profile a mixed hotplug fleet instead of one NIC rig.

    Same bucket attribution as the single-rig path, but the workload is
    the ISSUE-9 fleet: N devices across five families on one kernel,
    with churn and fault injection interleaved.  The headline number is
    the device-model fraction -- harness overhead must stay a minority
    cost, so optimization targets are whatever non-device buckets float
    to the top here.
    """
    from repro.fleet import FleetHarness, FleetSpec

    spec = FleetSpec(n_devices=args.fleet, nr_cpus=max(args.smp, 4),
                     duration_ms=40, fault_period_ms=10, seed=1234)
    harness = FleetHarness(spec)
    t0 = time.perf_counter()
    harness.build()
    build_wall = time.perf_counter() - t0
    harness.run(20)  # warm-up: caches filled, first churn wave done

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    harness.run(max(int(args.seconds * 1000), 40))
    profiler.disable()
    run_wall = time.perf_counter() - t0

    stats = pstats.Stats(profiler)
    total_tt = 0.0
    bucket_tt = {}
    rows = []
    for (path, line, func), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():
        total_tt += tottime
        bucket = _bucket_for(path)
        bucket_tt[bucket] = bucket_tt.get(bucket, 0.0) + tottime
        rows.append((tottime, cumtime, ncalls,
                     "%s:%d:%s" % (os.path.basename(path), line, func),
                     bucket))

    print("== profile_hotpath: fleet n=%d cpus=%d ==" % (
        spec.n_devices, spec.nr_cpus))
    print("build_wall=%.2fs  profiled_wall=%.2fs  events/s=%.0f" % (
        build_wall, run_wall, harness.events_per_sec))
    print("churn_cycles=%d  faults=%d  recoveries=%d" % (
        harness.churn_cycles, harness.faults_fired(), harness.recoveries()))

    device_tt = bucket_tt.get("device-model", 0.0)
    print("\n-- wall-clock attribution (cProfile tottime by layer) --")
    for bucket, tt in sorted(bucket_tt.items(), key=lambda kv: -kv[1]):
        print("  %-14s %8.4fs  %5.1f%%"
              % (bucket, tt, 100.0 * tt / total_tt if total_tt else 0.0))
    print("  device-model fraction: %.3f"
          % (device_tt / total_tt if total_tt else 0.0))

    key = 0 if args.sort == "tottime" else 1
    rows.sort(key=lambda r: -r[key])
    print("\n-- top %d functions by %s --" % (args.top, args.sort))
    print("  %9s %9s %9s  %-14s %s"
          % ("tottime", "cumtime", "ncalls", "layer", "function"))
    for tottime, cumtime, ncalls, where, bucket in rows[:args.top]:
        print("  %8.4fs %8.4fs %9d  %-14s %s"
              % (tottime, cumtime, ncalls, bucket, where))
    harness.teardown()
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--driver", choices=("e1000", "rtl8139"),
                        default="rtl8139")
    parser.add_argument("--mode", choices=("napi", "irq"), default="napi")
    parser.add_argument("--decaf", action="store_true",
                        help="profile the decaf split driver")
    parser.add_argument("--seconds", type=float, default=0.2,
                        help="virtual seconds of receive traffic")
    parser.add_argument("--burst", type=int, default=None,
                        help="frames per arrival burst "
                             "(default: 8 for rtl8139, 1 for e1000)")
    parser.add_argument("--smp", type=int, default=1, metavar="N",
                        help="number of virtual CPUs")
    parser.add_argument("--queues", type=int, default=1,
                        help="e1000 rx/tx queue pairs")
    parser.add_argument("--top", type=int, default=15,
                        help="how many functions to list")
    parser.add_argument("--sort", choices=("tottime", "cumulative"),
                        default="tottime")
    parser.add_argument("--fleet", type=int, default=None, metavar="N",
                        help="profile an N-device mixed hotplug fleet "
                             "instead of a single NIC rig")
    args = parser.parse_args(argv)
    if args.fleet:
        return profile_fleet(args)
    if args.burst is None:
        args.burst = 8 if args.driver == "rtl8139" else 1

    # Warm-up run fills import and codec caches so the profile measures
    # the steady state, not one-time compilation.
    rig = build_rig(args)
    rig.insmod()
    netperf_recv(rig, duration_s=min(args.seconds, 0.05), burst=args.burst)

    rig = build_rig(args)
    t0 = time.perf_counter()
    rig.insmod()
    insmod_wall = time.perf_counter() - t0

    digest = hashlib.sha256()
    update = digest.update

    def sink_extra(_dev, skb):
        update(skb.data)

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    result = netperf_recv(rig, duration_s=args.seconds,
                          sink_extra=sink_extra, burst=args.burst)
    profiler.disable()
    recv_wall = time.perf_counter() - t0

    stats = pstats.Stats(profiler)
    total_tt = 0.0
    bucket_tt = {}
    rows = []
    for (path, line, func), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():
        total_tt += tottime
        bucket = _bucket_for(path)
        bucket_tt[bucket] = bucket_tt.get(bucket, 0.0) + tottime
        rows.append((tottime, cumtime, ncalls,
                     "%s:%d:%s" % (os.path.basename(path), line, func),
                     bucket))

    print("== profile_hotpath: %s %s%s%s ==" % (
        args.driver, args.mode,
        " (decaf)" if args.decaf else "",
        (" (smp=%d q=%d)" % (args.smp, args.queues))
        if args.smp > 1 or args.queues > 1 else ""))
    print("packets=%d  virtual_s=%.4f  insmod_wall=%.4fs  recv_wall=%.4fs"
          % (result.packets, result.duration_s, insmod_wall, recv_wall))
    print("wall pkts/s=%.0f  napi_polls=%d  pool_hit=%.3f  sha256=%s"
          % (result.packets / recv_wall if recv_wall else 0.0,
             result.row()["napi_polls"], result.skb_pool_hit_rates()[0],
             digest.hexdigest()[:16]))

    print("\n-- wall-clock attribution (cProfile tottime by layer) --")
    for bucket, tt in sorted(bucket_tt.items(), key=lambda kv: -kv[1]):
        print("  %-14s %8.4fs  %5.1f%%"
              % (bucket, tt, 100.0 * tt / total_tt if total_tt else 0.0))

    key = 0 if args.sort == "tottime" else 1
    rows.sort(key=lambda r: -r[key])
    print("\n-- top %d functions by %s --" % (args.top, args.sort))
    print("  %9s %9s %9s  %-14s %s"
          % ("tottime", "cumtime", "ncalls", "layer", "function"))
    for tottime, cumtime, ncalls, where, bucket in rows[:args.top]:
        print("  %8.4fs %8.4fs %9d  %-14s %s"
              % (tottime, cumtime, ncalls, bucket, where))

    # Virtual-time attribution: the ktrace/CPU-accounting category
    # split.  A simulator speed-up must leave it unchanged -- a
    # difference here means simulated behaviour changed, not just
    # simulator speed.
    acct = rig.kernel.cpu
    cats = sorted(acct._by_category.items(), key=lambda kv: -kv[1])
    total_v = sum(ns for _c, ns in cats)
    print("\n-- virtual-time attribution (ktrace charge categories) --")
    for cat, ns in cats:
        print("  %-14s %10.3f ms  %5.1f%%"
              % (cat, ns / 1e6, 100.0 * ns / total_v if total_v else 0.0))
    print("  %-14s %10.3f ms  (window utilization %.1f%%)"
          % ("total busy", total_v / 1e6, 100 * result.cpu_utilization))
    return 0


if __name__ == "__main__":
    sys.exit(main())
