"""The repo benchmark: speed metrics of the simulator on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload netperf-recv --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps every
layer's entry points with a span recorder and reports per-layer metrics.
Times are in reference seconds (see reference.py): host seconds scaled
by how fast the host ran a fixed reference loop around them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full result record (seed, host fingerprint, digests, reconciliation).
See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import reference
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5
#: Repetitions that always run, however short --seconds is.
MIN_REPS = 3
#: Where traced runs write their spans, relative to the checkout root.
SPANS_DIR = ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_to_fastest_cpu(loop, probes=3):
    """Keep this process, and the set-up children it spawns, on the CPU
    where the reference loop runs fastest now.

    On a shared host each vCPU slows on its own (the reference loop ran
    22 ms on one vCPU and 30 ms on the other at the same moment).  The
    reference loop only describes the work it brackets when both run on
    the same CPU, and the less contended CPU leaves less for it to
    correct.  Returns ``(cpu, {cpu: median loop seconds})``, or
    ``(None, {})`` where affinity is not supported.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None, {}
    loop_s = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        loop_s[cpu] = statistics.median(loop.probe() for _ in range(probes))
    cpu = min(loop_s, key=loop_s.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, loop_s


def _import_program():
    """Import the simulator from ROOT/src; None when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        return None
    sys.path.insert(0, src)
    import workloads
    return workloads


# -- set-up time ---------------------------------------------------------------


def _setup_child(args, workloads):
    """Body of one set-up sample: build the ready state, say so, exit."""
    workloads.WORKLOADS[args.workload](args.seed).setup()
    print("ready", flush=True)
    return 0


def measure_setup(args):
    """Seconds from spawning a fresh interpreter to ``ready``, once per
    sample: ``(host seconds, reference seconds)`` lists."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-child"]
    samples, ref_samples = [], []
    for _ in range(SETUP_SAMPLES):
        loop_before = args.reference.probe()
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError("set-up child failed (exit %d)" % rc)
        loop_s = (loop_before + args.reference.probe()) / 2
        samples.append(elapsed)
        ref_samples.append(reference.ref_seconds(elapsed, loop_s))
    return samples, ref_samples


# -- repetitions ---------------------------------------------------------------


def run_reps(workload, seconds=None, count=None, on_rep=None):
    """Repetitions until ``seconds`` elapse (at least MIN_REPS, and whole
    groups only) or exactly ``count``; the heap is
    collected before each one.  Returns the repetitions, each with
    ``ref_s`` (its timed phase in reference seconds, or in host seconds
    when the workload has no probe), and their pooled unit times."""
    group = workload.GROUP
    units = stats.UnitTimes(workload.UNITS_PER_BLOCK)
    reps = []
    deadline = perf_counter() + (seconds or 0)
    while True:
        done = len(reps)
        if count is not None and done >= count:
            break
        if (count is None and done >= MIN_REPS and done % group == 0
                and perf_counter() >= deadline):
            break
        gc.collect()
        if on_rep is not None:
            on_rep(done + 1)
        rep = workload.rep()
        # Keep the pooled summary, not every sample.
        units.add(rep.unit_s, rep.ref_s / rep.host_s)
        rep.unit_s = None
        reps.append(rep)
    return reps, units


def check_digests(digests, reps):
    """Every repetition must reproduce the digest of the first one with
    its key; ``digests`` (key -> digest) fills as keys appear."""
    errors = []
    for i, rep in enumerate(reps):
        want = digests.setdefault(rep.key, rep.digest)
        if rep.digest != want:
            errors.append("repetition %d (key %s) digest %s != %s"
                          % (i, rep.key, rep.digest, want))
    return errors


def sim_digest(digests):
    if len(digests) == 1:
        return next(iter(digests.values()))
    return "; ".join("%s: %s" % kv for kv in sorted(digests.items()))


def metric(value, unit):
    return {"value": value, "unit": unit}


def rate(reps, group, amount, seconds):
    return statistics.median(stats.group_rates(reps, group, amount, seconds))


def units_per_host_s(reps):
    return sum(r.units for r in reps) / sum(r.host_s for r in reps)


def timed_run(args, workloads):
    setup_host, setup_ref = measure_setup(args)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, probe=args.reference.probe)
    workload.setup()
    warm = workload.rep()  # caches fill before timing; checked, not timed
    reps, unit_times = run_reps(workload, seconds=args.seconds)
    digests = {warm.key: warm.digest}
    errors = check_digests(digests, reps)
    errors += workload.check(warm.digest)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kib_per_device = workload.mem_kib_per_device()
    group = workload.GROUP
    units, events = (lambda r: r.units), (lambda r: r.events)
    by_ref, by_host = (lambda r: r.ref_s), (lambda r: r.host_s)
    p50, tail, tail_pct, tail_block = unit_times.summary()
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    metrics = {
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "units_per_ref_s": metric(rate(reps, group, units, by_ref),
                                  "1/ref_s"),
        "sim_events_per_ref_s": metric(rate(reps, group, events, by_ref),
                                       "1/ref_s"),
        "peak_mem_mib": metric(peak_mib, "MiB"),
        "mem_kib_per_device": metric(kib_per_device, "KiB"),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "host": stats.fingerprint(),
        "unit": workload.unit,
        "sim_digest": sim_digest(digests),
        "repetitions": len(reps),
        "repetitions_per_sample": group,
        "units_per_rep": warm.units,
        # The same rates in host seconds, and set-up in host seconds:
        # reported, not gated, because other tenants of a shared host
        # move them by up to ~2x.
        "host_time": {
            "units_per_s": rate(reps, group, units, by_host),
            "sim_events_per_s": rate(reps, group, events, by_host),
            "setup_s": statistics.median(setup_host),
            "setup_samples_s": setup_host,
            "reference_loop_s": statistics.median(r.loop_s for r in reps),
        },
        # Reported, not gated: in host seconds their run-to-run spread
        # exceeded the largest bound the benchmark may set.
        "unit_p50_ms": 1e3 * p50,
        "unit_tail_ms": 1e3 * tail,
        "unit_tail": {"percentile": tail_pct, "block": tail_block,
                      "beyond": stats.TAIL_BEYOND,
                      "rule": "per block of consecutive units pooled "
                              "across repetitions, in reference seconds; "
                              "median over blocks"},
        "setup_samples_ref_s": setup_ref,
        "ops": {"attempted": attempted, "failed": failed,
                "failed_frac": stats.failed_frac(failed, attempted)},
        "errors": errors,
    }
    return metrics, record, attempted, failed, errors


# -- traced run -----------------------------------------------------------------


def _layer_metrics(summary, program, bank_delta, workloads, workload,
                   base_ups, traced_ups, spans_mod):
    count, self_s, busy = (summary["count"], summary["self_s"],
                           summary["busy_s"])

    def n(*names):
        return sum(count.get(x, 0) for x in names)

    def n_prefix(prefix):
        return sum(v for k, v in count.items() if k.startswith(prefix))

    def self_of(pred):
        return sum(v for k, v in self_s.items() if pred(k))

    def layer_self(layer):
        return self_of(lambda k: spans_mod.layer_of(k) == layer)

    def prefix_self(prefix):
        return self_of(lambda k: spans_mod.prefix_of(k) == prefix)

    def frac(a, b):
        return a / b if b else 0.0

    pg = program.get
    xmits = n("kernel.net:dev_queue_xmit")
    fired, recovered = pg("faults", 0), pg("recoveries", 0)
    pool_total = pg("pool_builds", 0) + pg("pool_reuses", 0)
    out = {
        "kernel.events.dispatched": (n("kernel:event"), "count"),
        "kernel.consume.calls": (
            n("kernel:consume", spans_mod.CROSSING_CHARGE), "count"),
        "kernel.irq.delivered": (pg("irq_delivered", 0), "count"),
        "kernel.run_until.busy_s": (busy["run_until"], "s"),
        "kernel.self_s": (layer_self("kernel"), "s"),
        "kernel.io.accesses": (metrics_io_accesses(summary), "count"),
        "kernel.io.self_s": (layer_self("kernel.io"), "s"),
        "kernel.net.rx_pkts": (pg("rx_pkts", 0), "count"),
        "kernel.net.tx_pkts": (xmits - pg("tx_busy"), "count"),
        "kernel.net.napi_polls": (n("drivers:napi_poll"), "count"),
        "kernel.net.pkts_per_poll": (
            frac(pg("napi_work", 0), pg("napi_polls", 0)), "pkt/poll"),
        "kernel.net.skb_pool_hit_frac": (
            frac(pg("pool_hits", 0),
                 pg("pool_hits", 0) + pg("pool_misses", 0)), "ratio"),
        "kernel.net.tx_busy_frac": (
            frac(pg("tx_busy"), xmits), "ratio"),
        "kernel.net.self_s": (layer_self("kernel.net"), "s"),
        "kernel.module.insmod.calls": (n("kernel.bus:insmod"), "count"),
        "kernel.module.insmod.busy_s": (busy["insmod"], "s"),
        "kernel.module.rmmod.busy_s": (busy["rmmod"], "s"),
        "kernel.bus.self_s": (layer_self("kernel.bus"), "s"),
        "devices.self_s": (layer_self("devices"), "s"),
        "drivers.callbacks": (n_prefix("drivers:"), "count"),
        "drivers.self_s": (layer_self("drivers"), "s"),
        "core.xpc.crossings": (summary["crossings"], "count"),
        "core.xpc.lang_crossings": (bank_delta["lang_crossings"], "count"),
        "core.xpc.busy_s": (busy["xpc"], "s"),
        "core.xpc.self_s": (layer_self("core.xpc"), "s"),
        "core.xpc.deferred_coalesced_frac": (
            frac(bank_delta["deferred_coalesced"],
                 bank_delta["deferred_calls"]), "ratio"),
        "core.xpc.failed_calls": (bank_delta["failed_calls"], "count"),
        "core.marshal.calls": (
            n("core.marshal:encode_args", "core.marshal:decode_args"),
            "count"),
        "core.marshal.bytes": (pg("marshal_bytes"), "B"),
        "core.marshal.self_s": (prefix_self("core.marshal"), "s"),
        "faults.fired": (fired, "count"),
        "recovery.recoveries": (recovered, "count"),
        "recovery.success_frac": (frac(recovered, fired) if fired else 1.0,
                                  "ratio"),
        "recovery.busy_s": (busy["recover"], "s"),
        "fleet.probes": (pg("probes", 0), "count"),
        "fleet.churn.busy_s": (busy["churn"], "s"),
        "fleet.clone_pool.reuse_frac": (
            frac(pg("pool_reuses", 0), pool_total), "ratio"),
        "workloads.self_s": (layer_self("workloads"), "s"),
        "virt.duration_ms": (pg("virt_ns", 0) / 1e6, "ms"),
        "trace.overhead_frac": (base_ups / traced_ups - 1, "ratio"),
        "trace.spans": (sum(count.values()), "count"),
    }
    for family in ("e1000", "rtl8139", "ens1371", "uhci", "ps2mouse"):
        out["devices.%s.self_s" % family] = (
            prefix_self("devices." + family), "s")
    for category in workloads.BUSY_CATEGORIES:
        out["virt.busy_ms." + category] = (
            pg("busy_ns." + category, 0) / 1e6, "ms")
    init = workload.init_ms()
    for family in workloads.INIT_FAMILIES:
        out["virt.init_ms." + family] = (init.get(family, 0.0), "ms")
    return {k: metric(v, u) for k, (v, u) in out.items()}


def metrics_io_accesses(summary):
    """Register accesses: IoSpace.read/write plus compiled accessors."""
    return sum(v for k, v in summary["count"].items()
               if k.startswith("kernel.io:") and not k.endswith(".factory"))


def traced_run(args, workloads):
    import spans as spans_mod

    cls = workloads.WORKLOADS[args.workload]
    # Untraced baseline for trace.overhead_frac, built before any wrapper.
    # Both sides in host seconds: the reference probes would add to the
    # traced repetitions' ``workloads`` self time.
    base = cls(args.seed)
    base.setup()
    base.rep()
    base_reps, _ = run_reps(base, seconds=args.seconds / 2)
    del base
    gc.collect()

    rec = spans_mod.SpanRecorder()
    patcher, bank = spans_mod.install(rec)
    try:
        workload = cls(args.seed, wrap=rec.wrap)
        workload.rep = rec.wrap("workloads:rep", workload.rep)
        workload.setup()
        warm = workload.rep()
        banks = []

        def on_rep(k):
            rec.run_id[0] = k
            banks.append(bank.totals())

        reps, _ = run_reps(workload, count=cls.TRACED_REPS, on_rep=on_rep)
        end_bank = bank.totals()
    finally:
        patcher.restore()
    runs = set(range(1, len(reps) + 1))
    summary = spans_mod.summarize(rec, runs, {
        "run_until": lambda s: s == "kernel:run_until",
        "insmod": lambda s: s == "kernel.bus:insmod",
        "rmmod": lambda s: s == "kernel.bus:rmmod",
        "xpc": lambda s: spans_mod.layer_of(s) == "core.xpc",
        "recover": lambda s: s == "recovery:DriverSupervisor.recover",
        "churn": lambda s: s == "fleet:churn_event",
    })
    program = {}
    for rep in reps:
        for key, value in rep.program.items():
            program[key] = program.get(key, 0) + value
    bank_delta = {f: end_bank[f] - banks[0][f] for f in end_bank}
    # Untraced and traced rates over the same fleets (one on netperf and
    # the lifecycle; on fleet-churn the traced reps' fleet seeds).
    keys = {r.key for r in reps}
    base_ups = units_per_host_s([r for r in base_reps if r.key in keys])
    traced_ups = units_per_host_s(reps)
    pairs = {
        "core.xpc.crossings": (summary["crossings"],
                               bank_delta["kernel_user_crossings"]),
        "kernel.events.dispatched": (summary["count"].get("kernel:event", 0),
                                     program["events"]),
        "kernel.net.napi_polls": (
            summary["count"].get("drivers:napi_poll", 0),
            program["napi_polls"]),
        "kernel.io.accesses": (metrics_io_accesses(summary),
                               program["io_accesses"]),
    }
    errors = spans_mod.reconcile(pairs)
    digests = {warm.key: warm.digest}
    errors += check_digests(digests, reps)
    program["tx_busy"] = rec.metered("tx_busy", runs)
    program["marshal_bytes"] = rec.metered("marshal_bytes", runs)
    metrics = _layer_metrics(summary, program, bank_delta, workloads,
                             workload, base_ups, traced_ups, spans_mod)
    os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
    spans_path = os.path.join(ROOT, SPANS_DIR,
                              "spans-%s.tsv.gz" % args.workload)
    rec.dump(spans_path)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": 1,
        "host": stats.fingerprint(),
        "sim_digest": sim_digest(digests),
        "repetitions": len(reps),
        "reconciliation": {k: {"wrappers": a, "program": b}
                           for k, (a, b) in pairs.items()},
        "spans_file": os.path.relpath(spans_path, ROOT),
        "ops": {"attempted": attempted, "failed": failed,
                "failed_frac": stats.failed_frac(failed, attempted)},
        "errors": errors,
    }
    return metrics, record, attempted, failed, errors


def main(argv=None):
    args = _parse(argv)
    workloads = _import_program()
    if workloads is None:
        print("perfbench: no simulator sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (one of %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    if args.setup_child:
        return _setup_child(args, workloads)
    args.reference = reference.ReferenceLoop()
    cpu, cpu_loop_s = pin_to_fastest_cpu(args.reference)
    run = traced_run if args.trace else timed_run
    metrics, record, attempted, failed, errors = run(args, workloads)
    record["host"]["pinned_cpu"] = cpu
    record["host"]["reference_loop_s_by_cpu"] = cpu_loop_s
    for name, m in metrics.items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for name in ("unit_p50_ms", "unit_tail_ms"):
        if name in record:
            print("%-36s %16.6g ms (not gated)" % (name, record[name]))
    for error in errors:
        print("ERROR: %s" % error)
    print(json.dumps({"record": record}, sort_keys=True))
    correct = not errors and attempted >= 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
