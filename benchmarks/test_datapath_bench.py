"""Datapath ablation: per-packet interrupts vs NAPI-style polling.

Same workload (netperf-recv from a deterministic traffic generator),
same drivers, two interrupt schemes:

* ``irq_mode="irq"``  -- the seed path: one interrupt per packet (the
  E1000's ITR window is forced to 0), ``netif_rx`` with a fresh ``bytes``
  per packet;
* ``irq_mode="napi"`` -- one interrupt schedules a softirq poll that
  drains the ring under a budget, zero-copy pooled skbs, batched
  protocol-stack charging.

The virtual workload is byte-identical either way (asserted via a
payload digest), so the wall-clock ratio isolates the simulator's own
per-packet datapath cost -- the quantity NAPI exists to amortize.
Results go to ``BENCH_datapath.json``; virtual-time CPU utilization is
reported alongside, Table 3-style.
"""

import gc
import hashlib
import json
import os
import time

from repro.workloads.netperf import netperf_recv
from repro.workloads.rigs import make_8139too_rig, make_e1000_rig

RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_datapath.json")

# Virtual seconds of receive per run; CI smoke can shrink it.
DURATION_S = float(os.environ.get("DATAPATH_BENCH_SECONDS", "0.2"))


def _recv_once(make_rig, irq_mode, burst=1):
    """One full run: fresh rig, insmod, netperf-recv with payload digest."""
    rig = make_rig(irq_mode=irq_mode)
    rig.insmod()
    digest = hashlib.sha256()

    update = digest.update

    def sink_extra(_dev, skb):
        # Hash while the (possibly pooled, zero-copy) view is valid;
        # hashlib takes the memoryview directly, no copy.
        update(skb.data)

    result = netperf_recv(rig, duration_s=DURATION_S, sink_extra=sink_extra,
                          burst=burst)
    return result, digest.hexdigest()


def _bench_pair(fn_a, fn_b, repeats=3):
    """Interleaved best-of-N wall-clock seconds for two competing runs."""
    out_a = fn_a()  # warm-up fills import/codec caches for both
    out_b = fn_b()
    best_a = best_b = float("inf")
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            ra = fn_a()
            best_a = min(best_a, time.perf_counter() - t0)
            t0 = time.perf_counter()
            rb = fn_b()
            best_b = min(best_b, time.perf_counter() - t0)
            # Determinism: every repeat reproduces the warm-up run.
            assert ra[1] == out_a[1], "irq-mode run is not deterministic"
            assert rb[1] == out_b[1], "napi-mode run is not deterministic"
    finally:
        if gc_was_enabled:
            gc.enable()
    return (out_a, best_a), (out_b, best_b)


def _section(result, digest, wall_s):
    return {
        "virtual_s": result.duration_s,
        "wall_s": wall_s,
        "packets": result.packets,
        "bytes": result.bytes_moved,
        "throughput_mbps": result.throughput_mbps,
        "cpu_utilization_pct": 100 * result.cpu_utilization,
        "wall_packets_per_sec": result.packets / wall_s,
        "napi_polls": result.kstat.get("napi.polls", 0),
        "napi_budget_exhaustions":
            result.kstat.get("napi.budget_exhaustions", 0),
        "napi_pkts_per_poll":
            {str(k): v for k, v in sorted(result.pkts_per_poll().items())},
        "skb_pool_hit_rate": result.skb_pool_hit_rates()[0],
        "payload_sha256": digest,
    }


def _run_ablation(make_rig, table_printer, title, burst=1):
    (irq_out, irq_wall), (napi_out, napi_wall) = _bench_pair(
        lambda: _recv_once(make_rig, "irq", burst=burst),
        lambda: _recv_once(make_rig, "napi", burst=burst),
    )
    irq_res, irq_digest = irq_out
    napi_res, napi_digest = napi_out

    # The ablation compares cost, never behaviour: both schemes must
    # deliver the identical packet stream to the identical sink.
    assert napi_digest == irq_digest, "payloads differ between modes"
    assert napi_res.packets == irq_res.packets

    irq_pps = irq_res.packets / irq_wall
    napi_pps = napi_res.packets / napi_wall
    speedup = napi_pps / irq_pps
    table_printer(
        title,
        ["Mode", "Pkts", "Wall s", "Pkts/s (wall)", "CPU% (virt)",
         "Polls", "Pool hit%"],
        [
            ("per-packet irq", irq_res.packets, "%.3f" % irq_wall,
             "%.0f" % irq_pps, "%.1f" % (100 * irq_res.cpu_utilization),
             irq_res.row()["napi_polls"], "-"),
            ("napi", napi_res.packets, "%.3f" % napi_wall,
             "%.0f" % napi_pps, "%.1f" % (100 * napi_res.cpu_utilization),
             napi_res.row()["napi_polls"],
             "%.1f" % (100 * napi_res.skb_pool_hit_rates()[0])),
        ],
    )
    section = {
        "virtual_duration_s": DURATION_S,
        "irq": _section(irq_res, irq_digest, irq_wall),
        "napi": _section(napi_res, napi_digest, napi_wall),
        "wall_speedup": speedup,
        "payloads_identical": True,
    }
    return section, speedup, irq_res, napi_res


def test_e1000_recv_ablation(table_printer):
    """NAPI must receive >= 2x the packets per wall-clock second."""
    section, speedup, irq_res, napi_res = _run_ablation(
        lambda irq_mode: make_e1000_rig(irq_mode=irq_mode),
        table_printer,
        "netperf-recv ablation: e1000 @ 1G (%.2g virtual s)" % DURATION_S)
    _merge_results({"e1000_recv": section})

    # The polled path actually polled, batched, and reused buffers.
    napi_polls = napi_res.kstat["napi.polls"]
    assert napi_polls > 0
    assert "napi.polls" not in irq_res.kstat
    assert napi_res.skb_pool_hit_rates()[0] > 0.99
    assert sum(napi_res.pkts_per_poll().values()) == napi_polls
    assert speedup >= 2.0, (
        "napi only %.2fx per-packet irq wall-clock pkts/s" % speedup)


def test_rtl8139_recv_ablation(table_printer):
    """100M chip under bursty arrivals (TCP windows / sender GRO).

    Both modes see the identical 8-frame bursts; the NAPI run
    additionally opens the chip's interrupt-coalescing window, so one
    interrupt schedules one poll that drains the whole burst.  At 100M
    the packet rate is ~12x lower than gigabit, so the win is smaller
    than e1000's, but NAPI must at least not lose to per-packet IRQs.
    """
    def make_rig(irq_mode):
        return make_8139too_rig(
            irq_mode=irq_mode,
            rx_coalesce_ns=100_000 if irq_mode == "napi" else 0)

    section, speedup, _irq_res, napi_res = _run_ablation(
        make_rig, table_printer,
        "netperf-recv ablation: rtl8139 @ 100M (%.2g virtual s)" % DURATION_S,
        burst=8)
    _merge_results({"rtl8139_recv": section})
    assert napi_res.kstat["napi.polls"] > 0
    # The burst actually batched: the median poll drains more than one
    # packet (the 0.67x regression came from 1-packet polls).
    assert max(napi_res.pkts_per_poll()) > 1
    assert speedup >= 1.0, (
        "napi only %.2fx per-packet irq wall-clock pkts/s" % speedup)


def _merge_results(update):
    """Accumulate sections into BENCH_datapath.json across tests."""
    path = os.path.abspath(RESULT_PATH)
    results = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                results = json.load(fh)
        except ValueError:
            results = {}
    results.update(update)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
