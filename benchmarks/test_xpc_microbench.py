"""XPC fast-path microbenchmarks: wall-clock codec + crossing throughput.

Unlike the Table 3 benches (virtual time, deterministic), these measure
*real* wall-clock time of the reproduction's own hot path:

* encode/decode throughput of the compiled codec (cached field lists,
  precompiled ``struct.Struct`` runs and typed ops for every other field
  kind) against the uncached per-field baseline (the tests' per-field
  oracle, ``tests/core/marshal_oracle.py``), on a scalar-heavy payload
  and on one holding every field kind;
* kernel/user crossing throughput through a full ``XpcChannel.upcall``
  round trip, scalar-only downcalls (which skip the codec) against the
  same downcalls forced through it by a pass-through ``corrupt_hook``,
  and the batched deferred-notification path against
  one-upcall-per-notification.

Results are written to ``BENCH_xpc.json`` in the repo root (see
EXPERIMENTS.md).  The asserted floors -- compiled codec at least 2x the
uncached baseline on the scalar-heavy payload, 1.5x on the every-kind
one -- are the acceptance bar for the fast-path PR; in practice the
ratios are above them.
"""

import gc
import json
import os
import time

import pytest

from repro.core import (
    Array,
    CStruct,
    DomainManager,
    Exp,
    I32,
    MarshalCodec,
    Null,
    Opaque,
    Ptr,
    Str,
    Struct,
    TypeRegistry,
    U8,
    U16,
    U32,
    U64,
    Xpc,
    XpcChannel,
)
from repro.core.marshal import TO_USER
from repro.kernel import make_kernel
from tests.core.marshal_oracle import PerFieldCodec

RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_xpc.json")


class mb_stats(CStruct):
    """Scalar-heavy payload, shaped like a NIC stats block."""

    FIELDS = [
        ("rx_packets", U64), ("tx_packets", U64),
        ("rx_bytes", U64), ("tx_bytes", U64),
        ("rx_errors", U32), ("tx_errors", U32),
        ("rx_dropped", U32), ("tx_dropped", U32),
        ("multicast", U32), ("collisions", U32),
        ("rx_length_errors", U16), ("rx_over_errors", U16),
        ("rx_crc_errors", U16), ("rx_frame_errors", U16),
        ("link_speed", U16), ("link_duplex", U8),
        ("flags", U32), ("itr", I32),
    ]


class mb_ring(CStruct):
    """Mixed payload: scalars plus linked structure."""

    FIELDS = [
        ("head", U32), ("tail", U32), ("count", U32),
        ("stats", Struct(mb_stats)),
        ("next", Ptr("mb_ring")),
    ]


class mb_kinds(CStruct):
    """Every field kind the compiled codec has a typed op for."""

    FIELDS = [
        ("id", U32), ("flags", U16), ("mode", U8),
        ("name", Str(16)),
        ("mac", Array(U8, 6)),
        ("stats", Struct(mb_stats)),
        ("pci", Ptr(U32), Exp("PCI_LEN")),
        ("dev", Ptr("mb_kinds"), Opaque()),
        ("scratch", Ptr("mb_kinds"), Null()),
        ("peer", Ptr("mb_kinds")),
        ("owner", Ptr("mb_kinds")),
        ("irq", I32),
    ]


def _bench(fn, *, repeats=3):
    """Best-of-N wall-clock seconds for fn() (one timed run each).

    GC is paused around each timed run: when this bench runs after the
    table benches, the heap holds hundreds of thousands of survivor
    objects and collection pauses would land on whichever codec is
    unlucky.
    """
    return _bench_pair(fn, None, repeats=repeats)[0]


def _bench_pair(fn_a, fn_b, *, repeats=3):
    """Best-of-N for two competing functions, measured *interleaved*.

    A/B/A/B within the same seconds, so machine-speed drift (thermal
    throttling, background load) hits both sides equally instead of
    skewing whichever happened to run during the slow minute.
    """
    fn_a()  # warm-up: fill codec caches outside the timed region
    if fn_b is not None:
        fn_b()
    best_a = best_b = float("inf")
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn_a()
            best_a = min(best_a, time.perf_counter() - t0)
            if fn_b is not None:
                t0 = time.perf_counter()
                fn_b()
                best_b = min(best_b, time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_a, best_b


def _make_obj():
    obj = mb_ring(head=17, tail=900, count=4096)
    obj.next = mb_ring(head=1, tail=2, count=3)
    stats = obj.stats
    for i, (name, _f) in enumerate(
            (f.name, f) for f in mb_stats.fields()):
        setattr(stats, name, i * 1021 + 7)
    return obj


def _make_kinds_obj():
    obj = mb_kinds(id=7, flags=0x1234, mode=3, name="eth0", irq=-1,
                   mac=[0, 0x1B, 0x21, 0xAA, 0xBB, 0xCC],
                   pci=list(range(64)), dev=0xFFFF8800_0000_1000)
    obj.peer = mb_kinds(id=8, name="eth1", pci=None)
    obj.peer.peer = obj          # cycle: a back-reference on the wire
    obj.owner = obj.peer         # shared target: another back-reference
    for i, field in enumerate(mb_stats.fields()):
        setattr(obj.stats, field.name, i * 977 + 3)
    return obj


def _codec_roundtrips(codec, obj, cls, n):
    def run():
        for _ in range(n):
            data = codec.encode(obj, cls, TO_USER)
            codec.decode(data, cls, TO_USER)
    return run


#: section -> (struct, builder, label, speedup floor).  On the
#: every-kind payload object records, tags and twin allocation -- code
#: both codecs share -- take about half the baseline's time, so its
#: floor sits lower.
PAYLOADS = {
    "codec": (mb_ring, _make_obj, "scalar-heavy ring", 2.0),
    "codec_all_kinds": (mb_kinds, _make_kinds_obj, "every field kind", 1.5),
}


@pytest.mark.parametrize("section", sorted(PAYLOADS))
def test_codec_wallclock_speedup(table_printer, section):
    """Compiled codec must beat the uncached baseline by its floor."""
    n = 3000
    cls, make, label, floor = PAYLOADS[section]
    obj = make()
    registry = TypeRegistry()
    fast = MarshalCodec(type_ids=registry)
    slow = PerFieldCodec(type_ids=registry)

    # Byte-identity first: the speedup must not come from doing less.
    assert fast.encode(obj, cls, TO_USER) == slow.encode(obj, cls, TO_USER)

    t_fast, t_slow = _bench_pair(
        _codec_roundtrips(fast, obj, cls, n),
        _codec_roundtrips(slow, obj, cls, n),
        repeats=5,
    )
    speedup = t_slow / t_fast

    per_rt_fast_us = 1e6 * t_fast / n
    per_rt_slow_us = 1e6 * t_slow / n
    table_printer(
        "XPC codec wall-clock, %s (encode+decode round trip, %d iters)"
        % (label, n),
        ["Codec", "Total s", "Per-RT us", "Speedup"],
        [
            ("uncached baseline", "%.3f" % t_slow,
             "%.1f" % per_rt_slow_us, "1.00x"),
            ("compiled", "%.3f" % t_fast,
             "%.1f" % per_rt_fast_us, "%.2fx" % speedup),
        ],
    )
    _merge_results({
        section: {
            "iterations": n,
            "baseline_s": t_slow,
            "compiled_s": t_fast,
            "baseline_per_roundtrip_us": per_rt_slow_us,
            "compiled_per_roundtrip_us": per_rt_fast_us,
            "speedup": speedup,
        }
    })
    assert speedup >= floor, "compiled codec only %.2fx baseline" % speedup


def test_crossing_throughput(table_printer):
    """Wall-clock upcalls/second through the full channel round trip."""
    n = 2000
    kernel = make_kernel()
    channel = XpcChannel(Xpc(kernel), DomainManager())
    obj = _make_obj()
    channel.kernel_tracker.register(obj)
    channel.kernel_tracker.register(obj.next)

    def run():
        for _ in range(n):
            channel.upcall(lambda twin: 0, args=[(obj, mb_ring)])

    elapsed = _bench(run, repeats=2)
    per_sec = n / elapsed

    # Scalar-only downcalls: the fast path against the same calls
    # forced through the codec by a pass-through payload hook.
    scalar = XpcChannel(Xpc(make_kernel()), DomainManager())
    hooked = XpcChannel(Xpc(make_kernel()), DomainManager())
    hooked.corrupt_hook = lambda data, direction: data

    def downcalls(ch):
        def run_downcalls():
            for _ in range(n):
                ch.downcall(lambda value: value, extra=(7,))
        return run_downcalls

    t_scalar, t_hooked = _bench_pair(downcalls(scalar), downcalls(hooked),
                                     repeats=3)
    assert scalar.xpc.bytes_marshaled == hooked.xpc.bytes_marshaled
    assert scalar.xpc.kernel.now_ns() == hooked.xpc.kernel.now_ns()
    scalar_per_sec = n / t_scalar
    hooked_per_sec = n / t_hooked
    table_printer(
        "XPC crossing throughput (%d round trips each)" % n,
        ["Path", "Wall s", "Crossings/s", "us/crossing"],
        [("upcall, struct arg", "%.3f" % elapsed, "%.0f" % per_sec,
          "%.1f" % (1e6 * elapsed / n)),
         ("downcall, scalar-only", "%.3f" % t_scalar,
          "%.0f" % scalar_per_sec, "%.1f" % (1e6 * t_scalar / n)),
         ("downcall, scalar via codec", "%.3f" % t_hooked,
          "%.0f" % hooked_per_sec, "%.1f" % (1e6 * t_hooked / n))],
    )
    _merge_results({
        "crossings": {
            "count": n,
            "wall_s": elapsed,
            "per_second": per_sec,
        },
        "scalar_downcalls": {
            "count": n,
            "wall_s": t_scalar,
            "per_second": scalar_per_sec,
            "codec_wall_s": t_hooked,
            "codec_per_second": hooked_per_sec,
            "speedup": t_hooked / t_scalar,
        },
    })
    assert per_sec > 100  # smoke floor: anything sane is thousands
    assert scalar_per_sec > 100


def test_deferred_batching_vs_individual_upcalls(table_printer):
    """Virtual-time cost of N notifications: batched flush vs upcalls."""
    n = 64

    def notif(twin):
        return 0

    # Individual upcalls.
    kernel = make_kernel()
    channel = XpcChannel(Xpc(kernel), DomainManager())
    obj = _make_obj()
    channel.kernel_tracker.register(obj)
    channel.kernel_tracker.register(obj.next)
    t0 = kernel.now_ns()
    for _ in range(n):
        channel.upcall(notif, args=[(obj, mb_ring)])
    individual_ns = kernel.now_ns() - t0
    individual_crossings = channel.xpc.kernel_user_crossings

    # One deferred batch (distinct funcs so nothing coalesces away).
    kernel = make_kernel()
    channel = XpcChannel(Xpc(kernel), DomainManager())
    obj = _make_obj()
    channel.kernel_tracker.register(obj)
    channel.kernel_tracker.register(obj.next)
    t0 = kernel.now_ns()
    for i in range(n):
        channel.defer(lambda twin, i=i: 0, args=[(obj, mb_ring)])
    channel.flush_deferred()
    batched_ns = kernel.now_ns() - t0
    batched_crossings = channel.xpc.kernel_user_crossings

    ratio = individual_ns / max(1, batched_ns)
    table_printer(
        "Deferred batching: %d one-way notifications" % n,
        ["Path", "Virtual ms", "Crossings", "Speedup"],
        [
            ("one upcall each", "%.2f" % (individual_ns / 1e6),
             individual_crossings, "1.00x"),
            ("deferred batch", "%.2f" % (batched_ns / 1e6),
             batched_crossings, "%.2fx" % ratio),
        ],
    )
    _merge_results({
        "deferred": {
            "notifications": n,
            "individual_virtual_ns": individual_ns,
            "batched_virtual_ns": batched_ns,
            "individual_crossings": individual_crossings,
            "batched_crossings": batched_crossings,
            "speedup": ratio,
        }
    })
    assert batched_crossings == 1
    assert individual_crossings == n
    assert ratio > 5  # batching amortizes the crossing + dispatch cost


def _merge_results(update):
    """Accumulate sections into BENCH_xpc.json across the tests."""
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
