"""Golden snapshots of the NIC ring loops: same schedule, same bytes.

Each config's netperf-recv snapshot must hash to the value the
hand-compiled and the interpreted ring loops agreed on before the
compiled loops were deleted (hence the test's name), so the interpreted
loops, now the only datapath, cannot drift.  A snapshot covers the
per-queue payload digests, device and stack counters, the virtual
clock, CPU accounting (busy ns and per-category split) and dmesg.
Configs cover both NICs, both interrupt schemes, the legacy and decaf
drivers, and single-queue vs 4-CPU/4-queue SMP (where steering and
per-vector affinity are live).

``e1000-napi-decaf`` is the one hash taken after the deletion.
DriverSlicer had classified the compiled e1000 closures as user-level
code, so their reads of the ring indices and rx stats were in the decaf
marshal plan.  The plan sliced from the remaining source is smaller:
payload digests, counters and dmesg are as before, but less virtual
time goes to marshaling, which moves the clock and CPU accounting.
"""

import hashlib
import json

import pytest

from repro.workloads.netperf import netperf_recv
from repro.workloads.rigs import make_8139too_rig, make_e1000_rig

# Virtual seconds per run: enough for thousands of frames through every
# ring wrap / coalescing / pending-queue edge, small enough for CI.
DURATION_S = 0.02
MSG_BYTES = 256
BURST = 32

CONFIGS = [
    # (id, rig factory, first 16 hex digits of the snapshot's sha256)
    ("e1000-irq-uni",
     lambda: make_e1000_rig(irq_mode="irq"),
     "694bab943520f634"),
    ("e1000-irq-smp4",
     lambda: make_e1000_rig(irq_mode="irq", nr_cpus=4, num_queues=4),
     "8285c6c0008e3acf"),
    ("e1000-napi-uni",
     lambda: make_e1000_rig(irq_mode="napi"),
     "343671374325fb13"),
    ("e1000-napi-smp4",
     lambda: make_e1000_rig(irq_mode="napi", nr_cpus=4, num_queues=4),
     "14230bc6e6dfcec2"),
    ("e1000-napi-decaf",
     lambda: make_e1000_rig(decaf=True, irq_mode="napi"),
     "6cd8677a62307eb0"),
    ("rtl8139-napi-uni",
     lambda: make_8139too_rig(irq_mode="napi", rx_coalesce_ns=100_000),
     "f165ea294392e574"),
    ("rtl8139-napi-smp4",
     lambda: make_8139too_rig(irq_mode="napi", nr_cpus=4,
                              rx_coalesce_ns=100_000),
     "d085b84ec2312d22"),
    ("rtl8139-irq-uni",
     lambda: make_8139too_rig(irq_mode="irq"),
     "da8103589e042b29"),
    ("rtl8139-napi-decaf",
     lambda: make_8139too_rig(decaf=True, irq_mode="napi",
                              rx_coalesce_ns=100_000),
     "8dd7f2fd1bad15f2"),
]


def _snapshot(make_rig):
    rig = make_rig()
    rig.insmod()
    digests = {}

    def sink_extra(_dev, skb):
        q = getattr(skb, "queue", 0)
        d = digests.get(q)
        if d is None:
            d = digests[q] = hashlib.sha256()
        d.update(skb.data)

    result = netperf_recv(rig, duration_s=DURATION_S, msg_bytes=MSG_BYTES,
                          sink_extra=sink_extra, burst=BURST)
    kernel = rig.kernel
    dev = rig.netdev()
    return {
        "digests": {q: d.hexdigest() for q, d in sorted(digests.items())},
        "packets": result.packets,
        "bytes": result.bytes_moved,
        "napi_polls": result.kstat.get("napi.polls", 0),
        "napi_pkts_per_poll": result.pkts_per_poll(),
        "dev_stats": dev.stats.snapshot(),
        "nic_frames": rig.device.frames_received,
        "irq_delivered": kernel.irq.delivered,
        "irq_spurious": kernel.irq.spurious,
        "clock_ns": kernel.clock.now_ns,
        "busy_ns": kernel.cpu.busy_ns,
        "by_category": dict(kernel.cpu._by_category),
        "dmesg": list(kernel.dmesg()),
    }


def snapshot_hash(snapshot):
    blob = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("cfg_id,make_rig,golden", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
def test_compiled_loops_are_equivalent(cfg_id, make_rig, golden):
    snapshot = _snapshot(make_rig)
    assert snapshot["packets"] > 0
    assert snapshot_hash(snapshot) == golden, (
        "%s drifted from its golden snapshot: packets=%d clock_ns=%d "
        "busy_ns=%d" % (cfg_id, snapshot["packets"], snapshot["clock_ns"],
                        snapshot["busy_ns"]))
