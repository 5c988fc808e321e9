"""Workload result record and the run window that produces it."""

from dataclasses import dataclass, field

_PER_POLL = "napi.packets_per_poll."
_SKB_POOL = "net.skb_pool."


class RunWindow:
    """One workload's measurement window on a kernel.

    Opened once the workload's set-up (``dev_open``, ``pcm_open``, ...)
    is done: it snapshots kstat, starts the CPU-utilization window and
    notes the virtual start time.  :meth:`close` turns it into a
    :class:`WorkloadResult` whose ``kstat`` is the delta over the window.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self._kstat0 = kernel.kstat.snapshot()
        kernel.cpu.start_window()
        self.start_ns = kernel.clock.now_ns

    def elapsed_s(self):
        return (self.kernel.clock.now_ns - self.start_ns) / 1e9

    def close(self, name, **measures):
        kernel = self.kernel
        kstat = kernel.kstat
        return WorkloadResult(
            name=name,
            duration_s=self.elapsed_s(),
            cpu_utilization=kernel.cpu.utilization(),
            kstat=kstat.delta(self._kstat0, kstat.snapshot()),
            **measures)


def rig_result(rig, window, name, lost=0, extra=None, **measures):
    """Close ``window`` into ``rig``'s result.

    The rig's insmod latency and its total kernel/user crossings (a
    count since load, not a window delta) ride along; work the
    supervisor discarded in the window counts as lost on top of the
    workload's own ``lost``.
    """
    extra = dict(extra or {}, crossings=rig.crossings())
    result = window.close(
        name, init_latency_s=(rig.init_latency_ns or 0) / 1e9,
        extra=extra, **measures)
    result.packets_lost = lost + result.kstat.get("recovery.work_lost", 0)
    return result


@dataclass
class WorkloadResult:
    """What one workload run measured (one Table 3 cell group).

    Fields are the workload's own measures; every count is in
    ``kstat``, the kstat delta over the run window.
    """

    name: str
    duration_s: float = 0.0
    bytes_moved: int = 0
    packets: int = 0
    packets_lost: int = 0
    throughput_mbps: float = 0.0
    cpu_utilization: float = 0.0
    init_latency_s: float = 0.0
    kstat: dict = field(default_factory=dict)
    # ktrace summary (Tracer.summary()) when the workload ran traced.
    trace_summary: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def pkts_per_poll(self):
        """{work_done: polls} over the window (empty off the NAPI path)."""
        return {int(key[len(_PER_POLL):]): count
                for key, count in self.kstat.items()
                if key.startswith(_PER_POLL)}

    def skb_pool_hit_rates(self):
        """(aggregate hit rate, {shard: hit rate}) over the window.

        Rates divide hit and miss deltas; shards that allocated
        nothing in the window are left out.
        """
        shards = {}
        for key, value in self.kstat.items():
            if key.startswith(_SKB_POOL):
                label, _, count = key[len(_SKB_POOL):].rpartition(".")
                if count in ("hits", "misses"):
                    shards.setdefault(label, {"hits": 0, "misses": 0})[
                        count] = value
        hits = sum(s["hits"] for s in shards.values())
        total = hits + sum(s["misses"] for s in shards.values())
        rates = {label: s["hits"] / (s["hits"] + s["misses"])
                 for label, s in shards.items()}
        return (hits / total if total else 0.0), rates

    def _pkts_per_poll_compact(self):
        """Weighted p50/max of the {work_done: count} poll histogram."""
        hist = self.pkts_per_poll()
        if not hist:
            return "-"
        total = sum(hist.values())
        rank = (total + 1) // 2
        seen = 0
        p50 = max(hist)
        for work in sorted(hist):
            seen += hist[work]
            if seen >= rank:
                p50 = work
                break
        return "p50=%d/max=%d" % (p50, max(hist))

    def row(self):
        """The printable Table 3 row.

        ``crossings`` is the driver's total since load (``extra``);
        every other count is a window delta read off ``kstat``.
        """
        k = self.kstat
        hit_rate, shard_rates = self.skb_pool_hit_rates()
        row = {
            "workload": self.name,
            "throughput_mbps": round(self.throughput_mbps, 2),
            "cpu_utilization_pct": round(100 * self.cpu_utilization, 2),
            "init_latency_s": round(self.init_latency_s, 3),
            "crossings": self.extra.get("crossings", 0),
            "decaf_invocations": k.get("xpc.crossings", 0),
            "deferred_calls": k.get("xpc.deferred_calls", 0),
            "deferred_coalesced": k.get("xpc.deferred_coalesced", 0),
            "deferred_flushes": k.get("xpc.deferred_flushes", 0),
            "napi_polls": k.get("napi.polls", 0),
            "napi_budget_exhaustions": k.get("napi.budget_exhaustions", 0),
            "napi_pkts_per_poll": self._pkts_per_poll_compact(),
            "skb_pool_hit_rate": round(hit_rate, 4),
            "skb_pool_cpu_hit_rates": {
                label: round(rate, 4)
                for label, rate in sorted(shard_rates.items())
            },
            "faults_injected": k.get("faults.fired", 0),
            "recoveries": k.get("recovery.recoveries", 0),
            "packets_lost": self.packets_lost,
        }
        if any(key.startswith("health.") for key in k):
            row["watchdog_fires"] = k.get("health.watchdog_fires", 0)
            row["health_dumps"] = k.get("health.dumps", 0)
        # Scalar extras ride along (non-scalars, e.g. a whole Rig kept
        # for inspection, stay out of the printable row).
        for key, value in self.extra.items():
            if isinstance(value, (int, float, str, bool)):
                row.setdefault(key, value)
        return row
