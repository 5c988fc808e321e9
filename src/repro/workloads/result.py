"""Workload result record."""

from dataclasses import dataclass, field


def health_summary_of(kernel):
    """``HealthPlane.summary()`` of the kernel, or {} when none installed.

    Workloads call this at result-construction time so every
    WorkloadResult from a health-enabled rig carries the kstat
    snapshot, flight-recorder state and watchdog fires.
    """
    health = kernel.health
    return health.summary() if health is not None else {}


def rig_mark(rig):
    """The rig counters a workload's result is measured against."""
    return rig.crossings(), rig.fault_stats()


def rig_result(rig, name, mark, lost=0, **fields):
    """A :class:`WorkloadResult` carrying ``rig``'s counters: totals,
    plus deltas since ``mark`` (decaf invocations, faults, recoveries,
    and kernel-side work lost on top of the workload's own ``lost``)."""
    crossings0, faults0 = mark
    faults = rig.fault_stats()
    ds = rig.deferred_stats()
    return WorkloadResult(
        name=name,
        health_summary=health_summary_of(rig.kernel),
        init_latency_s=(rig.init_latency_ns or 0) / 1e9,
        kernel_user_crossings=rig.crossings(),
        lang_crossings=rig.lang_crossings(),
        deferred_calls=ds["calls"],
        deferred_coalesced=ds["coalesced"],
        deferred_flushes=ds["flushes"],
        decaf_invocations=rig.crossings() - crossings0,
        faults_injected=faults[0] - faults0[0],
        recoveries=faults[1] - faults0[1],
        packets_lost=lost + faults[2] - faults0[2],
        **fields)


@dataclass
class WorkloadResult:
    """What one workload run measured (one Table 3 cell group)."""

    name: str
    duration_s: float = 0.0
    bytes_moved: int = 0
    packets: int = 0
    throughput_mbps: float = 0.0
    cpu_utilization: float = 0.0
    init_latency_s: float = 0.0
    kernel_user_crossings: int = 0
    lang_crossings: int = 0
    decaf_invocations: int = 0
    # Deferred one-way notifications (batched crossings): enqueued,
    # absorbed into a queued duplicate, and batches actually flushed.
    deferred_calls: int = 0
    deferred_coalesced: int = 0
    deferred_flushes: int = 0
    # NAPI datapath counters (zero when the per-packet IRQ path runs).
    napi_polls: int = 0
    napi_budget_exhaustions: int = 0
    napi_pkts_per_poll: dict = field(default_factory=dict)
    skb_pool_hit_rate: float = 0.0
    # Per-shard hit rates ({"shared": r, "cpu0": r, ...}) when the rx
    # path ran on per-CPU pool shards; empty on single-CPU kernels.
    skb_pool_cpu_hit_rates: dict = field(default_factory=dict)
    # Fault isolation / supervised recovery (zero when no faults were
    # injected or no supervisor was attached).
    faults_injected: int = 0
    recoveries: int = 0
    packets_lost: int = 0
    # Fleet harness dimensions (zero outside repro.fleet runs).
    fleet_devices: int = 0          # concurrent device slots
    churn_cycles: int = 0           # remove/re-probe cycles performed
    events_per_sec: float = 0.0     # simulator events per wall-clock second
    wall_s_per_virtual_ms: float = 0.0  # wall s per ms of tick rounds
    mem_bytes_per_device: float = 0.0  # tracemalloc bytes per device slot
    recovery_rate: float = 0.0      # recoveries / faults fired
    recovery_p50_ms: float = 0.0    # median fault->recovered outage
    recovery_p99_ms: float = 0.0
    # ktrace summary (Tracer.summary()) when the workload ran traced.
    trace_summary: dict = field(default_factory=dict)
    # HealthPlane.summary() when the kernel ran with a health plane
    # installed (kstat snapshot, flight-recorder state, watchdog fires).
    health_summary: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def _pkts_per_poll_compact(self):
        """Weighted p50/max of the {work_done: count} poll histogram."""
        hist = self.napi_pkts_per_poll
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
        row = {
            "workload": self.name,
            "throughput_mbps": round(self.throughput_mbps, 2),
            "cpu_utilization_pct": round(100 * self.cpu_utilization, 2),
            "init_latency_s": round(self.init_latency_s, 3),
            "crossings": self.kernel_user_crossings,
            "decaf_invocations": self.decaf_invocations,
            "deferred_calls": self.deferred_calls,
            "deferred_coalesced": self.deferred_coalesced,
            "deferred_flushes": self.deferred_flushes,
            "napi_polls": self.napi_polls,
            "napi_budget_exhaustions": self.napi_budget_exhaustions,
            "napi_pkts_per_poll": self._pkts_per_poll_compact(),
            "skb_pool_hit_rate": round(self.skb_pool_hit_rate, 4),
            "skb_pool_cpu_hit_rates": {
                label: round(rate, 4)
                for label, rate in sorted(self.skb_pool_cpu_hit_rates.items())
            },
            "faults_injected": self.faults_injected,
            "recoveries": self.recoveries,
            "packets_lost": self.packets_lost,
        }
        if self.fleet_devices:
            row["fleet_devices"] = self.fleet_devices
            row["churn_cycles"] = self.churn_cycles
            row["events_per_sec"] = round(self.events_per_sec, 1)
            row["wall_s_per_virtual_ms"] = round(
                self.wall_s_per_virtual_ms, 4)
            row["mem_bytes_per_device"] = round(self.mem_bytes_per_device)
            row["recovery_rate"] = round(self.recovery_rate, 4)
            row["recovery_p50_ms"] = round(self.recovery_p50_ms, 3)
            row["recovery_p99_ms"] = round(self.recovery_p99_ms, 3)
        if self.health_summary:
            fires = self.health_summary.get("watchdog_fires", {})
            row["watchdog_fires"] = sum(fires.values())
            row["health_dumps"] = self.health_summary.get("dumps", 0)
        # Scalar extras ride along (non-scalars, e.g. a whole Rig kept
        # for inspection, stay out of the printable row).
        for key, value in self.extra.items():
            if isinstance(value, (int, float, str, bool)):
                row.setdefault(key, value)
        return row
