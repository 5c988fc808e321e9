"""Fixed-bucket histograms for the trace subsystem.

The tracer keeps no counters -- every count has its one name in kstat
(:mod:`repro.health.kstat`).  What it does keep are span statistics:
IRQ, IRQ-to-poll, XPC round-trip and lock hold-time distributions,
recorded online and embedded in ``WorkloadResult.trace_summary`` and
the exported trace file.

Histograms use fixed power-of-two nanosecond buckets (65 of them:
bucket 0 holds exact zeros, bucket *b* holds values in
``[2**(b-1), 2**b - 1]``), so recording is O(1), storage is bounded,
and two runs' histograms can be diffed bucket by bucket.  Percentiles
are read back as the upper bound of the bucket where the cumulative
count crosses the rank -- deterministic, and never more than 2x off,
which is plenty for hold-time and latency distributions.
"""

_NUM_BUCKETS = 65  # bucket 0 = {0}; bucket b = [2^(b-1), 2^b - 1]


def bucket_upper_bound(index):
    """Largest value the bucket at ``index`` can hold."""
    if index == 0:
        return 0
    return (1 << index) - 1


class Histogram:
    """Fixed log2 buckets; O(1) record, bounded storage."""

    __slots__ = ("name", "buckets", "count", "total", "max")

    def __init__(self, name):
        self.name = name
        self.buckets = [0] * _NUM_BUCKETS
        self.count = 0
        self.total = 0
        self.max = 0

    def record(self, value):
        v = int(value)
        if v < 0:
            v = 0
        self.buckets[v.bit_length()] += 1
        self.count += 1
        self.total += v
        if v > self.max:
            self.max = v

    def percentile(self, p):
        """Upper bound of the bucket holding the p-th percentile (0-100)."""
        if self.count == 0:
            return 0
        rank = p / 100.0 * self.count
        cum = 0
        for index, n in enumerate(self.buckets):
            cum += n
            if cum >= rank and n:
                return min(bucket_upper_bound(index), self.max)
        return self.max

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def snapshot(self):
        return {
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "mean": round(self.mean, 1),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            # Sparse: only non-empty buckets, keyed by their upper bound.
            "buckets": {
                str(bucket_upper_bound(i)): n
                for i, n in enumerate(self.buckets) if n
            },
        }
