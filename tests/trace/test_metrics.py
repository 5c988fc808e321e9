"""Log2-bucket histograms (repro.trace.metrics) and the tracer's
histogram registry."""

from repro.kernel import make_kernel
from repro.trace import Tracer
from repro.trace.metrics import Histogram, bucket_upper_bound


class TestHistogramBuckets:
    def test_zero_goes_to_bucket_zero(self):
        h = Histogram("h")
        h.record(0)
        assert h.buckets[0] == 1
        assert h.percentile(50) == 0

    def test_bucket_boundaries(self):
        # bucket b holds [2^(b-1), 2^b - 1]
        h = Histogram("h")
        for v in (1, 2, 3, 4, 7, 8):
            h.record(v)
        assert h.buckets[1] == 1  # {1}
        assert h.buckets[2] == 2  # {2, 3}
        assert h.buckets[3] == 2  # {4..7}
        assert h.buckets[4] == 1  # {8..15}

    def test_upper_bounds(self):
        assert bucket_upper_bound(0) == 0
        assert bucket_upper_bound(1) == 1
        assert bucket_upper_bound(4) == 15

    def test_negative_clamps_to_zero(self):
        h = Histogram("h")
        h.record(-5)
        assert h.buckets[0] == 1
        assert h.max == 0

    def test_stats(self):
        h = Histogram("h")
        for v in (10, 20, 30):
            h.record(v)
        assert h.count == 3
        assert h.total == 60
        assert h.max == 30
        assert h.mean == 20.0

    def test_percentile_never_exceeds_max(self):
        h = Histogram("h")
        h.record(1000)  # bucket upper bound is 1023
        assert h.percentile(50) == 1000
        assert h.percentile(99) == 1000

    def test_percentile_of_empty_is_zero(self):
        assert Histogram("h").percentile(99) == 0

    def test_percentile_is_bucket_upper_bound(self):
        h = Histogram("h")
        for _ in range(99):
            h.record(4)  # bucket [4,7]
        h.record(5000)
        assert h.percentile(50) == 7
        assert h.percentile(99) == 7

    def test_snapshot_sparse_buckets(self):
        h = Histogram("h")
        h.record(4)
        h.record(6)
        snap = h.snapshot()
        assert snap["buckets"] == {"7": 2}
        assert snap["count"] == 2
        assert snap["p50"] == 6  # min(bucket bound 7, max 6)


class TestRegistry:
    def test_create_on_first_use_and_identity(self):
        tracer = Tracer(make_kernel())
        h = tracer.histogram("b")
        assert tracer.histogram("b") is h
        assert tracer.histograms["b"] is h
