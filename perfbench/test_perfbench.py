"""Tests of the benchmark's own arithmetic and wrappers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def _recorder(rows):
    """A recorder holding ``(name, start, end, parent)`` rows, run 1."""
    rec = spans.SpanRecorder()
    for name, start, end, parent in rows:
        rec.name.append(rec.name_id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.run.append(1)
    return rec


def test_self_time_subtracts_nested_and_sibling_children():
    rec = _recorder([
        ("kernel:run_until", 0.0, 10.0, -1),   # 0: root
        ("devices.e1000:read", 1.0, 4.0, 0),   # 1: child of 0
        ("kernel.io:read", 2.0, 3.0, 1),       # 2: grandchild
        ("devices.e1000:read", 5.0, 8.0, 0),   # 3: sibling of 1
    ])
    out = spans.summarize(rec, {1})
    assert out["self_s"]["kernel:run_until"] == pytest.approx(4.0)
    assert out["self_s"]["devices.e1000:read"] == pytest.approx(2.0 + 3.0)
    assert out["self_s"]["kernel.io:read"] == pytest.approx(1.0)
    assert out["count"]["devices.e1000:read"] == 2
    # Self times partition the root's wall time exactly.
    assert sum(out["self_s"].values()) == pytest.approx(10.0)


def test_busy_time_counts_reentrant_spans_once():
    rec = _recorder([
        ("kernel:run_until", 0.0, 10.0, -1),
        ("kernel:event", 1.0, 9.0, 0),
        ("kernel:run_until", 2.0, 5.0, 1),     # nested advance
        ("kernel:run_until", 11.0, 12.0, -1),
    ])
    out = spans.summarize(
        rec, {1}, {"run_until": lambda s: s == "kernel:run_until"})
    assert out["busy_s"]["run_until"] == pytest.approx(11.0)


def test_only_requested_runs_count():
    rec = _recorder([("kernel:event", 0.0, 1.0, -1)])
    rec.run[0] = 0
    assert spans.summarize(rec, {1})["count"] == {}


def test_crossing_needs_a_charge_directly_under_the_call():
    rec = _recorder([
        ("core.xpc:upcall", 0.0, 5.0, -1),
        (spans.CROSSING_CHARGE, 0.0, 1.0, 0),  # crossing cost: counts
        (spans.CROSSING_CHARGE, 4.0, 5.0, 0),  # return leg, same crossing
        ("core.xpc:downcall", 6.0, 7.0, -1),   # failed fast: no charge
        ("core.xpc:flush_deferred", 8.0, 9.0, -1),
        ("drivers:xpc_func", 8.0, 9.0, 4),
        (spans.CROSSING_CHARGE, 8.0, 9.0, 5),  # nested deeper: not this
    ])
    assert spans.summarize(rec, {1})["crossings"] == 1


class _Counter:
    def __init__(self):
        self.calls = 0

    def tick(self):
        self.calls += 1


def test_reconcile_catches_a_bypassed_wrapper():
    rec = spans.SpanRecorder()
    counter = _Counter()
    prebound = counter.tick          # captured before the wrapper exists
    patcher = spans.Patcher()
    patcher.patch(_Counter, "tick", rec.wrap("drivers:tick", _Counter.tick))
    try:
        counter.tick()
        prebound()                   # bypasses the wrapper
    finally:
        patcher.restore()
    seen = spans.summarize(rec, {0})["count"]["drivers:tick"]
    errors = spans.reconcile({"tick": (seen, counter.calls)})
    assert errors == ["tick: wrappers saw 1, program counted 2"]
    assert spans.reconcile({"tick": (2, 2)}) == []
    assert not hasattr(_Counter.tick, "__wrapped__")


def test_wrapper_keeps_name_and_closes_span_on_exception():
    rec = spans.SpanRecorder()

    def boom():
        raise ValueError("x")

    traced = rec.wrap("drivers:boom", boom)
    assert traced.__qualname__ == boom.__qualname__
    with pytest.raises(ValueError):
        traced()
    assert len(rec) == 1 and rec.end[0] >= rec.start[0]
    assert rec._stack == [-1]


def test_tail_leaves_at_least_ten_samples_beyond():
    samples = list(range(1, 201))    # 1..200
    value, pct, n = stats.tail(samples)
    assert n == 200
    assert pct == pytest.approx(95.0)
    assert sum(1 for s in samples if s > value) == 10
    assert stats.tail(list(range(11)))[1] == pytest.approx(100 / 11)
    assert stats.tail(list(range(10))) is None


def test_unit_times_pool_across_repetitions_in_blocks():
    units = stats.UnitTimes(100)
    for start in (0, 60, 120, 180, 240):     # repetitions of 60 units
        units.add(range(start, start + 60))
    units.add([10_000] * 50)                 # leaves a partial block
    p50, value, pct, size = units.summary()
    assert (size, pct) == (100, 90.0)
    assert value == 189                      # the middle block's rank 90
    assert p50 == pytest.approx(149.5)
    assert len(units.pending) == 50


def test_unit_times_scale_and_fall_back_to_a_partial_block():
    units = stats.UnitTimes(1000)
    units.add([1.0] * 20, scale=0.5)
    assert units.summary() == (0.5, 0.5, pytest.approx(50.0), 20)
    few = stats.UnitTimes(1000)
    few.add(range(10))
    assert few.summary() is None


def test_tail_is_order_independent():
    assert stats.tail([5, 1, 4, 2, 3] * 10) == stats.tail(
        sorted([5, 1, 4, 2, 3] * 10))


def test_failed_frac_with_zero_attempts_is_zero():
    assert stats.failed_frac(0, 0) == 0.0
    assert stats.failed_frac(1, 4) == 0.25
    with pytest.raises(ValueError):
        stats.failed_frac(1, 0)


def test_group_rates_sum_whole_groups_only():
    class Rep:
        def __init__(self, units, secs):
            self.units, self.secs = units, secs

    reps = [Rep(10, 1.0), Rep(30, 1.0), Rep(5, 0.5), Rep(15, 1.5),
            Rep(99, 0.1)]                    # the last group is partial
    rates = stats.group_rates(reps, 2, lambda r: r.units, lambda r: r.secs)
    assert rates == [20.0, 10.0]


def test_digests_must_repeat_per_key():
    class Rep:
        def __init__(self, key, digest):
            self.key, self.digest = key, digest

    digests = {0: "a"}
    reps = [Rep(1, "b"), Rep(0, "a"), Rep(1, "b"), Rep(1, "c")]
    errors = run.check_digests(digests, reps)
    assert errors == ["repetition 3 (key 1) digest c != b"]
    assert digests == {0: "a", 1: "b"}
    assert run.sim_digest({0: "a"}) == "a"
    assert run.sim_digest({1: "b", 0: "a"}) == "0: a; 1: b"


def test_reference_seconds_cancel_a_uniform_slowdown():
    fast = reference.ref_seconds(2.0, 0.02)
    slow = reference.ref_seconds(3.0, 0.03)  # host 1.5x slower
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(2.0 / (reference.LOOPS_PER_REF_S * 0.02))


def test_reference_loop_is_unchanged():
    loop = reference.ReferenceLoop()
    assert loop.loop() == reference.DIGEST
    assert loop.loop() == reference.DIGEST   # the graph's state is not read
    assert loop.probe() > 0
