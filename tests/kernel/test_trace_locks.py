"""Lock hold-time tracing: matched pairs, monotone timestamps.

Satellite (d): SpinLock / Mutex / ComboLock emit one ``lock.held``
span per acquire/release pair, with virtual timestamps that are
monotone and consistent (``ts + dur == release time``), including when
callbacks re-enter ``run_until``.
"""

from repro.core.combolock import ComboLock
from repro.core.domains import DECAF, DomainManager
from repro.kernel.locks import Mutex, SpinLock
from repro.trace import Tracer


def lock_spans(tracer):
    return [ev for ev in tracer.events if ev["name"] == "lock.held"]


class TestSpinLock:
    def test_matched_pair_with_hold_time(self, kernel):
        tracer = Tracer(kernel).install()
        lock = SpinLock(kernel, "l")
        lock.lock()
        t0 = kernel.clock.now_ns
        kernel.consume(700, busy=True)
        lock.unlock()
        tracer.uninstall()
        (ev,) = lock_spans(tracer)
        assert ev["args"] == {"lock": "l", "kind": "spin"}
        assert ev["ts"] == t0
        assert ev["dur"] == 700
        assert ev["ts"] + ev["dur"] == kernel.clock.now_ns

    def test_hold_histogram_records(self, kernel):
        tracer = Tracer(kernel).install()
        lock = SpinLock(kernel, "l")
        for _ in range(3):
            with lock:
                kernel.consume(100, busy=True)
        tracer.uninstall()
        h = tracer.histograms["lock.hold_ns.spin"]
        assert h.count == 3
        assert h.max == 100

    def test_tracer_installed_mid_hold_skips_unmatched_release(self, kernel):
        lock = SpinLock(kernel, "l")
        lock.lock()
        tracer = Tracer(kernel).install()
        lock.unlock()  # acquire was untraced: no half-span
        tracer.uninstall()
        assert lock_spans(tracer) == []

    def test_untraced_locking_is_clean(self, kernel):
        lock = SpinLock(kernel, "l")
        with lock:
            pass
        assert lock._acquired_ns is None


class TestMutex:
    def test_matched_pair(self, kernel):
        tracer = Tracer(kernel).install()
        m = Mutex(kernel, "m")
        with m:
            kernel.consume(50, busy=True)
        tracer.uninstall()
        (ev,) = lock_spans(tracer)
        assert ev["args"]["kind"] == "mutex"
        assert ev["dur"] == 50


class TestComboLock:
    def test_kernel_spin_mode(self, kernel):
        tracer = Tracer(kernel).install()
        lock = ComboLock(kernel, DomainManager(), "combo")
        with lock:
            kernel.consume(80, busy=True)
        tracer.uninstall()
        (ev,) = lock_spans(tracer)
        assert ev["args"] == {"lock": "combo", "kind": "combo-spin"}
        assert ev["dur"] == 80

    def test_user_sem_mode(self, kernel):
        tracer = Tracer(kernel).install()
        domains = DomainManager()
        lock = ComboLock(kernel, domains, "combo")
        domains.push(DECAF)
        with lock:
            pass
        domains.pop(DECAF)
        tracer.uninstall()
        (ev,) = lock_spans(tracer)
        assert ev["args"]["kind"] == "combo-sem"


class TestNestedRunUntil:
    def test_spans_monotone_under_reentrant_events(self, kernel):
        """A lock held around run_until still yields one well-formed
        span per pair, and the stream's release times are monotone."""
        tracer = Tracer(kernel).install()
        outer = SpinLock(kernel, "outer")
        inner = Mutex(kernel, "inner")

        def work():
            with inner:
                kernel.consume(40, busy=True)

        kernel.events.schedule_after(1_000, work, name="nested")
        kernel.run_for_ns(500)
        with outer:
            kernel.consume(10, busy=True)
        # The pending event fires inside this run_until window.
        kernel.run_for_ns(5_000)
        with outer:
            pass
        tracer.uninstall()

        spans = lock_spans(tracer)
        names = [ev["args"]["lock"] for ev in spans]
        assert names == ["outer", "inner", "outer"]
        ends = [ev["ts"] + ev["dur"] for ev in spans]
        assert ends == sorted(ends)  # emitted at release: monotone
        for ev in spans:
            assert ev["dur"] >= 0
            assert ev["ts"] >= 0
