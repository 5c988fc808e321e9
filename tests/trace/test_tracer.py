"""Tracer lifecycle, schema and tracepoint validation."""

import pytest

from repro import trace as trace_mod
from repro.trace import TRACEPOINTS, TraceError, Tracer, per_driver
from repro.trace import core as trace_core


class TestLifecycle:
    def test_install_sets_kernel_hooks_and_flag(self, kernel):
        assert kernel.tracer is None
        base = trace_core.active_tracers
        tracer = Tracer(kernel).install()
        assert kernel.tracer is tracer
        assert trace_core.active_tracers == base + 1
        tracer.uninstall()
        assert kernel.tracer is None
        assert trace_core.active_tracers == base

    def test_double_install_raises(self, kernel):
        tracer = Tracer(kernel).install()
        try:
            with pytest.raises(TraceError):
                Tracer(kernel).install()
        finally:
            tracer.uninstall()

    def test_uninstall_is_idempotent(self, kernel):
        tracer = Tracer(kernel).install()
        tracer.uninstall()
        tracer.uninstall()
        assert trace_core.active_tracers >= 0


class TestEmission:
    def test_unregistered_tracepoint_raises(self, kernel):
        tracer = Tracer(kernel)
        with pytest.raises(TraceError):
            tracer.instant("no.such.point")
        with pytest.raises(TraceError):
            tracer.span("no.such.point", 0)

    def test_unknown_enable_name_raises(self, kernel):
        with pytest.raises(TraceError):
            Tracer(kernel, enable={"bogus"})

    def test_enable_filters(self, kernel):
        tracer = Tracer(kernel, enable={"printk"})
        tracer.instant("printk", {"msg": "hi"})
        tracer.instant("timer.arm", {"timer": "t"})
        assert [ev["name"] for ev in tracer.events] == ["printk"]

    def test_event_schema(self, kernel):
        tracer = Tracer(kernel)
        kernel.run_for_ns(500)
        start = tracer.now()
        kernel.run_for_ns(100)
        tracer.span("timer.fire", start, {"timer": "t"})
        (ev,) = tracer.events
        assert ev["ph"] == "X"
        assert ev["ts"] == start
        assert ev["dur"] == kernel.clock.now_ns - start
        assert ev["ctx"] == "process"
        assert ev["locks"] == 0
        assert ev["cat"] == "timer"
        assert ev["args"] == {"timer": "t"}

    def test_instant_captures_context_and_locks(self, kernel):
        from repro.kernel.locks import SpinLock

        tracer = Tracer(kernel)
        lock = SpinLock(kernel, "l")
        with lock:
            tracer.instant("printk", {"msg": "x"})
        (ev,) = tracer.events
        assert ev["ph"] == "i"
        assert ev["locks"] == 1

    def test_max_events_bounds_and_counts_drops(self, kernel):
        tracer = Tracer(kernel, max_events=2)
        for _ in range(5):
            tracer.instant("printk", {})
        assert len(tracer.events) == 2
        assert tracer.dropped == 3
        assert tracer.summary()["dropped"] == 3

    def test_catalog_phases_are_valid(self):
        for name, (ph, desc) in TRACEPOINTS.items():
            assert ph in ("X", "i"), name
            assert desc


class TestSummary:
    def test_summary_shape(self, kernel):
        kernel.kstat.inc("xpc.e1000.crossings", 5)  # before the session
        tracer = Tracer(kernel, name="t0").install()
        kernel.kstat.inc("xpc.e1000.bytes", 100)
        kernel.kstat.inc("xpc.e1000.crossings", 2)
        kernel.kstat.inc("xpc.crossings", 2)
        kernel.kstat.inc("unrelated", 1)
        s = tracer.summary()
        tracer.uninstall()
        assert set(s) == {"tracer", "clock", "events", "dropped",
                          "histograms", "kstat"}
        assert s["tracer"] == "t0"
        assert s["clock"] == "virtual-ns"
        assert per_driver(s["kstat"]) == {
            "e1000": {"bytes": 100, "crossings": 2}}
        assert s["kstat"]["unrelated"] == 1


class TestBeginFinish:
    def test_begin_trace_falsy_is_none(self, kernel):
        assert trace_mod.begin_trace(kernel, None) is None
        assert trace_mod.begin_trace(kernel, False) is None
        assert trace_mod.finish_trace(None, None) is None

    def test_begin_trace_true_installs_fresh(self, kernel):
        session = trace_mod.begin_trace(kernel, True)
        tracer, owned, path = session
        assert owned and path is None
        assert kernel.tracer is tracer
        trace_mod.finish_trace(session, None)
        assert kernel.tracer is None

    def test_preinstalled_tracer_stays_installed(self, kernel):
        tracer = Tracer(kernel).install()
        session = trace_mod.begin_trace(kernel, tracer)
        trace_mod.finish_trace(session, None)
        assert kernel.tracer is tracer  # caller owns it
        tracer.uninstall()

    def test_foreign_kernel_tracer_rejected(self, kernel):
        from repro.kernel import make_kernel

        other = make_kernel()
        tracer = Tracer(other)
        with pytest.raises(TraceError):
            trace_mod.begin_trace(kernel, tracer)

    def test_path_writes_file(self, kernel, tmp_path):
        import json

        out = tmp_path / "t.json"
        session = trace_mod.begin_trace(kernel, str(out))
        kernel.printk("hello")

        class R:
            trace_summary = {}

        result = R()
        trace_mod.finish_trace(session, result)
        doc = json.loads(out.read_text())
        assert any(ev.get("name") == "printk" for ev in doc["traceEvents"])
        assert result.trace_summary["events"] == 1
