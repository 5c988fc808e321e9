"""Health plane units: kstat registry, flight ring, watchdogs,
crash dumps, and the top/postmortem CLIs."""

import io
import json

import pytest

from repro.health import FlightRecorder, HealthPlane, KstatRegistry
from repro.health import postmortem, top
from repro.kernel import IRQ_HANDLED, make_kernel


@pytest.fixture
def health(kernel, tmp_path):
    plane = HealthPlane(kernel, dump_dir=str(tmp_path)).install()
    yield plane
    plane.uninstall()


# ---------------------------------------------------------------------------
# kstat registry
# ---------------------------------------------------------------------------

class TestKstat:
    def test_provider_values_prefixed(self):
        reg = KstatRegistry()
        reg.register("irq", lambda: {"line4.count": 7, "delivered": 9})
        snap = reg.snapshot()
        assert snap["irq.line4.count"] == 7
        assert snap["irq.delivered"] == 9

    def test_numeric_collisions_sum(self):
        """Two providers under one name aggregate, like /proc/interrupts
        summing per-CPU columns."""
        reg = KstatRegistry()
        reg.register("xpc", lambda: {"crossings": 10})
        reg.register("xpc", lambda: {"crossings": 32})
        assert reg.snapshot()["xpc.crossings"] == 42

    def test_bools_coerce_to_int(self):
        reg = KstatRegistry()
        reg.register("net", lambda: {"eth0.queue_stopped": True})
        assert reg.snapshot()["net.eth0.queue_stopped"] == 1

    def test_raising_provider_surfaces_error_entry(self):
        reg = KstatRegistry()

        def bad():
            raise RuntimeError("boom")

        reg.register("bad", bad)
        reg.register("good", lambda: {"ok": 1})
        snap = reg.snapshot()
        assert snap["good.ok"] == 1
        assert "RuntimeError" in snap["bad.error"]

    def test_explicit_counters_ride_along(self):
        reg = KstatRegistry()
        reg.inc("health.dumps_written")
        reg.inc("health.dumps_written", 2)
        assert reg.counter("health.dumps_written") == 3
        assert reg.snapshot()["health.dumps_written"] == 3

    def test_unregister(self):
        reg = KstatRegistry()
        provider = lambda: {"x": 1}  # noqa: E731
        reg.register("a", provider)
        reg.unregister("a", provider)
        assert reg.snapshot() == {}

    def test_delta_never_divides(self):
        before = {"a": 10, "b": 5, "gone": 3, "s": "text"}
        after = {"a": 15, "b": 5, "new": 2, "s": "other"}
        delta = KstatRegistry.delta(before, after)
        assert delta["a"] == 5
        assert "b" not in delta          # unchanged
        assert delta["new"] == 2         # appeared: delta from zero
        assert delta["gone"] == -3       # vanished: negated old value
        assert "s" not in delta          # non-numeric keys skipped

    def test_kernel_registers_core_counters(self, kernel):
        snap = kernel.kstat.snapshot()
        assert "kernel.nr_cpus" in snap
        assert "kernel.cpu0.busy_ns" in snap
        assert "irq.delivered" in snap
        assert "napi.polls" in snap


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_bounded_evicts_oldest(self, kernel):
        flight = FlightRecorder(kernel, capacity=3)
        for i in range(5):
            flight.note("ev%d" % i)
        assert [name for _ts, _cpu, name, _a in flight.ring] == \
            ["ev2", "ev3", "ev4"]
        assert flight.recorded == 5

    def test_note_stamps_virtual_time_and_cpu(self, kernel):
        flight = FlightRecorder(kernel)
        kernel.run_for_ns(500)
        flight.note("x", {"k": 1})
        ((ts, cpu, name, args),) = flight.ring
        assert (ts, cpu, name, args) == (500, 0, "x", {"k": 1})

    def test_printk_feeds_ring_when_untraced(self, kernel, health):
        kernel.printk("engine fire", level="warn")
        names = [name for _t, _c, name, _a in health.flight.ring]
        assert "printk" in names

    def test_tracer_mirrors_pre_filter(self, kernel, health):
        """A tracer's enable-filter must not starve the flight ring."""
        from repro.trace import Tracer

        tracer = Tracer(kernel, enable=["napi.poll"]).install()
        try:
            kernel.printk("filtered out of ktrace")  # printk not enabled
        finally:
            tracer.uninstall()
        assert not [e for e in tracer.events if e["name"] == "printk"]
        assert [r for r in health.flight.ring if r[2] == "printk"]

    def test_traced_boundary_fault_has_one_writer(self):
        """The tracer mirrors the xpc.fault instant into the ring; the
        plane's boundary-fault hook must not note it a second time."""
        from repro.faults import FaultPlan, FaultSpec
        from repro.trace import Tracer
        from repro.workloads import make_8139too_rig, netperf_send

        rig = make_8139too_rig(decaf=True, health=True)
        tracer = Tracer(rig.kernel).install()
        try:
            rig.insmod()
            rig.supervise()
            rig.inject_faults(
                FaultPlan([FaultSpec("xpc_raise", callsite="thread")]))
            netperf_send(rig, duration_s=2.0, trace=tracer)
        finally:
            tracer.uninstall()
        (report,) = [dump for dump in rig.kernel.health.dumps
                     if dump["reason"] == "boundary-fault"]
        names = [entry["name"] for entry in report["ring"]]
        assert names.count("xpc.fault") == 1


# ---------------------------------------------------------------------------
# watchdogs
# ---------------------------------------------------------------------------

class TestSoftLockup:
    def test_atomic_hog_fires_and_dumps(self, kernel, health):
        """An irq handler spinning 300 virtual ms trips the detector
        from the nested watchdog check."""
        kernel.irq.request_irq(
            4, lambda i, d: kernel.consume(300_000_000, category="irq")
            or IRQ_HANDLED, "spin")
        # Raise from inside an event so the hog runs as a dispatched
        # handler (the checker must nest inside it to observe the hog).
        kernel.events.schedule_after(1_000_000,
                                     lambda: kernel.irq.raise_irq(4))
        kernel.run_for_ns(400_000_000)
        assert health.watchdog.fires["soft_lockup"] == 1
        (event,) = health.watchdog.events
        assert event.kind == "soft_lockup"
        assert event.target == "cpu0"
        assert event.detail["busy_ns"] >= health.watchdog.soft_lockup_ns
        assert len(health.dumps) == 1
        assert any("watchdog soft_lockup" in msg
                   for _t, _l, msg in kernel.dmesg(level="warn"))

    def test_fires_once_per_episode(self, kernel, health):
        """The latch holds through one long hog (no fire storm), then
        clears so a second episode fires again."""
        kernel.irq.request_irq(
            4, lambda i, d: kernel.consume(500_000_000, category="irq")
            or IRQ_HANDLED, "spin")
        kernel.events.schedule_after(1_000_000,
                                     lambda: kernel.irq.raise_irq(4))
        kernel.run_for_ns(600_000_000)
        assert health.watchdog.fires["soft_lockup"] == 1
        kernel.run_for_ns(50_000_000)   # healthy gap clears the latch
        kernel.events.schedule_after(1_000_000,
                                     lambda: kernel.irq.raise_irq(4))
        kernel.run_for_ns(600_000_000)
        assert health.watchdog.fires["soft_lockup"] == 2

    def test_process_context_hog_is_not_a_lockup(self, kernel, health):
        """Preemptible process context may run long (a driver restart
        pays a JVM startup in one work item) without tripping."""
        kernel.events.schedule_after(
            1_000_000, lambda: kernel.consume(400_000_000))
        kernel.run_for_ns(500_000_000)
        assert health.watchdog.fires["soft_lockup"] == 0


# ---------------------------------------------------------------------------
# crash dumps + CLIs
# ---------------------------------------------------------------------------

class TestDumps:
    def test_dump_shape_and_file(self, kernel, health, tmp_path):
        kernel.printk("before the end", level="err")
        report = health.dump("unit-test", {"answer": 42})
        for key in ("reason", "ts_ns", "detail", "ring", "kstat",
                    "dmesg", "cpus", "watchdog", "prior_dumps"):
            assert key in report
        assert report["reason"] == "unit-test"
        assert report["detail"] == {"answer": 42}
        assert report["dmesg"][-1]["msg"] == "before the end"
        assert report["cpus"][0]["index"] == 0
        path = report["path"]
        with open(path) as fh:
            assert json.load(fh)["reason"] == "unit-test"

    def test_dump_sanitizes_arbitrary_args(self, kernel, health):
        health.flight.note("weird", {"exc": RuntimeError("x"),
                                     "dev": object()})
        report = health.dump("sanitize", {"obj": object()})
        json.dumps(report)  # must always be serializable

    def test_dump_count_bounded(self, kernel, health):
        for i in range(health.max_dumps + 5):
            report = health.dump("flood-%d" % i)
        assert len(health.dumps) == health.max_dumps
        assert kernel.kstat.counter("health.dumps_written") == \
            health.max_dumps + 5
        # The retained list is capped; the dump count is not.
        assert report["prior_dumps"] == health.max_dumps + 4

    def test_postmortem_cli_parses_dump(self, kernel, health, capfd):
        kernel.printk("health: something broke", level="warn")
        report = health.dump("watchdog:hung_task", {"target": "eth0"})
        assert postmortem.main([report["path"]]) == 0
        out = capfd.readouterr().out
        assert "watchdog:hung_task" in out
        assert "target = eth0" in out

    def test_summary_shape(self, kernel, health):
        kernel.printk("health: noted", level="warn")
        health.dump("one")
        summary = health.summary()
        assert set(summary) == {"kstat", "flight"}
        # Every count the summary carries outside kstat is a kstat
        # counter's twin: there is no second, diverging tally.
        kstat = summary["kstat"]
        assert kstat["health.dumps_written"] == 1
        assert summary["flight"]["recorded"] == \
            kstat["health.flight.recorded"]
        assert summary["flight"]["buffered"] == \
            kstat["health.flight.buffered"]


class TestTopCli:
    def test_render_snapshot_file(self, kernel, tmp_path, capfd):
        snap_path = tmp_path / "snap.json"
        snap_path.write_text(json.dumps(kernel.kstat.snapshot()))
        assert top.main([str(snap_path)]) == 0
        out = capfd.readouterr().out
        assert "kernel" in out
        assert "per-cpu" in out

    def test_watch_mode_deltas_and_new(self, tmp_path, capfd):
        (tmp_path / "a.json").write_text(json.dumps({"x.n": 1, "gone": 5}))
        (tmp_path / "b.json").write_text(json.dumps({"x.n": 4, "new": 2}))
        assert top.main(["--watch", str(tmp_path / "a.json"),
                         str(tmp_path / "b.json")]) == 0
        out = capfd.readouterr().out
        assert "+3" in out
        assert "new" in out and "gone" in out

    def test_accepts_health_summary_wrapper(self, kernel, tmp_path, capfd):
        doc = {"kstat": kernel.kstat.snapshot(), "watchdog_fires": {}}
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(doc))
        assert top.main([str(path)]) == 0
        assert "kernel" in capfd.readouterr().out


# ---------------------------------------------------------------------------
# install/uninstall hygiene
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_double_install_rejected(self, kernel):
        plane = HealthPlane(kernel).install()
        try:
            with pytest.raises(RuntimeError):
                HealthPlane(kernel).install()
        finally:
            plane.uninstall()

    def test_uninstall_disarms_watchdog(self, kernel):
        plane = HealthPlane(kernel).install()
        plane.uninstall()
        assert kernel.health is None
        before = plane.watchdog.checks
        kernel.run_for_ns(100_000_000)
        assert plane.watchdog.checks == before

    def test_smp_kernel_reports_all_cpus(self, tmp_path):
        kernel = make_kernel(nr_cpus=4)
        plane = HealthPlane(kernel, dump_dir=str(tmp_path)).install()
        try:
            report = plane.dump("smp")
            assert [c["index"] for c in report["cpus"]] == [0, 1, 2, 3]
            snap = kernel.kstat.snapshot()
            assert "kernel.cpu3.busy_ns" in snap
        finally:
            plane.uninstall()
