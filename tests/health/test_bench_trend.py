"""tools/bench_trend.py: the BENCH_*.json floor/headroom aggregator."""

import importlib.util
import json
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "tools", "bench_trend.py")


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location("bench_trend", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_benches(root, datapath_speedup=2.3, health_always_on=0.002):
    (root / "BENCH_datapath.json").write_text(json.dumps({
        "e1000_recv": {"wall_speedup": datapath_speedup},
        "rtl8139_recv": {"wall_speedup": 1.1},
    }))
    (root / "BENCH_trace.json").write_text(json.dumps({
        "netperf_recv_e1000": {"disabled_overhead_fraction": 0.002},
    }))
    (root / "BENCH_health.json").write_text(json.dumps({
        "netperf_recv_e1000": {
            "always_on_overhead_fraction": health_always_on,
        },
        "netperf_recv_rtl8139": {
            "always_on_overhead_fraction": health_always_on,
        },
    }))


def test_all_bounds_held(trend, tmp_path, capfd):
    _write_benches(tmp_path)
    assert trend.main(["--dir", str(tmp_path), "--fail"]) == 0
    out = capfd.readouterr().out
    assert "0 violation(s)" in out
    assert "VIOLATED" not in out


def test_floor_violation_fails(trend, tmp_path, capfd):
    _write_benches(tmp_path, datapath_speedup=1.5)   # under the 2.0 floor
    assert trend.main(["--dir", str(tmp_path), "--fail"]) == 1
    out = capfd.readouterr().out
    assert "VIOLATED" in out
    assert "1 violation(s)" in out
    # Without --fail the table still renders but the exit stays clean.
    assert trend.main(["--dir", str(tmp_path)]) == 0


def test_ceiling_violation_fails(trend, tmp_path):
    _write_benches(tmp_path, health_always_on=0.02)  # over the 1% ceiling
    assert trend.main(["--dir", str(tmp_path), "--fail"]) == 1


def test_missing_files_report_but_never_fail(trend, tmp_path, capfd):
    assert trend.main(["--dir", str(tmp_path), "--fail"]) == 0
    out = capfd.readouterr().out
    assert "(missing)" in out
    assert "%d missing" % len(trend.FLOORS) in out


def test_headroom_math(trend):
    assert trend._headroom(2.5, 2.0, "floor") == pytest.approx(0.25)
    assert trend._headroom(1.5, 2.0, "floor") == pytest.approx(-0.25)
    assert trend._headroom(0.005, 0.01, "ceiling") == pytest.approx(0.5)
    assert trend._headroom(0.02, 0.01, "ceiling") == pytest.approx(-1.0)


def test_tracked_metrics_exist_in_real_benches(trend):
    """The curated floors stay in sync with what the suites write."""
    root = os.path.join(os.path.dirname(_TOOL), os.pardir)
    rows = trend.collect(os.path.abspath(root))
    for fname, dotted, _bound, _kind, value, _headroom in rows:
        if os.path.exists(os.path.join(root, fname)):
            assert value is not None, "%s lacks %s" % (fname, dotted)
