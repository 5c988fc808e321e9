"""trace= plumbing through all four workload rigs.

Every Table 3 workload accepts ``trace=``: a path exports a
Perfetto-loadable JSON, the result carries ``trace_summary``, and the
tracer is uninstalled afterwards (the kernel returns to the zero-cost
path).
"""

import json

from repro.workloads import (
    make_8139too_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
    mpg123_play,
    move_and_click,
    netperf_send,
    tar_to_flash,
)


def check_traced(kernel, result, path):
    assert kernel.tracer is None, "tracer must be uninstalled at finish"
    assert result.trace_summary["events"] > 0
    doc = json.loads(path.read_text())
    assert doc["traceEvents"], "export must hold events"
    assert doc["otherData"]["trace_summary"] == result.trace_summary
    return doc


class TestTraceWiring:
    def test_netperf(self, tmp_path):
        rig = make_8139too_rig(decaf=True)
        rig.insmod()
        path = tmp_path / "netperf.json"
        result = netperf_send(rig, duration_s=0.05, trace=str(path))
        doc = check_traced(rig.kernel, result, path)
        spans = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
        assert any(ev["cat"] == "irq" for ev in spans)

    def test_mpg123(self, tmp_path):
        rig = make_ens1371_rig(decaf=True)
        rig.insmod()
        path = tmp_path / "mpg123.json"
        result = mpg123_play(rig, duration_s=0.2, trace=str(path))
        check_traced(rig.kernel, result, path)

    def test_mouse(self, tmp_path):
        rig = make_psmouse_rig(decaf=True)
        rig.insmod()
        path = tmp_path / "mouse.json"
        result = move_and_click(rig, duration_s=0.2, trace=str(path))
        check_traced(rig.kernel, result, path)

    def test_tar_usb(self, tmp_path):
        rig = make_uhci_rig(decaf=True)
        rig.insmod()
        path = tmp_path / "tar.json"
        result = tar_to_flash(rig, archive_bytes=64 * 1024, trace=str(path))
        check_traced(rig.kernel, result, path)

    def test_untraced_has_empty_summary(self):
        rig = make_8139too_rig()
        rig.insmod()
        result = netperf_send(rig, duration_s=0.05)
        assert result.trace_summary == {}


class TestRowFormat:
    def test_row_compacts_pkts_per_poll_and_surfaces_extras(self):
        from repro.workloads.result import WorkloadResult

        r = WorkloadResult(
            name="w",
            kstat={"napi.polls": 63, "napi.packets_per_poll.1": 10,
                   "napi.packets_per_poll.4": 50,
                   "napi.packets_per_poll.64": 3},
            extra={"transactions": 7, "rig": object(), "note": "ok"},
        )
        row = r.row()
        assert row["napi_pkts_per_poll"] == "p50=4/max=64"
        assert row["transactions"] == 7
        assert row["note"] == "ok"
        assert "rig" not in row  # non-scalar extras stay out

    def test_row_dash_when_no_polls(self):
        from repro.workloads.result import WorkloadResult

        assert WorkloadResult(name="w").row()["napi_pkts_per_poll"] == "-"

    def test_extra_cannot_shadow_core_column(self):
        from repro.workloads.result import WorkloadResult

        r = WorkloadResult(name="w", extra={"napi_polls": 999})
        assert r.row()["napi_polls"] == 0  # core column wins
