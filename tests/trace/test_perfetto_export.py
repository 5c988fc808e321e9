"""Chrome-trace export: format, lanes, and XPC reconciliation."""

import json

from repro.trace import Tracer, per_driver
from repro.trace.perfetto import (
    CTX_TIDS, chrome_trace, load_trace, span_events, write_chrome_trace,
)
from repro.workloads import make_8139too_rig, netperf_send


class TestFormat:
    def test_thread_name_metadata_and_lanes(self, kernel):
        tracer = Tracer(kernel)
        doc = chrome_trace(tracer)
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == set(CTX_TIDS)
        assert doc["otherData"]["tracer"] == tracer.name

    def test_ns_to_us_conversion_and_tid(self, kernel):
        tracer = Tracer(kernel)
        kernel.run_for_ns(2500)
        tracer.span("timer.fire", 500, {"timer": "t"})
        doc = chrome_trace(tracer)
        (span,) = span_events(doc)
        assert span["ts"] == 0.5       # 500 ns -> 0.5 trace us
        assert span["dur"] == 2.0      # 2000 ns
        assert span["tid"] == CTX_TIDS["process"]
        assert span["args"]["ctx"] == "process"
        assert span["args"]["locks_held"] == 0

    def test_instants_carry_scope(self, kernel):
        tracer = Tracer(kernel)
        tracer.instant("printk", {"msg": "x"})
        doc = chrome_trace(tracer)
        inst = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        assert inst and all(ev["s"] == "t" for ev in inst)

    def test_write_and_load_round_trip(self, kernel, tmp_path):
        tracer = Tracer(kernel)
        tracer.instant("printk", {"msg": "x"})
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tracer, path)
        loaded = load_trace(path)
        assert loaded == json.loads(json.dumps(written))
        assert "trace_summary" in loaded["otherData"]


class TestXpcReconciliation:
    """The acceptance contract: the exported trace accounts for every
    kernel/user crossing and every marshaled byte, exactly."""

    def _traced_netperf(self, tmp_path):
        rig = make_8139too_rig(decaf=True)
        # Install before insmod so the tracer sees the same life
        # window as the Xpc counters (zero from birth).
        tracer = Tracer(rig.kernel).install()
        rig.insmod()
        netperf_send(rig, duration_s=0.05, trace=tracer)
        path = tmp_path / "netperf.json"
        write_chrome_trace(tracer, path)
        tracer.uninstall()
        return rig, load_trace(path)

    def test_span_count_equals_kernel_user_crossings(self, tmp_path):
        rig, doc = self._traced_netperf(tmp_path)
        xpc_spans = span_events(doc, cat="xpc")
        assert len(xpc_spans) == rig.xpc.kernel_user_crossings
        assert rig.xpc.kernel_user_crossings > 0

    def test_span_bytes_reconcile_with_bytes_marshaled(self, tmp_path):
        rig, doc = self._traced_netperf(tmp_path)
        spans = span_events(doc, cat="xpc") + span_events(doc, cat="xpc.lang")
        traced = sum(ev["args"]["bytes"] for ev in spans
                     if "bytes" in ev["args"])
        assert traced == rig.xpc.bytes_marshaled

    def test_per_driver_summary_reconciles(self, tmp_path):
        rig, doc = self._traced_netperf(tmp_path)
        per = per_driver(doc["otherData"]["trace_summary"]["kstat"])
        d = per[rig.name]
        assert d["crossings"] == rig.xpc.kernel_user_crossings
        assert d["bytes"] == rig.xpc.bytes_marshaled
