"""``python -m repro.fleet``: bad input is a usage error, and ``--json``
writes the result row."""

import json

import pytest

from repro.fleet.__main__ import main

ROW_KEYS = {
    "workload", "throughput_mbps", "cpu_utilization_pct", "init_latency_s",
    "crossings", "decaf_invocations", "deferred_calls", "deferred_coalesced",
    "deferred_flushes", "napi_polls", "napi_budget_exhaustions",
    "napi_pkts_per_poll", "skb_pool_hit_rate", "skb_pool_cpu_hit_rates",
    "faults_injected", "recoveries", "packets_lost", "fleet_devices",
    "churn_cycles", "events_per_sec", "wall_s_per_virtual_ms",
    "mem_bytes_per_device", "recovery_rate", "recovery_p50_ms",
    "recovery_p99_ms", "decaf_slots", "legacy_slots", "probes", "removes",
    "wall_elapsed_s",
}


@pytest.mark.parametrize("argv, message", [
    (["--devices", "0"], "n_devices must be 1..4096"),
    (["--mix", "e1000,bogus"], "unknown families: ['bogus']"),
], ids=["devices-0", "unknown-family"])
def test_bad_spec_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.fleet")
    assert err.rstrip().endswith("error: " + message)


def test_tiny_fleet_writes_its_row_as_json(tmp_path, capsys):
    out = tmp_path / "row.json"
    assert main(["--devices", "2", "--duration-ms", "5",
                 "--json", str(out)]) == 0
    row = json.loads(out.read_text())
    assert set(row) == ROW_KEYS
    assert row["workload"] == "fleet"
    assert row["fleet_devices"] == 2
    assert (row["decaf_slots"], row["legacy_slots"]) == (1, 1)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed[:-1]] == list(row)
    assert printed[-1] == "wrote %s" % out
