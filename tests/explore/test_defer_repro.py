"""Defer repro scripts: an irq-deferral finding reproduces standalone.

``write_repro_script(..., defer_event=k)`` emits the one repro template
with the pair run through ``run_defer_pair``.  With the canary nobble
the emitted script must report the divergence and exit 1; the same
scenario without the nobble must run clean and exit 0.  An explorer
run with a nobble writes scripts that import it by name; a nobble that
cannot be imported that way gets no script.
"""

import os
import subprocess
import sys

import pytest

from repro.conformance import (DifferentialRunner, Scenario, nobble_drop_tx,
                               write_repro_script)
from repro.explore import run_defer_pair
from repro.explore.explorer import Explorer, base_events

DEFER_EVENT = 0  # the first tx burst's interrupts land one event late


@pytest.fixture(scope="module")
def scenario():
    return Scenario("8139too", 0, "strict", base_events("8139too", 4))


def _run_script(path):
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_nobbled_defer_repro_reproduces(scenario, tmp_path):
    result = run_defer_pair(DifferentialRunner(nobble=nobble_drop_tx),
                            scenario, DEFER_EVENT)
    assert not result.ok
    path = tmp_path / "repro_defer_nobbled.py"
    write_repro_script(scenario, result.divergences, path,
                       nobble=nobble_drop_tx, defer_event=DEFER_EVENT)
    text = path.read_text()
    assert "Deferred event: %d" % DEFER_EVENT in text
    assert "run_defer_pair(DifferentialRunner(nobble=nobble_drop_tx)" in text
    proc = _run_script(path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "divergence reproduced" in proc.stdout


def test_clean_defer_repro_exits_zero(scenario, tmp_path):
    path = tmp_path / "repro_defer_clean.py"
    write_repro_script(scenario, [], path, defer_event=DEFER_EVENT)
    proc = _run_script(path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no divergence" in proc.stdout


def test_explorer_defer_repro_reinstalls_its_nobble(scenario, tmp_path):
    """A nobbled exploration's scripts import the nobble by name."""
    report = Explorer("8139too", depth=4, nobble=nobble_drop_tx,
                      out_dir=str(tmp_path)).run()
    finding = next(f for f in report.findings if f["kind"] == "defer")
    text = open(finding["repro"]).read()
    assert "from repro.conformance.runner import nobble_drop_tx" in text
    proc = _run_script(finding["repro"])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "divergence reproduced" in proc.stdout
    # The same pair without the nobble runs clean.
    found = Scenario.from_json(finding["scenario"])
    assert run_defer_pair(DifferentialRunner(), found,
                          finding["defer_event"]).ok


def test_unimportable_nobble_gets_no_script(tmp_path):
    report = Explorer("8139too", depth=4,
                      nobble=lambda rig: nobble_drop_tx(rig),
                      out_dir=str(tmp_path)).run()
    assert report.findings
    for finding in report.findings:
        assert finding["repro"].startswith("not written: nobble")
    assert not list(tmp_path.iterdir())
    with pytest.raises(ValueError):
        write_repro_script(Scenario.from_json(report.findings[0]["scenario"]),
                           [], tmp_path / "repro_x.py",
                           nobble=lambda rig: None)
