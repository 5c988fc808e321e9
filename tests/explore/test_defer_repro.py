"""Defer repro scripts: an irq-deferral finding reproduces standalone.

``write_repro_script(..., defer_event=k)`` emits the one repro template
with the pair run through ``run_defer_pair``.  With the canary nobble
the emitted script must report the divergence and exit 1; the same
scenario without the nobble must run clean and exit 0.
"""

import os
import subprocess
import sys

import pytest

from repro.conformance import (DifferentialRunner, Scenario, nobble_drop_tx,
                               write_repro_script)
from repro.explore import run_defer_pair
from repro.explore.explorer import base_events

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
                       nobble_name="nobble_drop_tx", defer_event=DEFER_EVENT)
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
