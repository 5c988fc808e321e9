"""Canary: a deliberately broken driver must be caught and minimized.

The harness is only trustworthy if sabotage is detected: ``nobble_drop_tx``
wraps the decaf variant's transmit path to drop every third frame, which
must surface as tx/counter divergences, ddmin down to a near-minimal
schedule, and emit a standalone repro script that still reproduces.
"""

import subprocess
import sys
import os

import pytest

from repro.conformance import (
    DifferentialRunner,
    ScenarioGenerator,
    minimize_scenario,
    nobble_drop_tx,
    write_repro_script,
)

SEED = 1  # known to generate tx traffic for e1000


@pytest.fixture(scope="module")
def nobbled_result():
    runner = DifferentialRunner(nobble=nobble_drop_tx)
    scenario = ScenarioGenerator(SEED).generate("e1000", "strict")
    return runner, scenario, runner.run_pair(scenario)


class TestCanaryDetection:
    def test_nobbled_decaf_diverges(self, nobbled_result):
        _runner, _scenario, result = nobbled_result
        assert not result.ok
        channels = {d.channel for d in result.divergences}
        assert "tx" in channels

    def test_divergence_names_the_channel_and_detail(self, nobbled_result):
        _runner, _scenario, result = nobbled_result
        tx = [d for d in result.divergences if d.channel == "tx"][0]
        assert "legacy" in tx.detail and "decaf" in tx.detail

    def test_minimizes_and_emits_working_repro(self, nobbled_result,
                                               tmp_path):
        runner, scenario, result = nobbled_result
        minimized, runs = minimize_scenario(runner, scenario, max_runs=48)
        assert 1 <= len(minimized.events) < len(scenario.events)
        assert runs <= 48

        final = runner.run_pair(minimized)
        assert not final.ok  # still diverges after minimization

        # Not "repro.py": the script's own directory is sys.path[0] in
        # the subprocess, and that name would shadow the repro package.
        path = tmp_path / "repro_canary.py"
        write_repro_script(minimized, final.divergences, str(path),
                           nobble=nobble_drop_tx)
        text = path.read_text()
        assert "nobble_drop_tx" in text
        assert '"driver":"e1000"' in text.replace(" ", "")

        # The emitted script must reproduce standalone: exit status 1
        # and a human-readable divergence report on stdout.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run([sys.executable, str(path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "divergence reproduced" in proc.stdout

    def test_unnobbled_pair_is_clean(self):
        """The same scenario without sabotage passes: the canary result
        is attributable to the nobble alone."""
        result = DifferentialRunner().run_pair(
            ScenarioGenerator(SEED).generate("e1000", "strict"))
        assert result.ok, "\n".join(
            "[%s] %s" % (d.channel, d.detail) for d in result.divergences)
