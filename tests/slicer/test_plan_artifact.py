"""The generated marshal-plan table must match what DriverSlicer derives.

Decaf probes load their plans from ``repro.drivers.decaf.marshal_plans``
instead of slicing at run time, so these tests are what keeps that
table honest: a driver, decaf-class or slice-config change that moves a
plan fails here until the table is regenerated.
"""

import pytest

from repro.drivers.decaf.plumbing import slice_plan
from repro.slicer import DRIVER_CONFIGS
from repro.slicer import plans

STALE = ("marshal-plan table is stale; regenerate it with "
         "`PYTHONPATH=src python -m repro.slicer.plans`")


@pytest.fixture(scope="module")
def live_plans():
    return {name: plans.live_plan(config)
            for name, config in DRIVER_CONFIGS.items()}


def _sets(plan):
    return ({name: (access.reads, access.writes)
             for name, access in plan._accesses.items()},
            dict(plan._pinned))


@pytest.mark.parametrize("driver", sorted(DRIVER_CONFIGS))
def test_table_plan_equals_live_plan(live_plans, driver):
    live_access, live_pinned = _sets(live_plans[driver])
    table_access, table_pinned = _sets(slice_plan(driver))
    assert table_access == live_access, STALE
    assert table_pinned == live_pinned, STALE


def test_table_file_is_the_rendered_live_plans(live_plans):
    with open(plans.TABLE_PATH, "rb") as fh:
        on_disk = fh.read()
    assert on_disk == plans.render_table(live_plans).encode(), STALE


def test_check_reports_a_perturbed_table(tmp_path, monkeypatch, capsys):
    with open(plans.TABLE_PATH) as fh:
        text = fh.read()
    perturbed = text.replace("'hw_addr',\n", "", 1)
    assert perturbed != text
    path = tmp_path / "marshal_plans.py"
    path.write_text(perturbed)
    monkeypatch.setattr(plans, "TABLE_PATH", str(path))

    assert plans.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("--- %s\n+++ generated\n" % path)
    assert any(line.startswith("+") and "'hw_addr'," in line
               for line in out.splitlines())
    assert "python -m repro.slicer.plans" in out
    assert path.read_text() == perturbed  # --check never writes


def test_check_passes_and_regenerates(tmp_path, monkeypatch, capsys):
    with open(plans.TABLE_PATH) as fh:
        text = fh.read()
    path = tmp_path / "marshal_plans.py"
    monkeypatch.setattr(plans, "TABLE_PATH", str(path))
    assert plans.main([]) == 0
    assert plans.main(["--check"]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == text
