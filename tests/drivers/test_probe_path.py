"""A decaf probe loads its marshal plan; it never runs DriverSlicer.

Slicing happens at build time (``python -m repro.slicer.plans``), so a
fresh interpreter that brings up a decaf rig of every family must not
import the slicer's ast analysis at all.
"""

import os
import subprocess
import sys

PROBE_ALL = """
import sys
from repro.family import FAMILIES
for family in FAMILIES.values():
    rig = family.rig(decaf=True)
    rig.insmod()
    rig.rmmod(check_leaks=True)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "slicer"]))
"""


def test_decaf_probe_of_every_family_imports_no_slicer():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", PROBE_ALL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
