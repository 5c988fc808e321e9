"""Build-time slicing: the decaf drivers' generated marshal-plan table.

The paper's DriverSlicer is an offline tool that "generates stubs and
marshaling code, and can regenerate them as the driver evolves".  This
module is that step for the marshal plans: it runs the access analysis
over each converted driver's legacy source (the user partition),
merges in the decaf-source analysis, applies the config's
``extra_access`` (DECAF_XVAR) additions and ``kernel_owned`` pins, and
writes the result to :mod:`repro.drivers.decaf.marshal_plans`.  A decaf
probe loads its plan from that table and never runs the analysis.

Rewrite the table after changing a driver or its slice config, and
check it is current (exit 1 with a unified diff when it is not)::

    PYTHONPATH=src python -m repro.slicer.plans
    PYTHONPATH=src python -m repro.slicer.plans --check
"""

import argparse
import difflib
import os
import pprint
import sys

from .accessanalysis import build_marshal_plan
from .config import DRIVER_CONFIGS
from .decafanalysis import analyze_decaf_accesses, merge_accesses
from .report import conversion_report

TABLE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "drivers", "decaf", "marshal_plans.py")

REGENERATE = "PYTHONPATH=src python -m repro.slicer.plans"

_HEADER = '''\
"""Marshal plans of the decaf drivers, generated by DriverSlicer.

Do not edit: regenerate with ``%s``.
For each driver, ``access`` holds the fields of each struct that either
half of the split reads or writes, and ``pinned`` the kernel-owned
fields that never cross user->kernel.  ``slice_plan`` in
:mod:`repro.drivers.decaf.plumbing` builds a ``MarshalPlan`` from it.
"""

''' % REGENERATE


def live_plan(config):
    """The MarshalPlan DriverSlicer derives from one driver's sources."""
    legacy = conversion_report(config)["marshal_plan"]._accesses
    decaf = analyze_decaf_accesses(config.load_decaf_classes(),
                                   config.type_hints)
    return build_marshal_plan(merge_accesses(legacy, decaf),
                              config.extra_access,
                              kernel_owned=config.kernel_owned)


def plan_table(plan):
    """The plan as plain data with sorted names: ``{"access": {struct:
    {"reads": (...), "writes": (...)}}, "pinned": {struct: (...)}}``.
    Field order on the wire comes from ``struct_cls.fields()``, never
    from these sets, so ``MarshalPlan.from_table`` rebuilds a plan that
    marshals the same bytes."""
    return {
        "access": {name: {"reads": tuple(sorted(access.reads)),
                          "writes": tuple(sorted(access.writes))}
                   for name, access in plan._accesses.items()},
        "pinned": {name: tuple(sorted(fields))
                   for name, fields in plan._pinned.items()},
    }


def render_table(plans):
    """Source text of the table module for ``{driver: MarshalPlan}``:
    one item per line, so a plan change is a per-field diff."""
    table = {name: plan_table(plan) for name, plan in plans.items()}
    body = pprint.pformat(table, width=1)
    return _HEADER + "PLANS = %s\n" % body.replace("\n", "\n" + " " * 8)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.slicer.plans",
        description="Regenerate the decaf drivers' marshal-plan table.")
    parser.add_argument("--check", action="store_true",
                        help="compare instead of writing; print a unified "
                             "diff and exit 1 when the table is stale")
    args = parser.parse_args(argv)
    text = render_table({name: live_plan(config)
                         for name, config in DRIVER_CONFIGS.items()})
    if not args.check:
        with open(TABLE_PATH, "w") as fh:
            fh.write(text)
        return 0
    try:
        with open(TABLE_PATH) as fh:
            current = fh.read()
    except FileNotFoundError:
        current = ""
    if current == text:
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        current.splitlines(keepends=True), text.splitlines(keepends=True),
        fromfile=TABLE_PATH, tofile="generated"))
    print("marshal-plan table is stale; regenerate with: %s" % REGENERATE)
    return 1


if __name__ == "__main__":
    sys.exit(main())
