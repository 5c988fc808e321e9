"""Lines-of-code accounting (Table 1 and Table 2 support).

The paper's Table 1 reports the size of the Decaf infrastructure:
runtime support (Jeannie helpers, XPC in the decaf and nuclear
runtimes) and DriverSlicer (CIL OCaml, Python scripts, XDR compilers).
Our reproduction has direct analogues for each row.
"""

import importlib
import inspect


def count_module_loc(module_name):
    """Non-comment, non-blank source lines of one importable module."""
    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    count = 0
    in_docstring = False
    delim = None
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # Track (simple) module/class/function docstrings.
        if in_docstring:
            if delim in line:
                in_docstring = False
            continue
        if line.startswith(('"""', "'''")):
            delim = line[:3]
            if line.count(delim) == 1:
                in_docstring = True
            continue
        count += 1
    return count


# Paper's Table 1 rows -> our analogous components.
INFRASTRUCTURE_COMPONENTS = {
    "Runtime support": {
        "Decaf runtime helpers (Jeannie helpers analogue)": [
            "repro.core.runtime",
            "repro.drivers.decaf.plumbing",
            "repro.drivers.decaf.exceptions",
        ],
        "XPC in Decaf runtime": [
            "repro.core.xpc",
            "repro.core.objtracker",
            "repro.core.domains",
        ],
        "XPC in Nuclear runtime": [
            "repro.core.marshal",
            "repro.core.combolock",
            "repro.core.cstruct",
        ],
    },
    "DriverSlicer": {
        "Static analysis (CIL OCaml analogue)": [
            "repro.slicer.callgraph",
            "repro.slicer.partition",
            "repro.slicer.accessanalysis",
        ],
        "Post-processing scripts": [
            "repro.slicer.splitter",
            "repro.slicer.report",
            "repro.slicer.config",
            "repro.slicer.plans",
        ],
        "XDR compilers": [
            "repro.slicer.xdrgen",
            "repro.slicer.annotations",
        ],
    },
}


def infrastructure_loc_report():
    """Return the Table 1 analogue: {section: {row: loc}} plus total."""
    report = {}
    total = 0
    for section, rows in INFRASTRUCTURE_COMPONENTS.items():
        report[section] = {}
        for row, modules in rows.items():
            loc = sum(count_module_loc(m) for m in modules)
            report[section][row] = loc
            total += loc
    report["total"] = total
    return report
