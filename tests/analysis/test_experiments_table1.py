"""EXPERIMENTS.md's Table 1 must state what the tree measures.

The "Our LoC" column of Table 1 (the Decaf infrastructure size) is read
from the document and compared, row by row and in total, with
``repro.analysis.loc.infrastructure_loc_report()``.  A change to a
counted module that does not re-sync the table fails here.
"""

import os

from repro.analysis import infrastructure_loc_report

EXPERIMENTS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "EXPERIMENTS.md")


def _table1_our_loc():
    """The last cell of each Table 1 row, in order (the total last)."""
    with open(EXPERIMENTS) as fh:
        text = fh.read()
    section = text.split("\n## Table 1", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    header, _rule, *body = rows
    assert header.rstrip(" |").endswith("Our LoC"), header
    return [int(row.rstrip(" |").rsplit("|", 1)[1].strip(" *").replace(
        ",", "")) for row in body]


def test_table1_our_loc_matches_the_report():
    report = infrastructure_loc_report()
    measured = [loc for section in ("Runtime support", "DriverSlicer")
                for loc in report[section].values()]
    assert _table1_our_loc() == measured + [report["total"]]
