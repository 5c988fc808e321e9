"""DriverSlicer: partitioning, source splitting, and marshaling codegen.

The reproduction of the paper's tool (section 3.2).  Where the original
used CIL over C sources, this implementation uses Python's ``ast`` over
the legacy driver modules -- the analyses are language-independent:

* :mod:`repro.slicer.callgraph` -- call-graph extraction;
* :mod:`repro.slicer.partition` -- reachability from critical root
  functions -> driver nucleus vs user-level sets, plus both directions
  of entry points;
* :mod:`repro.slicer.accessanalysis` -- which struct fields user-level
  code reads/writes (drives selective marshaling);
* :mod:`repro.slicer.annotations` -- counting/processing the pointer
  annotations and DECAF_XVAR marks;
* :mod:`repro.slicer.xdrgen` -- XDR interface-spec generation with the
  Figure 3 pointer-to-array rewrite;
* :mod:`repro.slicer.splitter` -- the two patched source trees;
* :mod:`repro.slicer.report` -- Table 2 statistics;
* :mod:`repro.slicer.decafanalysis` -- field accesses of the decaf
  driver classes, and the entry-point specification;
* :mod:`repro.slicer.plans` -- the build step that writes the marshal
  plan table decaf probes load.

The XPC stubs themselves are not generated source: one generic stub
per direction, made per nucleus class from its ``k_*`` entry points and
``UPCALLS`` table (``xpc_stubs`` in :mod:`repro.drivers.decaf.plumbing`).
"""

from .callgraph import CallGraph, build_call_graph
from .config import SliceConfig, DRIVER_CONFIGS
from .partition import Partition, partition_driver
from .accessanalysis import analyze_field_accesses, build_marshal_plan
from .annotations import count_annotations, find_xvar_annotations
from .xdrgen import generate_java_classes, generate_xdr_spec
from .splitter import split_driver_source
from .report import conversion_report
from .decafanalysis import (
    analyze_decaf_accesses,
    entry_point_spec,
    merge_accesses,
)

__all__ = [
    "CallGraph",
    "build_call_graph",
    "SliceConfig",
    "DRIVER_CONFIGS",
    "Partition",
    "partition_driver",
    "analyze_field_accesses",
    "build_marshal_plan",
    "count_annotations",
    "find_xvar_annotations",
    "generate_xdr_spec",
    "generate_java_classes",
    "split_driver_source",
    "conversion_report",
    "analyze_decaf_accesses",
    "merge_accesses",
    "entry_point_spec",
]
