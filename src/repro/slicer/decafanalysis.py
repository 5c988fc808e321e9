"""Field-access analysis over *decaf driver* source (paper §3.2.4).

The paper's DriverSlicer runs CIL over C, so fields referenced only by
the Java decaf driver are invisible to it; programmers must add
``DECAF_XVAR`` annotations by hand, and the authors write: "In the
future, we plan to automatically analyze the decaf driver source code
to detect and marshal these fields.  In addition, we plan to produce a
concise specification of the entry points for regenerating marshaling
code."

This module implements both future-work items:

* :func:`analyze_decaf_accesses` walks the decaf driver classes and
  records reads/writes of struct fields reached through ``self``-less
  parameter chains (``adapter.hw.fc``, ``chip.sctrl = x``), producing
  the same ``{struct: FieldAccess}`` shape as the legacy analysis --
  merged with it, no DECAF_XVAR is needed for fields the decaf code
  visibly touches.
* :func:`entry_point_spec` emits the concise, source-independent
  interface specification: entry points in both directions with their
  marshaled parameter types, sufficient to regenerate stubs and
  marshaling code without the original driver source.
"""

import ast
import inspect
import textwrap

from ..core.marshal import FieldAccess
from .accessanalysis import _AccessVisitor


def analyze_decaf_accesses(classes, type_hints):
    """Analyze decaf-driver classes; returns {struct: FieldAccess}.

    ``type_hints`` maps parameter names to struct type names, exactly
    as in :class:`repro.slicer.config.SliceConfig`.  Methods are
    analyzed with their parameters (minus ``self``) type-matched by
    name.  Raises ValueError naming a class whose source cannot be
    read.
    """
    accesses = {}
    for cls in classes:
        try:
            source = inspect.getsource(cls)
        except (OSError, TypeError) as exc:
            # Skipping the class would drop its decaf-only fields from
            # the plan without a word.
            raise ValueError("cannot read the source of decaf class %s.%s"
                             % (cls.__module__, cls.__qualname__)) from exc
        tree = ast.parse(textwrap.dedent(source))
        class_node = tree.body[0]
        if not isinstance(class_node, ast.ClassDef):
            continue
        for node in class_node.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            visitor = _AccessVisitor(type_hints, accesses)
            visitor.visit(node)
    return accesses


def merge_accesses(*access_dicts):
    """Union several {struct: FieldAccess} maps."""
    merged = {}
    for accesses in access_dicts:
        for name, access in accesses.items():
            if name in merged:
                merged[name] = merged[name].merged(access)
            else:
                merged[name] = FieldAccess(access.reads, access.writes)
    return merged


def entry_point_spec(driver_name, partition, type_hints):
    """The concise entry-point specification (text).

    Lists every user entry point (kernel -> decaf stubs) and kernel
    entry point (decaf -> kernel stubs) with the marshaled struct types
    its parameters carry -- everything regeneration needs, without the
    driver source.
    """
    lines = [
        "# Decaf entry-point specification for %s" % driver_name,
        "# Generated by DriverSlicer; sufficient to regenerate stubs and",
        "# marshaling code without the original driver source.",
        "",
        "[user-entry-points]  # kernel -> decaf driver",
    ]
    for name in sorted(partition.user_entry_points):
        lines.append("%s(%s)" % (name, _param_types(name, partition,
                                                    type_hints)))
    lines.append("")
    lines.append("[kernel-entry-points]  # decaf driver -> kernel")
    for name in sorted(partition.kernel_entry_points):
        if name.startswith("linux."):
            lines.append("%s  # kernel API" % name)
        else:
            lines.append("%s(%s)" % (name, _param_types(name, partition,
                                                        type_hints)))
    lines.append("")
    lines.append("[marshaled-types]")
    for struct in sorted(set(filter(None, type_hints.values()))):
        lines.append(struct)
    return "\n".join(lines) + "\n"


def _param_types(name, partition, type_hints):
    info = partition.graph.functions.get(name)
    if info is None:
        return "?"
    # Best effort: look the function up in its module for a signature.
    import importlib

    module = importlib.import_module(
        "repro.drivers.legacy." + info.module)
    func = getattr(module, name, None)
    if func is None:
        return "?"
    try:
        params = list(inspect.signature(func).parameters)
    except (TypeError, ValueError):
        return "?"
    rendered = []
    for p in params:
        hint = type_hints.get(p)
        rendered.append("%s: %s" % (p, hint) if hint else p)
    return ", ".join(rendered)


def parse_entry_point_spec(text):
    """Parse the spec back into a structured form (round-trip support)."""
    sections = {"user-entry-points": [], "kernel-entry-points": [],
                "marshaled-types": []}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            continue
        if current in sections:
            name = line.split("(", 1)[0].strip()
            sections[current].append(name)
    return sections
