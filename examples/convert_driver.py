#!/usr/bin/env python3
"""Run the DriverSlicer pipeline on a legacy driver, end to end.

This is the paper's conversion workflow (section 3.2) on the 8139too
driver:

1. build the call graph from the driver source;
2. partition from the critical roots (interrupt handler, transmit);
3. analyze which struct fields the user-level half touches;
4. generate the XDR interface spec (with the Figure 3 array rewrite);
5. cross the XPC stubs of the decaf 8139too built from that split: one
   generic stub per direction, per nucleus class (an ``up.open`` that
   makes its own downcalls);
6. split the source into the two patched trees.

Run:  python examples/convert_driver.py
"""

from repro.drivers.legacy import rtl8139
from repro.slicer import (
    DRIVER_CONFIGS,
    build_call_graph,
    generate_xdr_spec,
    partition_driver,
    split_driver_source,
)
from repro.slicer.accessanalysis import analyze_field_accesses
from repro.slicer.xdrgen import driver_struct_classes


def main():
    config = DRIVER_CONFIGS["8139too"]
    modules = config.load_modules()

    print("=== 1. call graph ===")
    graph = build_call_graph(modules)
    print("functions: %d, total LoC: %d" % (len(graph.functions),
                                            graph.total_loc()))

    print("\n=== 2. partition (critical roots: %s) ===" %
          ", ".join(config.critical_roots))
    partition = partition_driver(graph, config)
    print("driver nucleus (%d functions):" % len(partition.kernel_funcs))
    for name in sorted(partition.kernel_funcs):
        reason = partition.reasons.get(name, "reachable from a root")
        print("   %-28s %s" % (name, reason))
    print("user level (%d functions): %s ..." % (
        len(partition.user_funcs),
        ", ".join(sorted(partition.user_funcs)[:6])))

    print("\n=== 3. field-access analysis ===")
    accesses = analyze_field_accesses(modules, partition.user_funcs,
                                      config.type_hints)
    for struct, access in sorted(accesses.items()):
        print("   %-18s reads=%s writes=%s" % (
            struct, sorted(access.reads), sorted(access.writes)))

    print("\n=== 4. XDR interface spec (excerpt) ===")
    spec = generate_xdr_spec(driver_struct_classes([rtl8139]))
    print("\n".join(spec.splitlines()[:20]))

    print("\n=== 4b. generated Java classes (jrpcgen output) ===")
    from repro.slicer import generate_java_classes

    java = generate_java_classes(driver_struct_classes([rtl8139]))
    print("\n".join(java["rtl8139_private"].splitlines()[:10]))
    print("   ... (%d classes generated)" % len(java))

    print("\n=== 5. XPC stubs ===")
    from repro.workloads import make_8139too_rig

    rig = make_8139too_rig(decaf=True)
    rig.insmod()
    nucleus = rig.nucleus
    print("upcall stubs: %s" % ", ".join(sorted(nucleus.UPCALLS)))
    print("downcall stubs (the user half's whole kernel interface): %d"
          % len([n for n in vars(type(nucleus.down))
                 if n.startswith("k_")]))
    xpc = nucleus.xpc
    before = (xpc.upcalls, xpc.downcalls)
    ret = nucleus.up.open(nucleus.state.tp)
    print("   up.open returned %d after %d upcall(s) and %d downcall(s)"
          % (ret, xpc.upcalls - before[0], xpc.downcalls - before[1]))
    log = nucleus.replay_log
    print("   replay log: %s" % ", ".join(fn.__name__
                                        for fn, _args in log.entries()))
    ret = nucleus.up.close(nucleus.state.tp)
    print("   up.close returned %d; replay log: %s" % (
        ret, ", ".join(fn.__name__ for fn, _args in log.entries())))
    rig.rmmod()

    print("\n=== 6. split source trees ===")
    trees = split_driver_source(modules, partition)
    nucleus_src, library_src = trees["rtl8139"]
    print("nucleus tree: %5d lines" % len(nucleus_src.splitlines()))
    print("library tree: %5d lines" % len(library_src.splitlines()))
    marker = next(line for line in nucleus_src.splitlines()
                  if "DriverSlicer" in line)
    print("example patch marker: %s" % marker.strip())


if __name__ == "__main__":
    main()
