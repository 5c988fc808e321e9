#!/usr/bin/env python3
"""Incremental migration: converting a driver one function at a time.

The paper's section 5.3 methodology: every user-level function starts
as the original C code staged in the driver library; decaf rewrites
are added leaf-first, each validated against the C version on the live
device before the binding is flipped.  A buggy rewrite is caught by
the comparison and reverted.

Run:  python examples/incremental_migration.py
"""

from repro.core.marshal import MarshalPlan
from repro.devices import EthernetLink, Rtl8139Device
from repro.drivers.decaf.rtl8139_nucleus import Rtl8139Nucleus
from repro.drivers.decaf.transition import TransitionError, TransitionTable
from repro.drivers.legacy import rtl8139 as legacy
from repro.drivers.linuxapi import LinuxApi
from repro.kernel import make_kernel


def main():
    kernel = make_kernel()
    link = EthernetLink(kernel, bits_per_second=100_000_000)
    nic = Rtl8139Device(kernel, link)
    kernel.pci.add_function(nic.pci)
    kernel.pci.request_regions(nic.pci, "migration-demo")
    legacy.linux = LinuxApi(kernel)

    tp = legacy.rtl8139_private()
    tp.ioaddr = nic.pci.resource_start(0)

    # The decaf 8139too nucleus's XPC boundary, built as probe builds
    # it, on an empty marshal plan: these functions pass no structs.
    nucleus = Rtl8139Nucleus(kernel)
    nucleus.connect(legacy.DRV_NAME, plan=MarshalPlan())
    table = TransitionTable(nucleus.channel)
    rt = nucleus.decaf_rt

    # Step 0: the freshly split driver -- all user functions in C.
    table.register("read_mac",
                   lambda: legacy.read_mac_address(tp) or list(tp.mac_addr))
    table.register("check_media",
                   lambda: 1 if not legacy.RTL_R8(tp, legacy.MSR)
                   & legacy.MSR_LINKB else 0)
    table.register("read_config1",
                   lambda: legacy.inl if False else
                   legacy.RTL_R8(tp, legacy.CONFIG1))
    print("after splitting: %d/%d functions converted, library holds %s"
          % (*table.conversion_progress(), table.unconverted()))

    # Step 1: convert read_mac, validating against the C version first.
    table.add_decaf_implementation(
        "read_mac", lambda: [rt.inb(tp.ioaddr + i) for i in range(6)])
    mac = table.compare("read_mac")
    table.convert("read_mac")
    print("read_mac converted (validated: %s)"
          % ":".join("%02x" % b for b in mac))

    # Step 2: a BUGGY rewrite of check_media -- caught by compare().
    table.add_decaf_implementation(
        "check_media",
        lambda: 1 if rt.inb(tp.ioaddr + legacy.MSR) & legacy.MSR_LINKB
        else 0)  # inverted sense!
    try:
        table.compare("check_media")
    except TransitionError as exc:
        print("buggy rewrite caught before conversion: %s" % exc)

    # Fix it and convert.
    table.add_decaf_implementation(
        "check_media",
        lambda: 0 if rt.inb(tp.ioaddr + legacy.MSR) & legacy.MSR_LINKB
        else 1)
    table.compare("check_media")
    table.convert("check_media")
    print("check_media converted after the fix")

    print("migration status: %d/%d converted, remaining in C: %s"
          % (*table.conversion_progress(), table.unconverted()))
    print("calls so far: %d through the library, %d through the decaf "
          "driver" % (table.library_calls, table.decaf_calls))


if __name__ == "__main__":
    main()
