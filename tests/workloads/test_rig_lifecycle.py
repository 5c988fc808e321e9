"""Rig lifecycle: insmod, one control op, rmmod -- pinned and leak-free.

The golden hashes cover every family in both variants: the init
latency, XPC crossings, the virtual clock, the CPU split by category
and dmesg after ``insmod``, one bring-up/down control op and a
leak-checked ``rmmod``.  A change to how rigs build their device and
module cannot move any of them unnoticed.
"""

import hashlib
import json
import struct

import pytest

from repro.kernel.usb import usb_sndbulkpipe
from repro.workloads import (make_8139too_rig, make_e1000_rig,
                             make_ens1371_rig, make_psmouse_rig,
                             make_uhci_rig)


def _op_netdev(rig):
    net = rig.kernel.net
    dev = rig.netdev()
    return net.dev_open(dev) or net.dev_close(dev)


def _op_pcm(rig):
    sound = rig.kernel.sound
    substream = sound.cards[0].pcms[0].playback
    return sound.pcm_open(substream) or sound.pcm_close(substream)


def _op_usb(rig):
    usb = rig.kernel.usb
    disk = usb.devices[0]
    cmd = struct.pack("<BBHI", 1, 0, 1, 0) + bytes(512)
    status, _n = usb.usb_bulk_msg(disk, usb_sndbulkpipe(disk, 2), cmd,
                                  timeout_ms=30_000)
    return status


def _op_mouse(rig):
    moved = rig.device.move(3, -1, buttons=1)
    rig.kernel.run_for_ms(10)
    return 0 if moved else -1


CASES = [
    # (family, rig factory, control op, golden legacy, golden decaf)
    ("e1000", make_e1000_rig, _op_netdev,
     "8f9b12d34188fd28", "fbfbb3c4f3b98e7f"),
    ("8139too", make_8139too_rig, _op_netdev,
     "516b361b3baa2eab", "c1cfaf713ea7d371"),
    ("ens1371", make_ens1371_rig, _op_pcm,
     "09961f4922e90a49", "dbbd45882bac597b"),
    ("uhci_hcd", make_uhci_rig, _op_usb,
     "bb4c5bafc6189c1c", "4ab727691136fdb0"),
    ("psmouse", make_psmouse_rig, _op_mouse,
     "ec8a909c91fb02df", "6af049d719a28ee8"),
]


def _lifecycle_hash(make, op, decaf):
    rig = make(decaf=decaf)
    rig.insmod()
    xpc = rig.xpc
    init_crossings = rig.crossings()
    ret = op(rig)
    rig.rmmod(check_leaks=True)
    kernel = rig.kernel
    snapshot = {
        "init_latency_ns": rig.init_latency_ns,
        "op_ret": ret,
        "crossings": [init_crossings,
                      xpc.kernel_user_crossings if xpc else 0],
        "clock_ns": kernel.clock.now_ns,
        "by_category": dict(kernel.cpu._by_category),
        "dmesg": list(kernel.dmesg()),
    }
    blob = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("decaf", [False, True], ids=["legacy", "decaf"])
@pytest.mark.parametrize("family,make,op,golden_legacy,golden_decaf", CASES,
                         ids=[c[0] for c in CASES])
def test_rig_lifecycle_matches_golden(family, make, op, golden_legacy,
                                      golden_decaf, decaf):
    golden = golden_decaf if decaf else golden_legacy
    assert _lifecycle_hash(make, op, decaf) == golden


def test_supervised_rmmod_detaches_supervisor():
    """rmmod of a supervised rig must undo the supervisor's kernel-global
    registrations, so insmod/supervise/rmmod cycles leave them flat."""
    rig = make_8139too_rig(decaf=True)
    providers = []
    for _ in range(3):
        rig.insmod()
        rig.supervise()
        rig.rmmod()
        providers.append(len(rig.kernel.kstat._providers))
    assert providers[0] == providers[1] == providers[2]
    assert not [p for p, _fn in rig.kernel.kstat._providers
                if p == "recovery"]
