"""Scalar-only XPC crossings skip the codec without changing anything.

A crossing with no struct arguments (``k_read_config_dword``,
``k_ps2_command``, ...) carries a 4-byte argument-count wire.  The
channel now charges that wire directly instead of encoding and decoding
it.  An installed ``corrupt_hook`` forces the full codec, so a run with
a pass-through hook is the reference.

Every decaf family goes through insmod, one control op and rmmod both
ways.  The two runs must agree on the virtual clock, CPU accounting per
category, bytes marshaled, the crossing counters, the traced ``xpc.*``
spans and dmesg.  Dropping or changing the 4-byte marshal charge of the
fast path shows up in the clock, the ``marshal`` category and the bytes.
"""

import struct

import pytest

from repro.core.xpc import XpcChannel
from repro.kernel.usb import usb_sndbulkpipe
from repro.trace import Tracer
from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
)


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


FAMILIES = {
    "e1000": (make_e1000_rig, _op_netdev),
    "8139too": (make_8139too_rig, _op_netdev),
    "ens1371": (make_ens1371_rig, _op_pcm),
    "uhci_hcd": (make_uhci_rig, _op_usb),
    "psmouse": (make_psmouse_rig, _op_mouse),
}


def _lifecycle(family, hook):
    """insmod, one control op, rmmod; returns everything observable."""
    make, op = FAMILIES[family]
    saved = XpcChannel.default_corrupt_hook
    XpcChannel.default_corrupt_hook = hook
    try:
        rig = make(decaf=True)
        kernel = rig.kernel
        tracer = Tracer(kernel).install()
        assert kernel.modules.insmod(rig.module) == 0
        xpc = rig.xpc
        assert op(rig) == 0
        kernel.modules.rmmod(rig.module.name, check_leaks=True)
        tracer.uninstall()
    finally:
        XpcChannel.default_corrupt_hook = saved
    counters = {name: value for name, value in vars(xpc).items()
                if isinstance(value, int)}
    spans = [(ev["name"], ev["ts"], ev["dur"], ev["args"])
             for ev in tracer.events
             if ev["ph"] == "X" and ev["name"].startswith("xpc.")]
    return {
        "now_ns": kernel.clock.now_ns,
        "by_category": dict(kernel.cpu._by_category),
        "cpus": [dict(v.acct._by_category) for v in kernel.cpus],
        "counters": counters,
        "spans": spans,
        "dmesg": kernel.dmesg(),
    }


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_scalar_only_fast_path_matches_full_codec(family):
    scalar_wires = []

    def passthrough(data, direction):
        if len(data) == 4:
            scalar_wires.append(bytes(data))
        return data

    fast = _lifecycle(family, None)
    full = _lifecycle(family, passthrough)
    # The reference run really did cross scalar-only, through the codec.
    assert scalar_wires and set(scalar_wires) == {b"\x00\x00\x00\x00"}
    assert fast["counters"]["bytes_marshaled"] > 0
    for key in fast:
        assert fast[key] == full[key], key
