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

import collections
import hashlib
import json
import struct

import pytest

from repro.core.xpc import DriverFailedError, XpcChannel
from repro.kernel.errors import SimulationError
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


# -- the shortened crossing paths, pinned --------------------------------------
#
# A scalar-only transfer skips the codec and the downcall's containment
# wrapper, the stubs skip splitting scalar-only arguments, and a
# user-level register access goes straight to IoSpace.  None of that
# may move the simulated result: each family's insmod, op and rmmod is
# pinned below (clock, crossing and io counts, and a digest over those
# plus the per-category CPU accounting of every CPU, every Xpc counter,
# and dmesg), with the traced run's xpc.* span counts.  Every mode must
# land on the same pins: the plain run takes the short paths, and a
# kernel tracer, a pass-through corrupt_hook or a pass-through
# inject_hook put the crossings back on their instrumented paths.

PINS = {
    "8139too": {
        "now_ns": 428682000, "crossings": 14, "lang_crossings": 2,
        "bytes_marshaled": 1504, "io": (21, 0), "digest": "51ceed8eabab3103",
        "spans": {"xpc.direct": 2, "xpc.downcall": 10, "xpc.upcall": 4},
    },
    "e1000": {
        "now_ns": 1445768950, "crossings": 81, "lang_crossings": 782,
        "bytes_marshaled": 11440, "io": (0, 787), "digest": "2b87632c04b86ee3",
        "spans": {"xpc.direct": 782, "xpc.downcall": 77, "xpc.upcall": 4},
    },
    "ens1371": {
        "now_ns": 789239200, "crossings": 38, "lang_crossings": 69,
        "bytes_marshaled": 1068, "io": (68, 0), "digest": "13717c63d640c67b",
        "spans": {"xpc.direct": 69, "xpc.downcall": 34, "xpc.upcall": 4},
    },
    "psmouse": {
        "now_ns": 671987400, "crossings": 27, "lang_crossings": 0,
        "bytes_marshaled": 600, "io": (0, 0), "digest": "c062d58d094bec9f",
        "spans": {"xpc.downcall": 25, "xpc.upcall": 2},
    },
    "uhci_hcd": {
        "now_ns": 438378000, "crossings": 9, "lang_crossings": 0,
        "bytes_marshaled": 488, "io": (19, 0), "digest": "756e78e06b42983e",
        "spans": {"xpc.downcall": 7, "xpc.upcall": 2},
    },
}


def _observe(family, mode, monkeypatch=None):
    make, op = FAMILIES[family]
    if mode == "corrupt_hook":
        monkeypatch.setattr(XpcChannel, "default_corrupt_hook",
                            lambda data, direction: data)
    elif mode == "inject_hook":
        init = XpcChannel.__init__

        def with_hook(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.inject_hook = lambda kind, callsite: None

        monkeypatch.setattr(XpcChannel, "__init__", with_hook)
    rig = make(decaf=True)
    kernel = rig.kernel
    tracer = Tracer(kernel).install() if mode == "traced" else None
    assert kernel.modules.insmod(rig.module) == 0
    xpc = rig.xpc
    assert op(rig) == 0
    kernel.modules.rmmod(rig.module.name, check_leaks=True)
    if tracer is not None:
        tracer.uninstall()
    counters = {name: value for name, value in sorted(vars(xpc).items())
                if isinstance(value, int)}
    io = (kernel.io.port_accesses, kernel.io.mmio_accesses)
    whole = {
        "now_ns": kernel.clock.now_ns,
        "cpus": [sorted(v.acct._by_category.items()) for v in kernel.cpus],
        "busy": [v.acct._busy_ns for v in kernel.cpus],
        "counters": counters,
        "io": io,
        "dmesg": kernel.dmesg(),
    }
    out = {
        "now_ns": kernel.clock.now_ns,
        "crossings": xpc.kernel_user_crossings,
        "lang_crossings": xpc.lang_crossings,
        "bytes_marshaled": xpc.bytes_marshaled,
        "io": io,
        "digest": hashlib.sha256(
            json.dumps(whole, sort_keys=True).encode()).hexdigest()[:16],
    }
    if tracer is not None:
        out["spans"] = dict(sorted(collections.Counter(
            ev["name"] for ev in tracer.events
            if ev["ph"] == "X" and ev["name"].startswith("xpc.")).items()))
    return out


@pytest.mark.parametrize("mode", ["plain", "traced", "corrupt_hook",
                                  "inject_hook"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lifecycle_lands_on_the_pins(family, mode, monkeypatch):
    got = _observe(family, mode, monkeypatch)
    want = dict(PINS[family])
    if mode != "traced":
        del want["spans"]
    assert got == want


def test_user_access_to_an_unclaimed_address_charges_its_crossing():
    """The language crossing is charged, and the event it brings due
    fires, before the lookup raises; the access itself charges nothing."""
    rig = make_8139too_rig(decaf=True)
    rig.insmod()
    kernel, xpc = rig.kernel, rig.xpc
    lang_ns = kernel.costs.xpc_lang_ns
    fired = []
    kernel.events.schedule_after(
        lang_ns // 2, lambda: fired.append(kernel.clock.now_ns))
    before = (kernel.clock.now_ns, dict(kernel.cpu._by_category),
              xpc.lang_crossings, kernel.io.port_accesses)
    with pytest.raises(SimulationError, match="unclaimed port"):
        rig.nucleus.decaf_rt.inb(0xFFF0)
    now, by_category, crossings, ports = before
    assert fired == [now + lang_ns // 2]
    assert kernel.clock.now_ns == now + lang_ns
    by_category["xpc"] += lang_ns
    assert dict(kernel.cpu._by_category) == by_category
    assert (xpc.lang_crossings, kernel.io.port_accesses) == (crossings + 1,
                                                            ports)
    rig.rmmod()


def test_crossing_on_a_failed_channel_charges_nothing():
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    kernel, channel = rig.kernel, rig.channel
    channel.failed = True
    before = (kernel.clock.now_ns, dict(kernel.cpu._by_category),
              channel.xpc.kernel_user_crossings)
    with pytest.raises(DriverFailedError):
        rig.nucleus.down.k_read_config_dword(0)
    assert (kernel.clock.now_ns, dict(kernel.cpu._by_category),
            channel.xpc.kernel_user_crossings) == before
    assert channel.xpc.failed_calls == 1
    channel.failed = False
    rig.rmmod()


def _scalar_downcall_marks(monkeypatch, rig):
    """One scalar downcall, recorded: where its way-in dispatch wait and
    its two 4-byte wire charges begin, relative to the call's start."""
    kernel = rig.kernel
    starts = {}
    consume = type(kernel).consume

    def recording(self, ns, busy=True, category="kernel"):
        starts.setdefault(category, []).append(self.clock.now_ns)
        return consume(self, ns, busy, category)

    with monkeypatch.context() as patch:
        patch.setattr(type(kernel), "consume", recording)
        start = kernel.clock.now_ns
        assert rig.nucleus.down.k_read_config_dword(0) >= 0
    wire_in, wire_back = starts["marshal"]
    return starts["xpc-wait"][0] - start, wire_in - start, wire_back - start


@pytest.mark.parametrize("leg", ["wire_in", "wire_back", "wait"])
def test_an_event_that_raises_inside_a_scalar_downcall(leg, monkeypatch):
    """Downcall containment covers the transfers, the scalar wire's
    charge included: an unchecked exception from an event that charge
    fires marks the driver FAILED and reaches the caller as
    DriverFailedError.  The crossing's own dispatch wait is outside it:
    an event fired there propagates raw, as any kernel-side one does."""
    rig = make_e1000_rig(decaf=True)
    rig.insmod()
    kernel, channel = rig.kernel, rig.channel
    wait, wire_in, wire_back = _scalar_downcall_marks(monkeypatch, rig)
    offset = {"wait": wait, "wire_in": wire_in, "wire_back": wire_back}[leg]

    def fault():
        raise RuntimeError("event fault")

    kernel.events.schedule_at(kernel.clock.now_ns + offset + 1, fault)
    before = channel.xpc.bytes_marshaled
    if leg == "wait":
        with pytest.raises(RuntimeError, match="event fault"):
            rig.nucleus.down.k_read_config_dword(0)
        assert not channel.failed
        assert channel.xpc.bytes_marshaled == before
    else:
        with pytest.raises(DriverFailedError, match="malformed payload"):
            rig.nucleus.down.k_read_config_dword(0)
        assert channel.failed
        assert channel.xpc.boundary_faults == 1
        # The wire is counted before its charge, as the codec path does.
        assert channel.xpc.bytes_marshaled == before + (
            4 if leg == "wire_in" else 8)
