"""Two devices, one driver: a device's results must not depend on a peer.

One kernel carries two devices of a family, each probed by its own
slot module, and both modules bind the one Python driver module.  Both
move traffic, then the first is removed and the second keeps going.
The survivor's device-visible results -- ring and register state, the
digest of what crossed its wire, disk or input line, and its traffic
counters -- must equal those of the same device driven alone on a fresh
kernel over the same schedule.  Per-device driver state is what makes
that hold: state kept per driver instead would be torn down with the
first device.
"""

import hashlib

import pytest

from repro.family import FAMILIES
from repro.fleet.slots import DeviceSlot
from repro.kernel import make_kernel

ROUNDS = 6
STEP_MS = 20


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(bytes(item) if not isinstance(item, tuple)
                 else repr(item).encode())
    return h.hexdigest()[:16]


def _taps(kernel, slot):
    """Record what crosses the survivor's wire, stack and input line."""
    log = {"tx": [], "rx": [], "input": []}
    if slot.link is not None:
        slot.link.peer_rx = log["tx"].append

        def rx_sink(dev, skb):
            if dev is slot.endpoint:
                log["rx"].append(bytes(skb.data))

        kernel.net.rx_sink = rx_sink
    return log


def _observe(slot, log):
    family, dev = slot.family.key, slot.device
    obs = {"units": slot.traffic_units, "lost": slot.traffic_lost,
           "tx": (len(log["tx"]), _digest(log["tx"])),
           "rx": (len(log["rx"]), _digest(log["rx"])),
           "input": (len(log["input"]), _digest(log["input"]))}
    if family == "e1000":
        from repro.devices import e1000 as m

        obs["regs"] = [dev.regs.get(off, 0) for off in (
            m.REG_RDH, m.REG_RDT, m.REG_TDH, m.REG_TDT, m.REG_RCTL,
            m.REG_TCTL, m.REG_RAL0, m.REG_RAH0)]
        obs["frames"] = [dev.frames_transmitted, dev.frames_received]
    elif family == "8139too":
        from repro.devices import rtl8139 as m

        obs["regs"] = [bytes(dev.regs[m.IDR0:m.IDR0 + 6]),
                       dev._reg16(m.CAPR), dev._reg32(m.TCR),
                       dev._reg32(m.RCR)]
        obs["frames"] = [dev.frames_transmitted, dev.frames_received]
    elif family == "ens1371":
        obs["regs"] = [dev.control, dev.sctrl, dev.dac2_frame_size,
                       list(dev.codec_regs), list(dev.src_ram)]
    elif family == "uhci_hcd":
        disk = slot.extra["disk"]
        obs["disk"] = (disk.writes, _digest(
            (lba, bytes(block)) for lba, block in sorted(disk.blocks.items())))
        obs["regs"] = [dev.tds_completed, list(dev.portsc)]
    else:
        obs["regs"] = [dev.device_id, dev.sample_rate, dev.resolution,
                       dev.reporting, dev.packets_sent]
    return obs


def _drive(family, decaf, with_peer):
    kernel = make_kernel(nr_cpus=1, nr_irqs=16, sound_use_mutex=True)
    peer = DeviceSlot(0, decaf, family).attach(kernel) if with_peer else None
    slot = DeviceSlot(1, decaf, family).attach(kernel)
    log = _taps(kernel, slot)
    if peer is not None:
        peer.probe()
    slot.probe()
    if slot.family.key == "psmouse":
        slot.endpoint.sink = lambda events: log["input"].extend(
            tuple(ev) for ev in events)
    for _ in range(ROUNDS):
        if peer is not None:
            peer.tick()
        slot.tick()
        kernel.run_for_ms(STEP_MS)
    if peer is not None:
        peer.remove()
    for _ in range(ROUNDS):
        slot.tick()
        kernel.run_for_ms(STEP_MS)
    kernel.run_for_ms(5 * STEP_MS)
    obs = _observe(slot, log)
    slot.remove()
    assert not kernel.modules.loaded
    assert not [r for r in kernel.memory.live_allocations()
                if not r.owner.startswith("skb-pool")]
    return obs


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("decaf", [False, True], ids=["legacy", "decaf"])
def test_survivor_matches_a_lone_device(family, decaf):
    paired = _drive(family, decaf, with_peer=True)
    assert paired["units"] > 0
    assert paired == _drive(family, decaf, with_peer=False)
