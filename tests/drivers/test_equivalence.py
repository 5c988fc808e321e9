"""Native/decaf equivalence: the converted driver behaves identically.

The paper's migration story depends on the decaf driver being a
behaviour-preserving rewrite; these tests drive both stacks through
the same scenario and compare what the *device* and the *application*
observe.
"""

import struct

import pytest

from repro.family import pcm_data
from repro.kernel import SkBuff
from repro.kernel.sound import SNDRV_PCM_TRIGGER_START, SNDRV_PCM_TRIGGER_STOP
from repro.kernel.usb import usb_sndbulkpipe
from tests.conftest import xmit_all
from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
)


def _nic_scenario(rig):
    rig.insmod()
    dev = rig.netdev()
    assert rig.kernel.net.dev_open(dev) == 0
    rig.kernel.run_for_ms(60)
    sent, got = [], []
    rig.link.peer_rx = lambda f: sent.append(f)
    rig.kernel.net.rx_sink = lambda d, s: got.append(s.data)
    xmit_all(rig, dev, [bytes([i]) * (100 + 7 * i) for i in range(25)])
    for i in range(25):
        rig.link.inject(bytes([0x40 + i]) * (80 + 5 * i))
    rig.kernel.run_for_ms(20)
    stats = dev.stats.snapshot()
    mac = dev.dev_addr
    rig.kernel.net.dev_close(dev)
    return {"sent": sent, "got": got, "stats": stats, "mac": mac}


@pytest.mark.parametrize("make_rig", [make_8139too_rig, make_e1000_rig],
                         ids=["8139too", "e1000"])
def test_nic_behaviour_identical(make_rig):
    native = _nic_scenario(make_rig(decaf=False))
    decaf = _nic_scenario(make_rig(decaf=True))
    assert native["mac"] == decaf["mac"]
    assert native["sent"] == decaf["sent"]
    assert native["got"] == decaf["got"]
    for key in ("tx_packets", "rx_packets", "tx_bytes", "rx_bytes"):
        assert native["stats"][key] == decaf["stats"][key], key


def _sound_scenario(rig):
    rig.insmod()
    sound = rig.kernel.sound
    ss = sound.cards[0].pcms[0].playback
    assert sound.pcm_open(ss) == 0
    assert sound.pcm_hw_params(ss, 44100, 2, 2, 4096, 4) == 0
    assert sound.pcm_prepare(ss) == 0
    assert sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_START) == 0
    written = sound.pcm_write(ss, pcm_data(44100 * 4))
    sound.pcm_trigger(ss, SNDRV_PCM_TRIGGER_STOP)
    sound.pcm_close(ss)
    return {
        "written": written,
        "periods": ss.runtime.periods_elapsed,
        "device_irqs": rig.device.period_interrupts,
        "rate": rig.device.src_ram[0x75 % 128],
        "codec_master": rig.device.codec_regs[0x02],
    }


def test_sound_behaviour_identical():
    native = _sound_scenario(make_ens1371_rig(decaf=False))
    decaf = _sound_scenario(make_ens1371_rig(decaf=True))
    assert native == decaf


def _usb_scenario(rig):
    rig.insmod()
    dev = rig.kernel.usb.devices[0]
    for i in range(8):
        payload = bytes([i]) * 512
        cmd = struct.pack("<BBHI", 1, 0, 1, i) + payload
        status, _n = rig.kernel.usb.usb_bulk_msg(
            dev, usb_sndbulkpipe(dev, 2), cmd)
        assert status == 0
    return dict(rig.extra["disk"].blocks)


def test_usb_disk_contents_identical():
    native = _usb_scenario(make_uhci_rig(decaf=False))
    decaf = _usb_scenario(make_uhci_rig(decaf=True))
    assert native == decaf


def _mouse_scenario(rig):
    rig.insmod()
    events = []
    rig.kernel.input.devices[0].sink = lambda evs: events.extend(evs)
    moves = [(3, -2, 1), (-7, 5, 0), (127, -127, 4), (1, 1, 2)]
    for dx, dy, buttons in moves:
        rig.device.move(dx, dy, buttons=buttons, wheel=1)
    return {
        "events": events,
        "rate": rig.device.sample_rate,
        "resolution": rig.device.resolution,
        "id": rig.device.device_id,
    }


def test_mouse_behaviour_identical():
    native = _mouse_scenario(make_psmouse_rig(decaf=False))
    decaf = _mouse_scenario(make_psmouse_rig(decaf=True))
    assert native == decaf
