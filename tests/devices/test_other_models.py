"""ens1371, UHCI + flash disk, and PS/2 mouse device models."""

import struct

import pytest

from repro.devices import (
    Ens1371Device,
    Ps2MouseDevice,
    UhciDevice,
    UsbFlashDiskModel,
)
from repro.devices import ens1371 as ens_mod
from repro.devices import uhci as uhci_mod
from repro.devices import ps2mouse as ps2_mod
from repro.kernel import make_kernel


@pytest.fixture
def ens_rig():
    kernel = make_kernel()
    snd = Ens1371Device(kernel)
    kernel.pci.add_function(snd.pci)
    kernel.pci.request_regions(snd.pci, "t")
    return kernel, snd, snd.pci.resource_start(0)


class TestEns1371Codec:
    def test_codec_read_vendor(self, ens_rig):
        kernel, snd, base = ens_rig
        kernel.io.outl((0x7C << 16) | ens_mod.CODEC_PIRD,
                       base + ens_mod.REG_CODEC)
        v = kernel.io.inl(base + ens_mod.REG_CODEC)
        assert v & ens_mod.CODEC_RDY
        assert v & 0xFFFF == 0x4352

    def test_codec_write_then_read(self, ens_rig):
        kernel, snd, base = ens_rig
        kernel.io.outl((0x02 << 16) | 0x1F1F, base + ens_mod.REG_CODEC)
        kernel.io.outl((0x02 << 16) | ens_mod.CODEC_PIRD,
                       base + ens_mod.REG_CODEC)
        assert kernel.io.inl(base + ens_mod.REG_CODEC) & 0xFFFF == 0x1F1F

    def test_src_rate_programming(self, ens_rig):
        kernel, snd, base = ens_rig
        reg = 0x75 % 128
        kernel.io.outl((reg << 25) | (1 << 24) | 48000,
                       base + ens_mod.REG_SRC)
        assert snd.src_ram[reg] == 48000


class TestEns1371Playback:
    def _start(self, kernel, snd, base, rate=44100, period_frames=1024,
               periods=4):
        buf = kernel.memory.dma_alloc_coherent(period_frames * 4 * periods)
        kernel.io.outl((0x75 << 25) | (1 << 24) | rate,
                       base + ens_mod.REG_SRC)
        kernel.io.outl(ens_mod.MEMPAGE_DAC2, base + ens_mod.REG_MEMPAGE)
        kernel.io.outl(buf.dma_addr, base + ens_mod.REG_DAC2_FRAME_ADDR)
        kernel.io.outl(period_frames * periods - 1,
                       base + ens_mod.REG_DAC2_FRAME_SIZE)
        kernel.io.outl(period_frames - 1, base + ens_mod.REG_DAC2_SCOUNT)
        sctrl = (ens_mod.SCTRL_P2_INTR_EN | ens_mod.SCTRL_P2_SMB
                 | ens_mod.SCTRL_P2_SSB)
        kernel.io.outl(sctrl, base + ens_mod.REG_SCTRL)
        kernel.io.outl(ens_mod.CTRL_DAC2_EN, base + ens_mod.REG_CONTROL)
        return buf

    def test_period_interrupt_cadence(self, ens_rig):
        kernel, snd, base = ens_rig
        fired = []
        kernel.irq.request_irq(snd.irq, lambda i, d: fired.append(
            kernel.now_ns()) or 1, "t")
        self._start(kernel, snd, base)
        kernel.run_for_s(1.0)
        # 44100 Hz / 1024-sample periods ~= 43 interrupts per second.
        assert 40 <= len(fired) <= 46

    def test_stop_stops_interrupts(self, ens_rig):
        kernel, snd, base = ens_rig
        self._start(kernel, snd, base)
        kernel.run_for_ms(100)
        count = snd.period_interrupts
        kernel.io.outl(0, base + ens_mod.REG_CONTROL)  # DAC2 off
        kernel.run_for_ms(100)
        assert snd.period_interrupts == count

    def test_audio_actually_consumed(self, ens_rig):
        kernel, snd, base = ens_rig
        buf = self._start(kernel, snd, base)
        buf.data[0:4] = struct.pack("<I", 0x11223344)
        kernel.run_for_ms(100)
        # Four 1024-frame periods in 100 ms, one full pass of the ring:
        # the checksum is the sum of its words, i.e. the one written.
        assert snd.samples_consumed == 4096
        assert snd.audio_checksum == 0x11223344


class TestUhci:
    def _rig(self):
        kernel = make_kernel()
        hc = UhciDevice(kernel)
        disk = UsbFlashDiskModel(address=1)
        hc.attach(0, disk)
        kernel.pci.add_function(hc.pci)
        kernel.pci.request_regions(hc.pci, "t")
        return kernel, hc, disk, hc.pci.resource_start(0)

    def test_port_status_reflects_attachment(self):
        kernel, hc, disk, base = self._rig()
        sc = kernel.io.inw(base + uhci_mod.PORTSC1)
        assert sc & uhci_mod.PORT_CCS
        assert sc & uhci_mod.PORT_CSC
        sc2 = kernel.io.inw(base + uhci_mod.PORTSC2)
        assert not sc2 & uhci_mod.PORT_CCS

    def test_port_reset_enables(self):
        kernel, hc, disk, base = self._rig()
        kernel.io.outw(uhci_mod.PORT_PR, base + uhci_mod.PORTSC1)
        kernel.io.outw(0, base + uhci_mod.PORTSC1)
        assert kernel.io.inw(base + uhci_mod.PORTSC1) & uhci_mod.PORT_PE

    def test_frame_counter_advances_when_running(self):
        kernel, hc, disk, base = self._rig()
        fl = kernel.memory.dma_alloc_coherent(
            uhci_mod.TD_RING_ENTRIES * uhci_mod.TD_SIZE)
        kernel.io.outl(fl.dma_addr, base + uhci_mod.FLBASEADD)
        kernel.io.outw(uhci_mod.CMD_RS, base + uhci_mod.USBCMD)
        kernel.run_for_ms(10)
        assert kernel.io.inw(base + uhci_mod.FRNUM) == 10
        assert not kernel.io.inw(base + uhci_mod.USBSTS) & uhci_mod.STS_HCHALTED

    def test_td_execution_bandwidth_limited(self):
        """A 4 KB transfer takes several 1 ms frames at USB 1.1 speed."""
        kernel, hc, disk, base = self._rig()
        # Enable the port so the device is addressable.
        kernel.io.outw(uhci_mod.PORT_PR, base + uhci_mod.PORTSC1)
        kernel.io.outw(0, base + uhci_mod.PORTSC1)
        fl = kernel.memory.dma_alloc_coherent(
            uhci_mod.TD_RING_ENTRIES * uhci_mod.TD_SIZE)
        payload = struct.pack("<BBHI", 1, 0, 8, 0) + bytes(8 * 512)
        data = kernel.memory.dma_alloc_coherent(len(payload))
        data.data[0:len(payload)] = payload
        offset = 0
        slot = 0
        while offset < len(payload):
            chunk = min(512, len(payload) - offset)
            struct.pack_into("<IHBBBBH", fl.data, slot * uhci_mod.TD_SIZE,
                             data.dma_addr + offset, chunk,
                             uhci_mod.TD_ACTIVE, 1, 2, 0, 0)
            offset += chunk
            slot += 1
        kernel.io.outl(fl.dma_addr, base + uhci_mod.FLBASEADD)
        kernel.io.outw(uhci_mod.CMD_RS, base + uhci_mod.USBCMD)
        kernel.run_for_ms(1)
        # ~1216 bytes/frame: after 1 frame not all TDs are done.
        flags_last = fl.data[(slot - 1) * uhci_mod.TD_SIZE + 6]
        assert not flags_last & uhci_mod.TD_DONE
        kernel.run_for_ms(10)
        flags_last = fl.data[(slot - 1) * uhci_mod.TD_SIZE + 6]
        assert flags_last & uhci_mod.TD_DONE
        assert disk.blocks[0] == bytes(512)


class TestFlashDisk:
    def test_write_then_read(self):
        disk = UsbFlashDiskModel()
        payload = bytes(range(256)) * 2
        disk.bulk_out(2, struct.pack("<BBHI", 1, 0, 1, 7) + payload)
        assert disk.blocks[7] == payload
        disk.bulk_out(2, struct.pack("<BBHI", 2, 0, 1, 7))
        assert disk.bulk_in(1, 512) == payload

    def test_write_split_across_transfers(self):
        disk = UsbFlashDiskModel()
        payload = bytes([0xAB]) * 1024
        header = struct.pack("<BBHI", 1, 0, 2, 0)
        blob = header + payload
        disk.bulk_out(2, blob[:400])
        disk.bulk_out(2, blob[400:900])
        disk.bulk_out(2, blob[900:])
        assert disk.blocks[0] == payload[:512]
        assert disk.blocks[1] == payload[512:]

    def test_read_unwritten_block_is_zero(self):
        disk = UsbFlashDiskModel()
        disk.bulk_out(2, struct.pack("<BBHI", 2, 0, 1, 99))
        assert disk.bulk_in(1, 512) == bytes(512)


class TestPs2Mouse:
    def _rig(self):
        kernel = make_kernel()
        port = kernel.input.new_serio_port()
        mouse = Ps2MouseDevice(kernel)
        mouse.attach(port)
        received = []
        port.open(lambda p, b, f: received.append(b))
        return kernel, port, mouse, received

    def test_reset_sequence(self):
        kernel, port, mouse, rx = self._rig()
        port.write(0xFF)
        assert rx == [0xFA, 0xAA, 0x00]
        assert mouse.resets == 1

    def test_get_id_before_knock(self):
        kernel, port, mouse, rx = self._rig()
        port.write(0xF2)
        assert rx == [0xFA, 0x00]

    def test_intellimouse_knock(self):
        kernel, port, mouse, rx = self._rig()
        for rate in (200, 100, 80):
            port.write(0xF3)
            port.write(rate)
        del rx[:]
        port.write(0xF2)
        assert rx == [0xFA, 0x03]

    def test_wrong_knock_stays_standard(self):
        kernel, port, mouse, rx = self._rig()
        for rate in (200, 200, 80):  # explorer knock on a non-explorer
            port.write(0xF3)
            port.write(rate)
        del rx[:]
        port.write(0xF2)
        assert rx == [0xFA, 0x03] or rx == [0xFA, 0x00]

    def test_no_reports_until_enabled(self):
        kernel, port, mouse, rx = self._rig()
        assert mouse.move(1, 1) is False
        port.write(0xF4)
        del rx[:]
        assert mouse.move(1, 1) is True
        assert len(rx) == 3  # standard 3-byte packet

    def test_four_byte_packets_after_upgrade(self):
        kernel, port, mouse, rx = self._rig()
        for rate in (200, 100, 80):
            port.write(0xF3)
            port.write(rate)
        port.write(0xF4)
        del rx[:]
        mouse.move(2, 3, wheel=-1)
        assert len(rx) == 4

    def test_negative_motion_sign_bits(self):
        kernel, port, mouse, rx = self._rig()
        port.write(0xF4)
        del rx[:]
        mouse.move(-5, -7)
        b0, dx, dy = rx
        assert b0 & 0x10 and b0 & 0x20
        assert dx == (-5) & 0xFF and dy == (-7) & 0xFF

    def test_unknown_command_nak(self):
        kernel, port, mouse, rx = self._rig()
        port.write(0x42)
        assert rx == [0xFE]
