"""Property-based tests on device-model protocol behaviour."""

import struct

from hypothesis import given, settings, strategies as st

from repro.devices import Ps2MouseDevice, UsbFlashDiskModel
from repro.kernel import make_kernel


class TestPs2MouseProperties:
    @given(moves=st.lists(
        st.tuples(st.integers(-127, 127), st.integers(-127, 127),
                  st.integers(0, 7)),
        min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_packets_decode_to_original_motion(self, moves):
        kernel = make_kernel()
        port = kernel.input.new_serio_port()
        mouse = Ps2MouseDevice(kernel, intellimouse_capable=False)
        mouse.attach(port)
        received = []
        port.open(lambda p, b, f: received.append(b))
        port.write(0xF4)  # enable
        del received[:]
        for dx, dy, buttons in moves:
            mouse.move(dx, dy, buttons=buttons)
        assert len(received) == 3 * len(moves)
        for i, (dx, dy, buttons) in enumerate(moves):
            b0, bdx, bdy = received[3 * i:3 * i + 3]
            assert b0 & 0x07 == buttons
            got_dx = bdx - 256 if b0 & 0x10 else bdx
            got_dy = bdy - 256 if b0 & 0x20 else bdy
            assert got_dx == dx
            assert got_dy == dy

    @given(commands=st.lists(st.integers(0, 255), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_command_stream_never_crashes(self, commands):
        kernel = make_kernel()
        port = kernel.input.new_serio_port()
        mouse = Ps2MouseDevice(kernel)
        mouse.attach(port)
        port.open(lambda p, b, f: None)
        for byte in commands:
            port.write(byte)
        # The device remains responsive afterwards.
        responses = []
        port.driver_interrupt = lambda p, b, f: responses.append(b)
        mouse._awaiting_arg = None
        port.write(0xF2)
        assert responses[0] in (0xFA, 0xFE)


class TestFlashDiskProperties:
    @given(writes=st.lists(
        st.tuples(st.integers(0, 200), st.integers(1, 4),
                  st.integers(0, 255)),
        min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_last_write_wins(self, writes):
        disk = UsbFlashDiskModel()
        expected = {}
        for lba, count, fill in writes:
            payload = bytes([fill]) * (count * 512)
            disk.bulk_out(2, struct.pack("<BBHI", 1, 0, count, lba) + payload)
            for i in range(count):
                expected[lba + i] = bytes([fill]) * 512
        for lba, data in expected.items():
            disk.bulk_out(2, struct.pack("<BBHI", 2, 0, 1, lba))
            assert disk.bulk_in(1, 512) == data

    @given(chunks=st.lists(st.integers(1, 600), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_write_reassembled_from_any_chunking(self, chunks):
        disk = UsbFlashDiskModel()
        payload = bytes(range(256)) * 4  # 2 blocks
        blob = struct.pack("<BBHI", 1, 0, 2, 0) + payload
        # Split the blob at the generated chunk sizes.
        offset = 0
        for size in chunks:
            if offset >= len(blob):
                break
            disk.bulk_out(2, blob[offset:offset + size])
            offset += size
        if offset < len(blob):
            disk.bulk_out(2, blob[offset:])
        assert disk.blocks[0] == payload[:512]
        assert disk.blocks[1] == payload[512:]


class TestSlicerDeterminism:
    def test_partition_is_deterministic(self):
        from repro.slicer import DRIVER_CONFIGS, build_call_graph, partition_driver

        config = DRIVER_CONFIGS["e1000"]
        runs = []
        for _ in range(2):
            graph = build_call_graph(config.load_modules())
            partition = partition_driver(graph, config)
            runs.append((frozenset(partition.kernel_funcs),
                         frozenset(partition.user_entry_points)))
        assert runs[0] == runs[1]

    def test_xdr_spec_is_deterministic(self):
        from repro.drivers.legacy import e1000_main
        from repro.slicer import generate_xdr_spec
        from repro.slicer.xdrgen import driver_struct_classes

        a = generate_xdr_spec(driver_struct_classes([e1000_main]))
        b = generate_xdr_spec(driver_struct_classes([e1000_main]))
        assert a == b
