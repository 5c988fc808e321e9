"""The words the ens1371 model plays, against the per-word reference.

``Ens1371Device._consume_audio`` hands an attached ``dac_sink`` one
``bytes`` per contiguous pass over the DMA ring.  A summing sink fed
those chunks must agree with the per-word loop below on the checksum,
and the model on the ring position, for every ring size, starting
position (aligned or not), period length (including 8-bit/mono lengths
that are not multiples of 4), window running past the region end, and
for a missing region.  With no sink attached, a period advances the
same position without reading the ring.
"""

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.devices.ens1371 import Ens1371Device  # noqa: E402
from tests.devices.audio_sink import SummingSink  # noqa: E402


class _Region:
    """A DMA region stand-in that counts every read of its bytes."""

    def __init__(self, data):
        self._data = data
        self.reads = 0

    @property
    def data(self):
        self.reads += 1
        return self._data


class _Memory:
    def __init__(self, region, offset):
        self.region = region
        self.offset = offset

    def dma_find(self, addr):
        if self.region is None:
            return None, 0
        return self.region, self.offset


class _Events:
    def recurring(self, callback, name=None):
        return None


class _Kernel:
    events = _Events()

    def __init__(self, memory):
        self.memory = memory


def reference_consume_audio(dev, nbytes, checksum):
    """One period as a per-word loop; returns the checksum with it added.

    A word that runs past the end of the DMA region reads as 0.
    """
    region, off = dev._kernel.memory.dma_find(dev.dac2_frame_addr)
    if region is None:
        return checksum
    size_bytes = (dev.dac2_frame_size + 1) * 4
    for i in range(0, nbytes, 4):
        pos = (dev.dac2_pos_bytes + i) % size_bytes
        word = struct.unpack_from("<I", region.data, off + pos)[0] \
            if off + pos + 4 <= len(region.data) else 0
        checksum = (checksum + word) & 0xFFFFFFFF
    dev.dac2_pos_bytes = (dev.dac2_pos_bytes + nbytes) % size_bytes
    return checksum


def _device(data, offset, frame_size, pos):
    region = None if data is None else _Region(bytearray(data))
    dev = Ens1371Device(_Kernel(_Memory(region, offset)))
    dev.dac2_frame_addr = 0x1000
    dev.dac2_frame_size = frame_size
    dev.dac2_pos_bytes = pos
    return dev, region


def _both(data, offset, frame_size, pos, checksum, nbytes):
    """(checksum, position) from the reference and from a summing sink.

    Also plays the period with no sink attached, which must land on the
    sink run's position without reading the region.
    """
    dev, _ = _device(data, offset, frame_size, pos)
    reference = (reference_consume_audio(dev, nbytes, checksum),
                 dev.dac2_pos_bytes)
    dev, _ = _device(data, offset, frame_size, pos)
    dev.dac_sink = sink = SummingSink(checksum)
    dev._consume_audio(nbytes)
    summed = (sink.checksum, dev.dac2_pos_bytes)
    dev, region = _device(data, offset, frame_size, pos)
    dev._consume_audio(nbytes)
    assert dev.dac2_pos_bytes == summed[1]
    assert region is None or region.reads == 0
    return reference, summed


@settings(max_examples=400)
@given(
    data=st.one_of(st.none(), st.binary(min_size=0, max_size=512)),
    offset=st.integers(min_value=0, max_value=160),
    frame_size=st.integers(min_value=0, max_value=48),
    pos=st.integers(min_value=0, max_value=400),
    checksum=st.integers(min_value=0, max_value=0xFFFFFFFF),
    nbytes=st.integers(min_value=-4, max_value=900),
)
def test_bulk_sum_matches_per_word_loop(data, offset, frame_size, pos,
                                        checksum, nbytes):
    reference, summed = _both(data, offset, frame_size, pos, checksum, nbytes)
    assert summed == reference


@pytest.mark.parametrize("case", [
    # (region bytes, offset, frame_size, pos, checksum, nbytes)
    pytest.param((64, 0, 7, 24, 0, 16), id="wrap-at-ring-end"),
    pytest.param((64, 0, 7, 0, 0, 100), id="many-passes"),
    pytest.param((64, 0, 7, 5, 0, 13), id="unaligned-pos-odd-nbytes"),
    pytest.param((40, 8, 15, 20, 0, 64), id="window-past-region-end"),
    pytest.param((64, 0, 7, 0, 0xFFFFFFF0, 32), id="checksum-wraps"),
    pytest.param((64, 0, 3, 0, 0, 0), id="empty-period"),
])
def test_bulk_sum_edges(case):
    size, offset, frame_size, pos, checksum, nbytes = case
    data = bytes((i * 37 + 11) & 0xFF for i in range(size))
    reference, summed = _both(data, offset, frame_size, pos, checksum, nbytes)
    assert summed == reference


def test_missing_region_leaves_state_untouched():
    reference, summed = _both(None, 0, 7, 12, 0x1234, 64)
    assert summed == reference == (0x1234, 12)


def test_no_sink_leaves_the_window_unread():
    """Nobody listening: the period reads no byte of the DMA ring."""
    dev, region = _device(bytes(range(64)), 0, 15, 8)
    for _ in range(5):
        dev._consume_audio(24)
    assert dev.dac2_pos_bytes == (8 + 5 * 24) % 64
    assert region.reads == 0
