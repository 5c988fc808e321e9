"""The ens1371 model's bulk DMA sum against the per-word reference.

``Ens1371Device._consume_audio`` folds a period of the DMA ring into
``audio_checksum`` with one C-level sum per contiguous run.  The
reference below is the original per-word loop; both must agree on the
checksum and the ring position for every ring size, starting position
(aligned or not), period length (including 8-bit/mono lengths that are
not multiples of 4), window running past the region end, and for a
missing region.
"""

import struct

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.devices.ens1371 import Ens1371Device  # noqa: E402


class _Region:
    def __init__(self, data):
        self.data = data


class _Memory:
    def __init__(self, region, offset):
        self.region = region
        self.offset = offset

    def dma_find(self, addr):
        if self.region is None:
            return None, 0
        return self.region, self.offset


class _Kernel:
    def __init__(self, memory):
        self.memory = memory


def reference_consume_audio(dev, nbytes):
    """The per-word loop the bulk sum replaced."""
    region, off = dev._kernel.memory.dma_find(dev.dac2_frame_addr)
    if region is None:
        return
    size_bytes = (dev.dac2_frame_size + 1) * 4
    for i in range(0, nbytes, 4):
        pos = (dev.dac2_pos_bytes + i) % size_bytes
        word = struct.unpack_from("<I", region.data, off + pos)[0] \
            if off + pos + 4 <= len(region.data) else 0
        dev.audio_checksum = (dev.audio_checksum + word) & 0xFFFFFFFF
    dev.dac2_pos_bytes = (dev.dac2_pos_bytes + nbytes) % size_bytes


def _device(memory, frame_size, pos, checksum):
    dev = Ens1371Device.__new__(Ens1371Device)
    dev._kernel = _Kernel(memory)
    dev.dac2_frame_addr = 0x1000
    dev.dac2_frame_size = frame_size
    dev.dac2_pos_bytes = pos
    dev.audio_checksum = checksum
    return dev


def _both(data, offset, frame_size, pos, checksum, nbytes):
    region = None if data is None else _Region(bytearray(data))
    out = []
    for consume in (reference_consume_audio, Ens1371Device._consume_audio):
        dev = _device(_Memory(region, offset), frame_size, pos, checksum)
        consume(dev, nbytes)
        out.append((dev.audio_checksum, dev.dac2_pos_bytes))
    return out


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
    reference, bulk = _both(data, offset, frame_size, pos, checksum, nbytes)
    assert bulk == reference


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
    reference, bulk = _both(data, offset, frame_size, pos, checksum, nbytes)
    assert bulk == reference


def test_missing_region_leaves_state_untouched():
    reference, bulk = _both(None, 0, 7, 12, 0x1234, 64)
    assert bulk == reference == (0x1234, 12)
