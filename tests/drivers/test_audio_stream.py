"""The bytes an application writes are the bytes the DAC plays.

``SoundCore.pcm_write`` copies each accepted chunk into the substream's
DMA ring at the application pointer, and the ens1371 model hands the
words it plays to an attached ``dac_sink``; through either driver the
played stream is the written one, up to the length played.
"""

import pytest

from repro.family import PCM_PATTERN, pcm_data
from repro.workloads import make_ens1371_rig


def test_pattern_is_non_zero_and_repeats():
    assert 0 not in PCM_PATTERN
    data = pcm_data(3 * len(PCM_PATTERN) + 7)
    assert data == (PCM_PATTERN * 4)[:len(data)]


@pytest.mark.parametrize("decaf", [False, True], ids=["legacy", "decaf"])
def test_dac_plays_the_written_stream(decaf):
    rig = make_ens1371_rig(decaf=decaf)
    rig.insmod()
    played = bytearray()
    rig.device.dac_sink = played.extend
    family = rig.family
    family.open(rig)
    assert family.start(rig) == 0
    sound = rig.kernel.sound
    ring = rig.endpoint.runtime.buffer_bytes
    written = bytearray()
    # Lengths that are not multiples of a word, a period or the ring,
    # so chunks land at every alignment and wrap mid-write.
    for nbytes in (1001, family.PERIOD_BYTES, 5003, ring + 3) * 4:
        assert sound.pcm_write(rig.endpoint, pcm_data(nbytes)) == nbytes
        written += pcm_data(nbytes)
    family.close(rig)
    # Everything but the last ring's worth has been played.
    assert len(played) >= len(written) - ring
    n = min(len(played), len(written))
    assert played[:n] == written[:n]
    rig.rmmod()
