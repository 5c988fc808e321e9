"""A DAC sink for the ens1371 model that sums the words it plays."""

import struct


class SummingSink:
    """Mod-2**32 sum of the little-endian u32 words fed to it.

    Attach as ``Ens1371Device.dac_sink``.  Every chunk the model hands
    over must be whole words: ``iter_unpack`` raises on a ragged one.
    """

    def __init__(self, checksum=0):
        self.checksum = checksum

    def __call__(self, chunk):
        total = self.checksum + sum(
            word for (word,) in struct.iter_unpack("<I", chunk))
        self.checksum = total & 0xFFFFFFFF
