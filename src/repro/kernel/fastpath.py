"""Stub kept only for the benchmark's traced run; no simulator code uses it.

``perfbench/spans.py`` imports this module and wraps
``FastIo.reader``/``FastIo.writer``, so the class keeps the smallest body
that satisfies that import.  Nothing in ``src/`` may call it: an access
through it is also an ``IoSpace`` access, which the traced run would
count twice and so fail its io-access reconciliation.  The next change
to the benchmark deletes this module (DESIGN.md, "Compiled datapath
(removed)").
"""


class FastIo:
    """Per-register accessors that forward to ``kernel.io``."""

    def __init__(self, kernel, is_mmio):
        self._io = kernel.io
        self._is_mmio = is_mmio

    def reader(self, addr, size):
        io, is_mmio = self._io, self._is_mmio
        return lambda: io.read(addr, size, is_mmio)

    def writer(self, addr, size):
        io, is_mmio = self._io, self._is_mmio
        return lambda value: io.write(addr, value, size, is_mmio)
