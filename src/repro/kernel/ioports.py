"""Port I/O and memory-mapped I/O.

Device models register handler objects for port ranges and MMIO regions;
drivers use the Linux accessor names (``inb``/``outb``/``inl``/``outl``,
``readl``/``writel``).  Every access charges the virtual clock -- register
access cost is a first-order term in driver initialization latency, which
is one of the quantities Table 3 reports.

Port I/O (``outb`` and friends) is exactly the functionality the paper
calls out as *inexpressible in Java*: it lives in the decaf runtime's C
helper routines.  Our decaf runtime wraps these accessors the same way.
"""

from bisect import bisect_left, bisect_right

from .errors import SimulationError


class IoRegion:
    """A claimed range of port space or MMIO, bound to a device handler.

    The handler must expose ``read(offset, size)`` and
    ``write(offset, value, size)``.
    """

    __slots__ = ("base", "size", "end", "handler", "name", "is_mmio")

    def __init__(self, base, size, handler, name, is_mmio):
        self.base = base
        self.size = size
        # One past the last claimed address: an access [addr, addr+size)
        # hits the region iff base <= addr and addr + size <= end.
        self.end = base + size
        self.handler = handler
        self.name = name
        self.is_mmio = is_mmio


class IoSpace:
    def __init__(self, kernel):
        self._kernel = kernel
        # Regions live in per-space sorted arrays (bases and regions in
        # lockstep) so lookup is a bisect plus a last-hit memo: a fleet
        # kernel claims thousands of regions, and a linear scan per
        # register access dominates its profile.  Index 0 is port
        # space, index 1 MMIO.
        self._bases = ([], [])
        self._sorted = ([], [])
        self._last_hit = [None, None]
        self.port_accesses = 0
        self.mmio_accesses = 0
        # Conformance tap: a callable(op, region_name, offset, size, value)
        # invoked for every register access ("r" after the read returns,
        # "w" before the device sees it).  Offsets are region-relative so
        # identical driver behaviour digests identically even if bus
        # enumeration assigns different bases.
        self.trace_tap = None
        # Fault injection: addr -> forced read value.  A wedged register
        # reads that value and drops writes -- the signature of a hung
        # device (all-ones is what a dead PCI function returns).
        self._wedged = {}

    # -- fault injection (repro.faults) --------------------------------------

    def wedge(self, addr, value=0xFFFFFFFF):
        self._wedged[addr] = value

    def unwedge(self, addr):
        self._wedged.pop(addr, None)

    # -- region management (device/bus side) --------------------------------

    def register(self, base, size, handler, name, is_mmio):
        space = 1 if is_mmio else 0
        bases = self._bases[space]
        regions = self._sorted[space]
        index = bisect_right(bases, base)
        # The sorted array is overlap-free, so only the would-be
        # neighbours can conflict with the new range.
        for neighbour in (regions[index - 1] if index else None,
                          regions[index] if index < len(regions) else None):
            if neighbour is not None and not (
                base + size <= neighbour.base or neighbour.end <= base
            ):
                raise SimulationError(
                    "I/O region %s overlaps existing region %s"
                    % (name, neighbour.name)
                )
        region = IoRegion(base, size, handler, name, is_mmio)
        bases.insert(index, base)
        regions.insert(index, region)
        return region

    def unregister(self, region):
        space = 1 if region.is_mmio else 0
        regions = self._sorted[space]
        index = bisect_left(self._bases[space], region.base)
        if index >= len(regions) or regions[index] is not region:
            raise ValueError("I/O region %s is not registered" % region.name)
        del self._bases[space][index]
        del regions[index]
        if self._last_hit[space] is region:
            self._last_hit[space] = None

    def _find(self, addr, size, space):
        """Region serving [addr, addr+size) in ``space`` (0 port, 1 MMIO).

        Called by read/write only when the last-hit region misses;
        a hit here becomes the new last-hit region.
        """
        index = bisect_right(self._bases[space], addr) - 1
        if index >= 0:
            region = self._sorted[space][index]
            if addr + size <= region.end:
                self._last_hit[space] = region
                return region
        raise SimulationError(
            "access to unclaimed %s address %#x"
            % ("MMIO" if space else "port", addr)
        )

    # -- access primitives ----------------------------------------------------

    # read/write test the last-hit region inline (most register accesses
    # hit the device touched just before) and bisect only on a miss.

    def read(self, addr, size, is_mmio):
        space = 1 if is_mmio else 0
        region = self._last_hit[space]
        if region is None or addr < region.base or addr + size > region.end:
            region = self._find(addr, size, space)
        kernel = self._kernel
        if is_mmio:
            self.mmio_accesses += 1
            kernel.consume(kernel.costs.mmio_ns, busy=True, category="io")
        else:
            self.port_accesses += 1
            kernel.consume(kernel.costs.port_io_ns, busy=True, category="io")
        if self._wedged:
            forced = self._wedged.get(addr)
            if forced is not None:
                return forced & ((1 << (8 * size)) - 1)
        value = region.handler.read(addr - region.base, size)
        mask = (1 << (8 * size)) - 1
        value &= mask
        tap = self.trace_tap
        if tap is not None:
            tap("r", region.name, addr - region.base, size, value)
        return value

    def write(self, addr, value, size, is_mmio):
        space = 1 if is_mmio else 0
        region = self._last_hit[space]
        if region is None or addr < region.base or addr + size > region.end:
            region = self._find(addr, size, space)
        kernel = self._kernel
        if is_mmio:
            self.mmio_accesses += 1
            kernel.consume(kernel.costs.mmio_ns, busy=True, category="io")
        else:
            self.port_accesses += 1
            kernel.consume(kernel.costs.port_io_ns, busy=True, category="io")
        if self._wedged and addr in self._wedged:
            return
        mask = (1 << (8 * size)) - 1
        value &= mask
        tap = self.trace_tap
        if tap is not None:
            tap("w", region.name, addr - region.base, size, value)
        region.handler.write(addr - region.base, value, size)

    # -- Linux-style accessors --------------------------------------------------

    def inb(self, port):
        return self.read(port, 1, is_mmio=False)

    def inw(self, port):
        return self.read(port, 2, is_mmio=False)

    def inl(self, port):
        return self.read(port, 4, is_mmio=False)

    def outb(self, value, port):
        self.write(port, value, 1, is_mmio=False)

    def outw(self, value, port):
        self.write(port, value, 2, is_mmio=False)

    def outl(self, value, port):
        self.write(port, value, 4, is_mmio=False)

    def readb(self, addr):
        return self.read(addr, 1, is_mmio=True)

    def readw(self, addr):
        return self.read(addr, 2, is_mmio=True)

    def readl(self, addr):
        return self.read(addr, 4, is_mmio=True)

    def writeb(self, value, addr):
        self.write(addr, value, 1, is_mmio=True)

    def writew(self, value, addr):
        self.write(addr, value, 2, is_mmio=True)

    def writel(self, value, addr):
        self.write(addr, value, 4, is_mmio=True)
