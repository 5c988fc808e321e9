"""The reference loop: a fixed piece of interpreter work whose host time
says how fast the host runs Python at this moment.

On a shared host, other tenants slow every process by up to ~2x, in
phases that last from seconds to minutes.  Host seconds then measure
the neighbours as much as the simulator.  The benchmark times this loop
right before and right after each timed phase and expresses the phase
in *reference seconds*: one reference second is the time the host takes
for :data:`LOOPS_PER_REF_S` loops at that moment (about one host second
on a quiet 2-vCPU Intel Xeon VM with CPython 3.11).  A host slowdown
stretches the loop and the phase alike and cancels; a change to the
simulator moves only the phase.

The loop is frozen here and imports nothing from the simulator, so no
change to the program can move it.  Its mix follows the simulator's hot
paths: a heap of pending events dispatched through bound functions,
slotted objects with small register lists, bytes slicing and sha256.
The events land on nodes of a graph of 32768 objects (a few MiB) in
pseudo-random order, so the loop also feels the cache pressure that a
neighbour puts on the simulator's large heap.
"""

import hashlib
import heapq
from time import perf_counter

#: Reference loops per reference second.
LOOPS_PER_REF_S = 50
#: Events one loop dispatches.
EVENTS = 10000
#: What one loop returns; a different value means the loop was changed.
DIGEST = "246ab029"

_NODE_BITS = 15


class _Node:
    __slots__ = ("regs", "peer", "writes")

    def __init__(self, index):
        self.regs = [index] * 8
        self.peer = None
        self.writes = 0


class ReferenceLoop:
    """The loop and the node graph it works on (built once, reused)."""

    def __init__(self):
        mask = (1 << _NODE_BITS) - 1
        self.nodes = [_Node(i) for i in range(mask + 1)]
        for i, node in enumerate(self.nodes):
            node.peer = self.nodes[(i * 7919) & mask]

    def loop(self, events=EVENTS):
        """One reference loop; returns a digest of what it computed."""
        nodes = self.nodes
        mask = len(nodes) - 1
        digest = hashlib.sha256()
        payload = bytes(range(256)) * 6
        queue = []
        state = 1

        def rx(i, node):
            node.regs[i & 7] = i
            node.writes += 1
            digest.update(payload[i & 255:(i & 255) + 64])

        def tick(i, node):
            peer = node.peer
            peer.regs[i & 7] = node.regs[(i + 1) & 7] + 1
            peer.writes += 1

        for i in range(events):
            state = (state * 1103515245 + 12345) & 0x7fffffff
            heapq.heappush(queue, (state & 1023, i, rx if i & 1 else tick,
                                   nodes[state & mask]))
            if len(queue) > 32:
                _when, j, fn, node = heapq.heappop(queue)
                fn(j, node)
        return digest.hexdigest()[:8]

    def probe(self):
        """Host seconds of one reference loop, timed now."""
        t0 = perf_counter()
        out = self.loop()
        elapsed = perf_counter() - t0
        if out != DIGEST:
            raise RuntimeError("reference loop computed %s, not %s"
                               % (out, DIGEST))
        return elapsed


def ref_seconds(host_s, loop_s):
    """``host_s`` host seconds in reference seconds, given that one
    reference loop took ``loop_s`` host seconds around them."""
    return host_s / (LOOPS_PER_REF_S * loop_s)
