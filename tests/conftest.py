"""Shared fixtures for the test suite."""

import contextlib
import gc
import random
import weakref

import pytest

from repro.kernel import make_kernel
from repro.kernel.memory import DmaRegion

try:
    from hypothesis import settings as _hypothesis_settings

    # Determinism audit: property tests draw the same examples on every
    # run, so a red CI is reproducible locally with no shrink-database
    # or wall-clock coupling.
    _hypothesis_settings.register_profile("deterministic",
                                          derandomize=True, deadline=None)
    _hypothesis_settings.load_profile("deterministic")
except ImportError:  # pragma: no cover - hypothesis is optional
    pass


@pytest.fixture
def rng():
    """A seeded RNG: tests that need randomness share this instead of
    the global ``random`` module, so runs are reproducible."""
    return random.Random(0xDECAF)


@pytest.fixture
def kernel():
    """A fresh fully-wired simulated kernel."""
    return make_kernel()


@pytest.fixture
def mutex_kernel():
    """A kernel with the paper's mutex-based sound library."""
    return make_kernel(sound_use_mutex=True)


def xmit_all(rig, dev, frames):
    """Send every frame, pumping virtual time when the queue is full."""
    from repro.kernel import NETDEV_TX_OK, SkBuff

    for frame in frames:
        for _attempt in range(10_000):
            if not dev.netif_queue_stopped():
                if rig.kernel.net.dev_queue_xmit(dev, SkBuff(frame)) == NETDEV_TX_OK:
                    break
            nxt = rig.kernel.events.peek_time()
            if nxt is None:
                raise AssertionError("queue stuck with no pending events")
            rig.kernel.run_until(nxt)
        else:
            raise AssertionError("could not transmit after 10k attempts")


@contextlib.contextmanager
def freed_dma_regions(kernel):
    """Collect weakrefs to the DMA regions freed inside the block.

    Only regions live on entry are seen.  A region costs tracemalloc a
    few bytes however large it is (its backing is an anonymous mmap),
    so leak tests check that freed regions die instead.
    """
    live = [weakref.ref(r) for r in kernel.memory.live_allocations()
            if isinstance(r, DmaRegion)]
    freed = []
    yield freed
    freed.extend(ref for ref in live if ref() is None or ref().freed)


def uncollected(refs):
    """The objects behind ``refs`` that survive a full collection."""
    gc.collect()
    return [obj for obj in (ref() for ref in refs) if obj is not None]
