"""Virtual time.

Every cost in the simulation -- register accesses, domain crossings,
marshaling, packet processing, explicit delays -- advances one deterministic
virtual clock.  Wall-clock performance of the host Python process is
irrelevant; benchmarks report virtual seconds, which makes results exactly
reproducible run to run.

CPU accounting distinguishes *busy* virtual time (the CPU was executing
driver or kernel code) from *idle* time (sleeping, waiting for the device).
CPU utilization over a window is busy/elapsed, matching how the paper
reports utilization for its workloads.
"""

from collections import defaultdict

from .errors import SimulationError

NSEC_PER_USEC = 1_000
NSEC_PER_MSEC = 1_000_000
NSEC_PER_SEC = 1_000_000_000


class VirtualClock:
    """A monotonic nanosecond clock advanced only by the simulator."""

    def __init__(self):
        self._now_ns = 0

    @property
    def now_ns(self):
        return self._now_ns

    @property
    def now_us(self):
        return self._now_ns / NSEC_PER_USEC

    @property
    def now_ms(self):
        return self._now_ns / NSEC_PER_MSEC

    @property
    def now_s(self):
        return self._now_ns / NSEC_PER_SEC

    def _set(self, t_ns):
        if t_ns < self._now_ns:
            raise SimulationError(
                "virtual clock moved backwards: %d -> %d" % (self._now_ns, t_ns)
            )
        self._now_ns = t_ns


class CpuAccounting:
    """Tracks busy virtual time, attributed to named categories.

    A measurement window is opened with :meth:`start_window`; utilization
    and per-category charges are read back relative to that window.
    """

    def __init__(self, clock):
        self._clock = clock
        self._busy_ns = 0
        # category -> ns; a defaultdict so every charge site adds with
        # one ``+=`` (a first charge inserts the key, as .get would).
        self._by_category = defaultdict(int)
        self._window_start_ns = 0
        self._window_busy_start_ns = 0

    @property
    def busy_ns(self):
        return self._busy_ns

    def charge(self, ns, category="kernel"):
        """Record ``ns`` of busy CPU time against ``category``."""
        if ns < 0:
            raise SimulationError("negative CPU charge: %d" % ns)
        self._busy_ns += ns
        self._by_category[category] += ns

    def category_ns(self, category):
        return self._by_category.get(category, 0)

    def start_window(self):
        self._window_start_ns = self._clock.now_ns
        self._window_busy_start_ns = self._busy_ns

    def window_elapsed_ns(self):
        return self._clock.now_ns - self._window_start_ns

    def window_busy_ns(self):
        return self._busy_ns - self._window_busy_start_ns

    def utilization(self):
        """Fraction of the current window the CPU was busy (0.0--1.0)."""
        elapsed = self.window_elapsed_ns()
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.window_busy_ns() / elapsed)
