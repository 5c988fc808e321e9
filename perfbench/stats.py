"""Order statistics and the host fingerprint for benchmark results."""

import gc
import os
import platform
import statistics
from array import array

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def group_rates(reps, group, amount, seconds):
    """``amount(rep)`` per ``seconds(rep)``, summed over each whole group
    of ``group`` consecutive repetitions; one rate per group."""
    rates = []
    for i in range(0, len(reps) - group + 1, group):
        chunk = reps[i:i + group]
        rates.append(sum(amount(r) for r in chunk)
                     / sum(seconds(r) for r in chunk))
    return rates


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Nearest-rank definition: with ``n`` samples the value at rank
    ``n - beyond`` (1-based) has exactly ``beyond`` samples ranked
    beyond it, and is the ``100 * (n - beyond) / n`` percentile.
    Returns ``(value, percentile, n)``, or None when there are too few
    samples for any percentile to qualify.
    """
    n = len(samples)
    if n <= beyond:
        return None
    rank = n - beyond
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


class UnitTimes:
    """Per-unit times pooled across repetitions and summarized in blocks
    of ``block`` consecutive units.  Only each full block's median and
    :func:`tail` are kept, so memory does not grow with run length."""

    def __init__(self, block, beyond=TAIL_BEYOND):
        self.block = block
        self.beyond = beyond
        self.pending = array("d")
        self.p50s, self.tails = [], []
        self.percentile = None

    def add(self, samples, scale=1.0):
        self.pending.extend(x * scale for x in samples)
        while len(self.pending) >= self.block:
            self._summarize(self.pending[:self.block])
            del self.pending[:self.block]

    def _summarize(self, chunk):
        value, self.percentile, _n = tail(chunk, self.beyond)
        self.p50s.append(statistics.median(chunk))
        self.tails.append(value)

    def summary(self):
        """``(median, tail, percentile, block size)``: medians over full
        blocks; the partial block alone when none filled; None when too
        few units for a tail."""
        size = self.block
        if not self.tails:
            if len(self.pending) <= self.beyond:
                return None
            size = len(self.pending)
            self._summarize(self.pending)
        return (statistics.median(self.p50s), statistics.median(self.tails),
                self.percentile, size)


def failed_frac(failed, attempted):
    """Failed operations as a share of attempted ones (0.0 if none)."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError("failed=%d attempted=%d" % (failed, attempted))
    return failed / attempted if attempted else 0.0


def _cpu_model():
    model = platform.processor()
    if model and model != platform.machine():
        return model
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return model or platform.machine()


def fingerprint():
    """Host facts that change host-time results when they change."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "gc": {"enabled": gc.isenabled(),
               "thresholds": list(gc.get_threshold()),
               "policy": "collected before every repetition"},
    }
