"""kstat: the kernel's one counter namespace.

Every count the simulator reports has exactly one dotted name here;
the tracer keeps no counters of its own, and a ``WorkloadResult``
carries the kstat delta over its run window.

Subsystems do not push values here on their hot paths.  They register a
*provider* -- a zero-argument callable returning a flat ``{name: value}``
dict -- and the registry pulls from it only when someone snapshots.  The
always-on cost of a kstat is therefore zero: the counters already exist
(IRQ delivery counts, NAPI poll totals, XPC crossings, ...); the
registry is just a uniform, dotted-name window onto them.  Cold events
with no owning counter (fault firings, recoveries, lockdep reports,
watchdog fires) go through :meth:`KstatRegistry.inc` instead.

Naming scheme (see DESIGN.md "Health plane")::

    kernel.cpu0.busy_ns              per-CPU busy virtual time
    kernel.cpu0.irq_ns               ... split by accounting category
    irq.line10.count                 per-line delivery count
    napi.polls                       NAPI core counters
    napi.packets_per_poll.20         polls that did 20 packets of work
    net.skb_pool.shared.hits         per-shard pool hits (and misses)
    mm.dma.bytes                     live DMA-coherent bytes (and regions)
    xpc.crossings                    summed across every decaf driver
    xpc.e1000.crossings              ... and per driver
    faults.fired                     injected faults that struck
    faults.e1000.fired               ... per driver
    recovery.recoveries              supervised restarts completed
    recovery.e1000.recoveries        ... per driver
    lockdep.reports.sleep-in-atomic  lock validator reports per kind
    health.watchdog_fires            the health plane's own cold counters

Two providers registered under the same prefix merge; numeric name
collisions sum (two XPC instances on one kernel yield aggregate
crossings, like /proc/interrupts summing per-CPU columns).
"""


class KstatRegistry:
    """Provider-based pull registry plus a few explicit cold counters."""

    def __init__(self):
        # [(prefix, provider)] in registration order.
        self._providers = []
        # Explicit counters for cold events with no natural home
        # (watchdog fires, flight dumps).  Updated via inc(), never on
        # a hot path.
        self._counters = {}

    # -- registration -------------------------------------------------------

    def register(self, prefix, provider):
        """Register ``provider() -> {relative_name: value}`` under ``prefix``."""
        if not callable(provider):
            raise TypeError("kstat provider for %r is not callable" % prefix)
        self._providers.append((prefix, provider))
        return provider

    def unregister(self, prefix, provider=None):
        """Drop providers under ``prefix`` (or one specific provider).

        Matches by equality, not identity: providers are usually bound
        methods, and ``obj.method`` builds a fresh method object on
        every access, so an identity test would never match what
        ``register`` stored and the provider would leak on every
        driver remove.
        """
        self._providers = [
            (p, fn) for p, fn in self._providers
            if not (p == prefix and (provider is None or fn == provider))
        ]

    # -- explicit cold counters --------------------------------------------

    def inc(self, name, delta=1):
        self._counters[name] = self._counters.get(name, 0) + delta

    def counter(self, name):
        return self._counters.get(name, 0)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self):
        """Flat ``{dotted.name: value}`` dict across every provider.

        Values are numbers (bools coerce to int).  A provider that
        raises poisons nothing else: its error is surfaced as a
        ``<prefix>.error`` string entry instead of a crash, because a
        health plane that dies while reporting a dying system is
        useless.
        """
        out = {}
        for prefix, provider in self._providers:
            try:
                values = provider()
            except Exception as exc:  # noqa: BLE001 -- see docstring
                out["%s.error" % prefix] = "%s: %s" % (type(exc).__name__, exc)
                continue
            for name, value in values.items():
                key = "%s.%s" % (prefix, name) if prefix else str(name)
                if isinstance(value, bool):
                    value = int(value)
                if key in out and isinstance(out[key], (int, float)) \
                        and isinstance(value, (int, float)):
                    out[key] += value
                else:
                    out[key] = value
        for name, value in self._counters.items():
            out[name] = out.get(name, 0) + value
        return out

    @staticmethod
    def delta(before, after):
        """Per-key numeric difference of two snapshots.

        Keys present on only one side are reported as-is (a counter
        that appeared mid-window delta'd from zero; one that vanished
        shows its negated old value) -- deltas never divide.  Keys come
        out sorted, so a dumped delta is byte-identical run to run.
        """
        out = {}
        for key in sorted(set(before) | set(after)):
            a = before.get(key, 0)
            b = after.get(key, 0)
            if not isinstance(a, (int, float)) or isinstance(a, bool):
                a = 0
            if not isinstance(b, (int, float)) or isinstance(b, bool):
                b = 0
            if b != a:
                out[key] = b - a
        return out
