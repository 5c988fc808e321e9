"""Replay one scenario against both driver variants and compare.

The scenario is pure data; the driver's :mod:`repro.family` owns the
event vocabulary that sets a rig up, applies events and observes it.
One :meth:`DifferentialRunner.run_one` builds a fresh rig (legacy or
decaf), enables lockdep, replays the schedule at its virtual-time
offsets, and collects an :class:`Observation`.
:meth:`DifferentialRunner.run_pair` does that for both variants and
compares:

* **strict** mode (no faults): payloads, input events, device state,
  operation return codes, dmesg error surface, and the register-access
  trace must be *equal*; the family's counters equal, or within the
  bound the family gives for them; XPC crossings zero on legacy and
  linearly bounded on decaf.
* **faulty** mode (faults armed on the decaf rig only, supervisor
  attached): the decaf run may lose payloads while recovering but must
  never reorder, duplicate, or corrupt them (subsequence check), the
  loss is bounded, recovery must complete, and the channel must be
  healthy at the end.

Any violated check becomes a :class:`Divergence`; lockdep reports are a
divergence in *either* variant, in every mode.
"""

from functools import reduce
from operator import or_

from ..faults import FaultPlan, FaultSpec
from ..kernel import NETDEV_TX_BUSY, NETDEV_TX_OK, SkBuff
from .observe import Observation, is_subsequence, normalize_dmesg


#: How :func:`write_footprint` reduces one register's write sequence;
#: each family names a reduction per register in its ``footprint``.
REDUCTIONS = {
    # Write counts that track interrupt and poll boundaries shift with
    # the virtual-time cost of XPC crossings: keep the distinct values.
    "distinct": lambda values: sorted(set(values)),
    # Write-1-to-clear acks: acking {1, 4} across two interrupts and 5
    # across one clear the same bits, so keep the OR of every value.
    "acked": lambda values: [reduce(or_, values, 0)],
    # Positions that depend on batching: keep only the final value.
    "last": lambda values: values[-1:],
}

#: Counters :meth:`DifferentialRunner._collect_common` records on every
#: run; the other counters are the family's own observations.
RUN_COUNTERS = frozenset((
    "crossings", "lang_crossings", "faults_fired", "recoveries",
    "work_lost", "gave_up", "recovery_pending", "channel_failed"))


def write_footprint(trace, footprint):
    """Per-register sequence of written values: {region: {offset: [v]}}.

    ``footprint`` is a family's register offset -> reduction map
    (:data:`REDUCTIONS`); registers it does not name keep their full
    write sequence.
    """
    regions = {}
    for op, region, offset, _size, value in trace:
        if op == "w":
            regions.setdefault(region, {}).setdefault(offset, []).append(
                value)
    for regs in regions.values():
        for offset, values in regs.items():
            how = footprint.get(offset)
            if how is not None:
                regs[offset] = REDUCTIONS[how](values)
    return regions


class Divergence:
    """One failed conformance check."""

    __slots__ = ("channel", "detail")

    def __init__(self, channel, detail):
        self.channel = channel
        self.detail = detail

    def to_json(self):
        return {"channel": self.channel, "detail": self.detail}

    def __repr__(self):
        return "<divergence %s: %s>" % (self.channel, self.detail)


class PairResult:
    """Outcome of one legacy/decaf comparison."""

    __slots__ = ("scenario", "legacy", "decaf", "divergences")

    def __init__(self, scenario, legacy, decaf, divergences):
        self.scenario = scenario
        self.legacy = legacy
        self.decaf = decaf
        self.divergences = divergences

    @property
    def ok(self):
        return not self.divergences

    def digest(self):
        """Digest over both observations: the determinism fingerprint."""
        from .observe import digest_of

        return digest_of({"legacy": self.legacy.to_json(),
                          "decaf": self.decaf.to_json()})


def nobble_drop_tx(rig):
    """The canonical canary: sabotage a decaf NIC rig to silently drop
    every third transmitted frame.  A correct conformance harness must
    flag the resulting tx divergence."""
    dev = rig.netdev()
    real_xmit = dev.hard_start_xmit
    state = {"n": 0}

    def broken_xmit(skb, netdev):
        state["n"] += 1
        if state["n"] % 3 == 0:
            return NETDEV_TX_OK  # claim success, eat the frame
        return real_xmit(skb, netdev)

    dev.hard_start_xmit = broken_xmit


class RunProbe:
    """Observer hooks around :meth:`DifferentialRunner.run_one`.

    ``repro.explore`` uses these to capture per-event resource
    footprints (locks, irq lines, channel crossings) and to steer
    controlled interleavings (released gated irqs at event boundaries).
    All hooks are no-ops here; a runner without a probe pays nothing.
    """

    def begin_run(self, rig, scenario, decaf):
        """Rig is built, armed, and set up; the replay loop is next."""

    def begin_event(self, rig, index, event):
        """Virtual time has advanced to the event's offset."""

    def end_event(self, rig, index, event):
        """The event's synchronous application just returned."""

    def end_events(self, rig, decaf):
        """All events applied; the settle window is next."""


class DifferentialRunner:
    """Replays scenarios through each family's event vocabulary.

    Conformance policy stays here and is handed to the families: NIC
    setup settles reset/link-up timers for :attr:`open_settle_ms` after
    ``dev_open``, and tx bursts transmit through :meth:`xmit`.

    Register traces compare per the family's ``reg_trace``: ``"full"``
    is access-for-access equality (reads and writes, in order);
    ``"footprint"`` compares per-register *write* sequences, reduced
    per the family's ``footprint`` -- the NIC drivers run their
    management path behind deferred work on the decaf side, so the
    interleaving of independent register programs shifts legitimately
    while each register must still see the same values in the same
    order.
    """

    open_settle_ms = 60

    def __init__(self, lockdep=True, nobble=None, settle_ms=40,
                 max_recoveries=8, smp=1, probe=None):
        self.lockdep = lockdep
        self.nobble = nobble  # callable(rig), decaf rig only (canary)
        self.settle_ms = settle_ms
        self.max_recoveries = max_recoveries
        # Virtual CPUs per rig; the family's smp_options may widen the
        # device with them (a multi-queue NIC: one NAPI context per
        # queue, affined per CPU).
        self.smp = smp
        self.probe = probe  # RunProbe or None

    # -- single run --------------------------------------------------------

    def run_one(self, scenario, decaf):
        family = scenario.family
        rig = family.rig(decaf, nr_cpus=self.smp,
                         **family.smp_options(self.smp))
        kernel = rig.kernel
        if self.lockdep:
            kernel.enable_lockdep()
        obs = Observation()
        state = family.setup(rig, obs, self)

        if decaf and scenario.mode == "faulty" and scenario.faults:
            self._arm_faults(rig, scenario)
        if decaf and self.nobble is not None:
            self.nobble(rig)

        probe = self.probe
        if probe is not None:
            probe.begin_run(rig, scenario, decaf)
        trace = obs["reg_trace"]
        kernel.io.trace_tap = (
            lambda op, region, off, size, value:
            trace.append([op, region, off, size, value]))
        base_ns = kernel.now_ns()
        for index, event in enumerate(scenario.events):
            target = base_ns + event["t"]
            if target > kernel.now_ns():
                kernel.run_until(target)
            if probe is not None:
                probe.begin_event(rig, index, event)
            family.apply(rig, state, event, index, obs)
            if probe is not None:
                probe.end_event(rig, index, event)
        if probe is not None:
            probe.end_events(rig, decaf)
        kernel.run_for_ms(self.settle_ms)
        kernel.io.trace_tap = None

        family.observe(rig, state, obs)
        self._collect_common(rig, scenario, obs)
        return obs

    def _arm_faults(self, rig, scenario):
        """Attach the supervisor and arm the scenario's fault plan
        (decaf rig, faulty mode).  Split out so repro.explore can reuse
        the arming while adding its own instrumentation."""
        rig.supervise(max_recoveries=self.max_recoveries)
        rig.inject_faults(FaultPlan(
            [FaultSpec(**spec) for spec in scenario.faults],
            name="conformance-%s-%d" % (scenario.driver, scenario.seed)))

    def _collect_common(self, rig, scenario, obs):
        kernel = rig.kernel
        obs["dmesg"] = normalize_dmesg(kernel.dmesg())
        if kernel.lockdep is not None:
            obs["lockdep"] = [[r.kind, r.message]
                              for r in kernel.lockdep.reports]
        counters = obs["counters"]
        counters["crossings"] = rig.crossings()
        counters["lang_crossings"] = rig.lang_crossings()
        fired, recoveries, work_lost = rig.fault_stats()
        counters["faults_fired"] = fired
        counters["recoveries"] = recoveries
        counters["work_lost"] = work_lost
        sup = rig.supervisor
        counters["gave_up"] = bool(sup is not None and sup.gave_up)
        counters["recovery_pending"] = bool(rig.recovery_pending())
        channel = rig.channel
        counters["channel_failed"] = bool(channel is not None
                                          and channel.failed)

    @staticmethod
    def xmit(kernel, dev, frame):
        """Transmit one frame, advancing virtual time past queue-full."""
        for _attempt in range(10_000):
            if not dev.netif_queue_stopped():
                ret = kernel.net.dev_queue_xmit(dev, SkBuff(frame))
                if ret == NETDEV_TX_OK:
                    return 0
                if ret != NETDEV_TX_BUSY:
                    return ret
            nxt = kernel.events.peek_time()
            if nxt is None:
                return -1  # queue wedged with nothing pending
            kernel.run_until(nxt)
        return -2

    # -- pair comparison ---------------------------------------------------

    def run_pair(self, scenario):
        legacy = self.run_one(scenario, decaf=False)
        decaf = self.run_one(scenario, decaf=True)
        if scenario.mode == "strict":
            divergences = self._compare_strict(scenario, legacy, decaf)
        else:
            divergences = self._compare_faulty(scenario, legacy, decaf)
        for name, obs in (("legacy", legacy), ("decaf", decaf)):
            for kind, message in obs["lockdep"]:
                divergences.append(Divergence(
                    "lockdep", "%s: %s: %s" % (name, kind, message)))
        return PairResult(scenario, legacy, decaf, divergences)

    def _check_crossings(self, scenario, legacy, decaf, divergences):
        if legacy["counters"]["crossings"] != 0:
            divergences.append(Divergence(
                "counters", "legacy run recorded %d XPC crossings"
                % legacy["counters"]["crossings"]))
        crossings = decaf["counters"]["crossings"]
        if crossings <= 0:
            divergences.append(Divergence(
                "counters", "decaf run recorded no XPC crossings"))
        items = sum(map(scenario.family.payload_items, scenario.events))
        bound = 2000 + 400 * len(scenario.events) + 60 * items
        if crossings > bound:
            divergences.append(Divergence(
                "counters",
                "decaf crossings %d exceed linear bound %d"
                % (crossings, bound)))

    def _compare_strict(self, scenario, legacy, decaf):
        divergences = []
        for channel in Observation.STRICT_EQUAL:
            if legacy[channel] != decaf[channel]:
                divergences.append(Divergence(
                    channel,
                    "legacy %r != decaf %r"
                    % (_clip(legacy[channel]), _clip(decaf[channel]))))
        family = scenario.family
        if family.reg_trace == "full":
            if legacy["reg_trace"] != decaf["reg_trace"]:
                divergences.append(Divergence(
                    "reg_trace", _trace_diff(legacy["reg_trace"],
                                             decaf["reg_trace"])))
        else:
            lfp = write_footprint(legacy["reg_trace"], family.footprint)
            dfp = write_footprint(decaf["reg_trace"], family.footprint)
            if lfp != dfp:
                divergences.append(Divergence(
                    "reg_trace", _footprint_diff(lfp, dfp)))
        # The family's counters are equal unless it bounds their delta.
        bounds = family.counter_bounds(scenario)
        lcounters, dcounters = legacy["counters"], decaf["counters"]
        for key in sorted(set(lcounters) - RUN_COUNTERS):
            bound = bounds.get(key)
            if bound is None:
                if lcounters[key] != dcounters.get(key):
                    divergences.append(Divergence(
                        "counters", "%s: legacy %r != decaf %r"
                        % (key, lcounters[key], dcounters.get(key))))
            elif abs(lcounters[key] - dcounters.get(key, 0)) > bound:
                divergences.append(Divergence(
                    "counters", "%s: legacy %d vs decaf %d (bound %d)"
                    % (key, lcounters[key], dcounters.get(key, 0), bound)))
        self._check_crossings(scenario, legacy, decaf, divergences)
        return divergences

    def _compare_faulty(self, scenario, legacy, decaf):
        divergences = []
        fired = decaf["counters"]["faults_fired"]
        for channel in ("tx", "rx", "input"):
            lch, dch = legacy[channel], decaf[channel]
            # Multi-queue rx is a dict of per-queue streams; the
            # no-reorder/no-corruption invariant holds per queue.
            if isinstance(lch, dict):
                streams = [(("%s[%s]" % (channel, q)),
                            lch.get(q, []), dch.get(q, []))
                           for q in sorted(set(lch) | set(dch))]
            else:
                streams = [(channel, lch, dch)]
            loss = 0
            ordered = True
            for label, lst, dst in streams:
                if not is_subsequence(dst, lst):
                    divergences.append(Divergence(
                        channel,
                        "%s: decaf delivery is not a subsequence of "
                        "legacy (reorder/duplicate/corruption)" % label))
                    ordered = False
                    break
                loss += len(lst) - len(dst)
            if not ordered:
                continue
            bound = 8 + 24 * max(fired, 1)
            if loss > bound:
                divergences.append(Divergence(
                    channel, "lost %d payloads, bound %d" % (loss, bound)))
        for lba, block_digest in decaf["disk"].items():
            if legacy["disk"].get(lba) not in (None, block_digest):
                divergences.append(Divergence(
                    "disk", "block %s corrupted" % lba))
        counters = decaf["counters"]
        if fired > 0 and counters["recoveries"] < 1:
            divergences.append(Divergence(
                "recovery", "%d faults fired but no recovery ran" % fired))
        for flag in ("gave_up", "recovery_pending", "channel_failed"):
            if counters[flag]:
                divergences.append(Divergence(
                    "recovery", "decaf run ended with %s" % flag))
        if legacy["counters"]["crossings"] != 0:
            divergences.append(Divergence(
                "counters", "legacy run recorded XPC crossings"))
        return divergences


def _clip(value, limit=6):
    """First items of a channel, for readable divergence details."""
    if isinstance(value, list) and len(value) > limit:
        return value[:limit] + ["... %d more" % (len(value) - limit)]
    return value


def _trace_diff(a, b):
    """Locate the first register-trace mismatch."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return ("first mismatch at access %d: legacy %r != decaf %r"
                    % (i, x, y))
    return ("length mismatch: legacy %d accesses, decaf %d"
            % (len(a), len(b)))


def _footprint_diff(lfp, dfp):
    """Name the first register whose write sequence differs."""
    for region in sorted(set(lfp) | set(dfp)):
        lregs = lfp.get(region, {})
        dregs = dfp.get(region, {})
        for offset in sorted(set(lregs) | set(dregs)):
            lv, dv = lregs.get(offset), dregs.get(offset)
            if lv != dv:
                return ("%s+%#x writes: legacy %s != decaf %s"
                        % (region, offset, _clip(lv), _clip(dv)))
    return "footprints differ"
