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
  trace must be *equal*; packet counters equal; XPC crossings zero on
  legacy and linearly bounded on decaf.
* **faulty** mode (faults armed on the decaf rig only, supervisor
  attached): the decaf run may lose payloads while recovering but must
  never reorder, duplicate, or corrupt them (subsequence check), the
  loss is bounded, recovery must complete, and the channel must be
  healthy at the end.

Any violated check becomes a :class:`Divergence`; lockdep reports are a
divergence in *either* variant, in every mode.
"""

from ..faults import FaultPlan, FaultSpec
from ..kernel import NETDEV_TX_BUSY, NETDEV_TX_OK, SkBuff
from .observe import Observation, is_subsequence, normalize_dmesg


#: Interrupt mask/ack registers, per region name.  Their write *counts*
#: track NAPI poll and interrupt boundaries, which shift legitimately
#: with the virtual-time cost of XPC crossings; for these the footprint
#: keeps the set of distinct values written instead of the sequence.
#: The e1000's per-queue register blocks repeat at a 0x100 stride
#: (queue 1's ICR is 0x1C0, its RDT 0x2918, ...), so the timing and
#: ring-tail sets cover every queue's copy.
_E1000_STRIDES = tuple(q * 0x100 for q in range(8))

TIMING_REGS = {
    "e1000": frozenset(reg + s                         # ICR, IMS, IMC
                       for reg in (0x000C0, 0x000D0, 0x000D8)
                       for s in _E1000_STRIDES),
    "8139too": frozenset((0x3C, 0x3E)),                # IMR, ISR
    # MEM_PAGE is rewritten once per period-interrupt service and
    # SERIAL's P2_INTR_EN bit is toggled to ack each one, so their
    # write counts track the (bounded, phase-coupled) irq count.
    "ens1371": frozenset((0x0C, 0x20)),                # MEM_PAGE, SERIAL
}

#: Write-1-to-clear acknowledge registers.  The handler acks exactly
#: the status bits it read, so when two device events coalesce into one
#: interrupt on one variant only, that variant writes the *union* value
#: (e.g. RxOK|TxOK = 5 on the 8139 ISR) which the other never does.
#: Acking {1, 4} across two interrupts and acking 5 across one clear
#: the same bits, so for these registers the footprint keeps the OR of
#: all written values -- the set of bits ever acked -- instead of the
#: distinct-value set.  (Surfaced by repro.explore: reordering
#: config_mac between tx/rx bursts shifts decaf interrupt arrival.)
ACK_W1C_REGS = {
    "8139too": frozenset((0x3E,)),                     # ISR
}

#: Ring tail pointers: the *positions* written depend on how rx/tx work
#: batches across poll boundaries, which shifts with crossing costs.
#: The footprint keeps only the final value (where the ring ended up).
RING_TAIL_REGS = {
    "e1000": frozenset(reg + s                         # RDT, TDT
                       for reg in (0x02818, 0x03818)
                       for s in _E1000_STRIDES),
}


def write_footprint(trace):
    """Per-register sequence of written values: {region: {offset: [v]}}.

    Timing-coupled mask/ack registers (:data:`TIMING_REGS`) are reduced
    to their sorted distinct-value set; write-1-to-clear ack registers
    (:data:`ACK_W1C_REGS`) further collapse to the OR of written values.
    """
    footprint = {}
    for op, region, offset, _size, value in trace:
        if op != "w":
            continue
        footprint.setdefault(region, {}).setdefault(offset, []).append(value)
    for region, regs in footprint.items():
        for offset in ACK_W1C_REGS.get(region, ()):
            if offset in regs:
                acked = 0
                for value in regs[offset]:
                    acked |= value
                regs[offset] = [acked]
        for offset in TIMING_REGS.get(region, ()):
            if offset in regs and offset not in ACK_W1C_REGS.get(region, ()):
                regs[offset] = sorted(set(regs[offset]))
        for offset in RING_TAIL_REGS.get(region, ()):
            if offset in regs:
                regs[offset] = regs[offset][-1:]
    return footprint


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
    ``"footprint"`` compares per-register *write* sequences -- the NIC
    drivers run their management path behind deferred work on the
    decaf side, so the interleaving of independent register programs
    shifts legitimately while each register must still see the same
    values in the same order.
    """

    open_settle_ms = 60

    def __init__(self, lockdep=True, nobble=None, settle_ms=40,
                 max_recoveries=8, smp=1, probe=None):
        self.lockdep = lockdep
        self.nobble = nobble  # callable(rig), decaf rig only (canary)
        self.settle_ms = settle_ms
        self.max_recoveries = max_recoveries
        # Virtual CPUs per rig; >1 additionally runs the e1000 pair
        # multi-queue (one NAPI context per queue, affined per CPU).
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

    def _payload_items(self, scenario):
        """Linear size of the schedule, for the crossing bound."""
        items = 0
        for event in scenario.events:
            kind = event["kind"]
            if kind in ("tx_burst", "rx_burst"):
                items += len(event["frames"])
            elif kind == "irq_storm":
                items += event["count"]
            elif kind == "pcm_cycle":
                items += (event["write_frames"] // event["period_frames"]
                          + event["periods"])
            elif kind == "bulk_write":
                items += event["blocks"]
            else:
                items += 1
        return items

    def _check_crossings(self, scenario, legacy, decaf, divergences):
        if legacy["counters"]["crossings"] != 0:
            divergences.append(Divergence(
                "counters", "legacy run recorded %d XPC crossings"
                % legacy["counters"]["crossings"]))
        crossings = decaf["counters"]["crossings"]
        if crossings <= 0:
            divergences.append(Divergence(
                "counters", "decaf run recorded no XPC crossings"))
        bound = (2000 + 400 * len(scenario.events)
                 + 60 * self._payload_items(scenario))
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
        if scenario.family.reg_trace == "full":
            if legacy["reg_trace"] != decaf["reg_trace"]:
                divergences.append(Divergence(
                    "reg_trace", _trace_diff(legacy["reg_trace"],
                                             decaf["reg_trace"])))
        else:
            lfp = write_footprint(legacy["reg_trace"])
            dfp = write_footprint(decaf["reg_trace"])
            if lfp != dfp:
                divergences.append(Divergence(
                    "reg_trace", _footprint_diff(lfp, dfp)))
        for key in ("tx_packets", "rx_packets", "tx_bytes", "rx_bytes",
                    "mac", "mtu"):
            if key in legacy["counters"] and (
                    legacy["counters"][key] != decaf["counters"].get(key)):
                divergences.append(Divergence(
                    "counters", "%s: legacy %r != decaf %r"
                    % (key, legacy["counters"][key],
                       decaf["counters"].get(key))))
        for key in sorted(legacy["counters"]):
            if key.startswith("pcm") and key.endswith("_periods"):
                # periods_elapsed counts *serviced* period interrupts,
                # and hw_ptr advances from the pointer op (true device
                # position), so irqs coalesce: one serviced irq can
                # cover several consumed periods.  Coalescing depth is
                # bounded by the ring, so the variants may differ by up
                # to the ring's period count.
                try:
                    index = int(key[3:-len("_periods")])
                    bound = scenario.events[index]["periods"]
                except (ValueError, IndexError, KeyError):
                    bound = 4
                delta = abs(legacy["counters"][key]
                            - decaf["counters"].get(key, 0))
                if delta > bound:
                    divergences.append(Divergence(
                        "counters",
                        "%s: legacy %d vs decaf %d (bound %d)"
                        % (key, legacy["counters"][key],
                           decaf["counters"].get(key, 0), bound)))
        if "device_irqs" in legacy["counters"]:
            # Each pcm cycle contributes up to two phase-coupled irqs:
            # one inside the blocking write (see pcmN_periods) and one
            # in the window between the periods read and the DAC2
            # disable reaching the device.
            cycles = sum(1 for ev in scenario.events
                         if ev["kind"] == "pcm_cycle")
            bound = 2 + 2 * cycles
            delta = abs(legacy["counters"]["device_irqs"]
                        - decaf["counters"].get("device_irqs", 0))
            if delta > bound:
                divergences.append(Divergence(
                    "counters",
                    "device_irqs: legacy %d vs decaf %d (bound %d)"
                    % (legacy["counters"]["device_irqs"],
                       decaf["counters"].get("device_irqs", 0), bound)))
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
