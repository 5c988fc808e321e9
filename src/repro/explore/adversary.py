"""Adversarial XPC: a compromised user half attacks the nucleus.

PR 4's failure boundary was built against a *crashing* user half
(exceptions escaping upcalls).  The driver-isolation SoK's stronger
threat model is a *hostile* one: the user-level driver is assumed
compromised and puts arbitrary bytes on the wire.  This module replays
a driver's captured XPC crossings with mutated marshaled payloads and
verifies the nucleus-side contract:

    every mutation is contained to an errno and/or a supervised
    recovery -- never a kernel-side unchecked exception, a hang, or a
    lockdep report.

The mutation corpus covers the ISSUE taxonomy: truncated buffers,
oversized lengths, wrong argument/field counts, stale/forged
object-tracker handles and type ids, and out-of-range scalar stomps
(which double as out-of-range enum/register values -- the wire does not
distinguish them).

Mechanically, mutations ride :attr:`XpcChannel.corrupt_hook`, which
fires between encode and decode of every transfer -- exactly the point
where a compromised user process controls the bytes.  One attack run
mutates one crossing with one corpus entry; everything after it runs
unmodified so recovery has a clean channel to replay over.
"""

import signal

from ..conformance.runner import DifferentialRunner, RunProbe
from ..conformance.scenario import Scenario
from ..core.xpc import DriverFailedError, XpcChannel
from ..drivers.decaf.exceptions import DriverException
from ..family import FAMILIES
from .explorer import base_events

#: Wire tag constants mirrored from repro.core.marshal (kept literal so
#: a corpus entry reads like the attack it performs).
_TAG_ARRAY = 4


def _stomp_u32(offset, value):
    def fn(data):
        if len(data) < offset + 4:
            return data
        return (data[:offset] + value.to_bytes(4, "little")
                + data[offset + 4:])
    return fn


def _stomp_u64(offset, value):
    def fn(data):
        if len(data) < offset + 8:
            return data
        return (data[:offset] + value.to_bytes(8, "little")
                + data[offset + 8:])
    return fn


def _bitflip_last(data):
    if not data:
        return data
    return data[:-1] + bytes([data[-1] ^ 0x80])


def _stomp_mid(data):
    mid = (len(data) // 2) & ~3
    return _stomp_u32(mid, 0xFFFFFFFF)(data)


#: The corpus: (name, mutation).  A mutation returning the payload
#: unchanged at some crossing (e.g. a stomp past a short payload's end)
#: is recorded as *skipped* there, never silently counted as contained.
MUTATIONS = (
    # truncated buffers
    ("trunc-half", lambda d: d[: len(d) // 2]),
    ("trunc-4", lambda d: d[:4]),
    ("trunc-1", lambda d: d[:1]),
    ("empty", lambda d: b""),
    # trailing garbage (decode must not read past its args)
    ("extend-garbage", lambda d: d + b"\xfe\xed\xfa\xce" * 4),
    # wrong argument count (first wire word)
    ("argc-max", _stomp_u32(0, 0xFFFFFFFF)),
    ("argc-zero", _stomp_u32(0, 0)),
    # bad reference tags (first arg's tag word)
    ("tag-garbage", _stomp_u32(4, 0x7F)),
    ("tag-array", _stomp_u32(4, _TAG_ARRAY)),
    # stale/forged object-tracker identity (first object record)
    ("forge-identity", _stomp_u64(8, 0xDEADBEEFDEADBEEF)),
    # unknown type id
    ("type-id-stomp", _stomp_u32(16, 0x00FFFFFF)),
    # oversized length / wrong field count / out-of-range scalars:
    # 0xFFFFFFFF lands on whatever wire word sits there -- a delta
    # count, an exp-array length, a string length, or a register value.
    ("stomp-u32@20", _stomp_u32(20, 0xFFFFFFFF)),
    ("stomp-u32@24", _stomp_u32(24, 0xFFFFFFFF)),
    ("stomp-u32@mid", _stomp_mid),
    # single corrupted byte (checksum-less wire: must still be contained)
    ("bitflip-last", _bitflip_last),
)


class _Hang(Exception):
    pass


class _watchdog:
    """SIGALRM backstop: a mutation that drives the simulation into an
    unbounded loop surfaces as a ``hang`` verdict instead of wedging
    the sweep.  No-op where SIGALRM is unavailable (non-main thread)."""

    def __init__(self, seconds):
        self.seconds = seconds
        self._armed = False

    def __enter__(self):
        try:
            self._prev = signal.signal(signal.SIGALRM, self._fire)
            signal.alarm(self.seconds)
            self._armed = True
        except ValueError:  # not the main thread
            pass
        return self

    def _fire(self, signum, frame):
        raise _Hang("simulation exceeded %ds wall clock" % self.seconds)

    def __exit__(self, *exc):
        if self._armed:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, self._prev)
        return False


class _CaptureProbe(RunProbe):
    """Record every marshaled payload crossing the channel."""

    def __init__(self):
        self.records = []

    def begin_run(self, rig, scenario, decaf):
        if not decaf or rig.channel is None:
            return
        records = self.records

        def tap(data, direction):
            records.append((direction, bytes(data)))
            return data

        rig.channel.corrupt_hook = tap


class _AttackProbe(RunProbe):
    """Supervise the rig and mutate exactly one crossing in flight."""

    def __init__(self, crossing, mutate, max_recoveries):
        self.crossing = crossing
        self.mutate = mutate
        self.max_recoveries = max_recoveries
        self.hits = 0

    def begin_run(self, rig, scenario, decaf):
        if not decaf or rig.channel is None:
            return
        rig.supervise(max_recoveries=self.max_recoveries)
        state = {"n": 0}
        probe = self

        def tap(data, direction):
            state["n"] += 1
            if state["n"] - 1 == probe.crossing:
                probe.hits += 1
                return probe.mutate(data)
            return data

        rig.channel.corrupt_hook = tap


class AdversaryReport:
    """Outcome of one driver's adversarial sweep (both phases)."""

    def __init__(self, driver, depth):
        self.driver = driver
        self.depth = depth
        self.crossings_captured = 0
        self.crossings_attacked = 0
        self.probe_crossings_captured = 0
        self.probe_crossings_attacked = 0
        self.attacks = 0
        self.contained_recovered = 0
        self.contained_absorbed = 0
        self.contained_errno = 0
        self.skipped = 0
        self.violations = []  # dicts: phase, crossing, mutation, detail

    @property
    def contained(self):
        return (self.contained_recovered + self.contained_absorbed
                + self.contained_errno)

    @property
    def ok(self):
        return not self.violations

    def to_json(self):
        return {
            "driver": self.driver,
            "depth": self.depth,
            "crossings_captured": self.crossings_captured,
            "crossings_attacked": self.crossings_attacked,
            "probe_crossings_captured": self.probe_crossings_captured,
            "probe_crossings_attacked": self.probe_crossings_attacked,
            "corpus": [name for name, _fn in MUTATIONS],
            "attacks": self.attacks,
            "contained_recovered": self.contained_recovered,
            "contained_absorbed": self.contained_absorbed,
            "contained_errno": self.contained_errno,
            "skipped": self.skipped,
            "violations": self.violations,
        }


# -- probe-phase attacks -------------------------------------------------------
#
# psmouse and uhci_hcd exchange XPC traffic only while probing (their
# event-phase work -- serio bytes, urb rings -- is nucleus-side), so the
# scenario-phase sweep has nothing to attack there.  The hostile-user
# threat model covers probe too: the channel is constructed mid-insmod,
# which is why the hook rides XpcChannel.default_corrupt_hook instead
# of an instance attribute.  The contract during probe (no supervisor
# exists yet) is: a corrupted crossing makes insmod fail with a clean
# errno / contained driver failure, or the driver comes up anyway and
# unloads cleanly -- never an unchecked kernel exception, hang, or
# lockdep report.

class _probe_hook:
    """Temporarily install a function as every new channel's
    corrupt_hook."""

    def __init__(self, fn):
        self.fn = fn

    def __enter__(self):
        self._saved = XpcChannel.default_corrupt_hook
        XpcChannel.default_corrupt_hook = self.fn
        return self

    def __exit__(self, *exc):
        XpcChannel.default_corrupt_hook = self._saved
        return False


def _capture_probe_phase(driver):
    """Insmod/rmmod once, recording every probe-time payload."""
    records = []

    def tap(data, direction):
        records.append((direction, bytes(data)))
        return data

    rig = FAMILIES[driver].rig(decaf=True)
    with _probe_hook(tap):
        rig.insmod()
    rig.rmmod()
    return records


def _run_probe_attack(driver, crossing, mutate, timeout_s):
    """Mutate one probe-time crossing; classify the insmod outcome."""
    state = {"n": 0, "hits": 0}

    def tap(data, direction):
        state["n"] += 1
        if state["n"] - 1 == crossing:
            state["hits"] += 1
            return mutate(data)
        return data

    rig = FAMILIES[driver].rig(decaf=True)
    up = False
    try:
        with _watchdog(timeout_s), _probe_hook(tap):
            rig.insmod()
            up = True
    except _Hang as exc:
        return {"kind": "hang", "detail": str(exc)}
    except (DriverFailedError, DriverException, RuntimeError) as exc:
        # Contained: the boundary turned the corruption into a driver
        # failure and insmod reported a clean errno (rig.insmod wraps
        # the negative return in RuntimeError).
        if not state["hits"]:
            return {"kind": "absorbed", "detail": "mutation did not fire"}
        return {"kind": "errno", "detail": type(exc).__name__}
    except Exception as exc:  # noqa: BLE001 -- the verdict *is* the catch
        return {
            "kind": "escape",
            "detail": "kernel-side unchecked %s: %s"
                      % (type(exc).__name__, exc),
        }
    finally:
        if up:
            try:
                rig.rmmod()
            except Exception as exc:  # noqa: BLE001
                return {
                    "kind": "escape",
                    "detail": "rmmod after absorbed mutation raised %s: %s"
                              % (type(exc).__name__, exc),
                }
    if not state["hits"]:
        return {"kind": "absorbed", "detail": "mutation did not fire"}
    if rig.kernel.lockdep is not None and rig.kernel.lockdep.reports:
        return {
            "kind": "lockdep",
            "detail": "lockdep reports after probe mutation",
        }
    return {"kind": "absorbed", "detail": ""}


def _attack_points(n_records, max_points):
    """Which captured crossings to attack: all of them up to the cap,
    an evenly spread sample beyond it (the cap is reported, not
    silent)."""
    if n_records <= max_points:
        return list(range(n_records))
    step = n_records / max_points
    return sorted({int(i * step) for i in range(max_points)})


def run_adversary(driver, depth=4, seed=0, max_points=24, max_recoveries=8,
                  timeout_s=60, log=None, probe_phase=True):
    """The full corpus against every (sampled) crossing of one driver.

    Two phases: scenario-phase attacks mutate post-setup crossings under
    a supervised rig; probe-phase attacks mutate insmod-time crossings
    (each phase capped at ``max_points``).  Runs decaf-only: the
    reference for containment is the boundary contract, not the legacy
    variant.  Returns an :class:`AdversaryReport`; ``report.ok`` is the
    acceptance gate.
    """
    say = log or (lambda msg: None)
    runner = DifferentialRunner(max_recoveries=max_recoveries)
    scenario = Scenario(driver, seed, "strict",
                        base_events(driver, depth, seed))
    report = AdversaryReport(driver, depth)

    capture = _CaptureProbe()
    saved = runner.probe
    runner.probe = capture
    try:
        runner.run_one(scenario, decaf=True)
    finally:
        runner.probe = saved
    records = capture.records
    report.crossings_captured = len(records)
    points = _attack_points(len(records), max_points)
    report.crossings_attacked = len(points)
    say("%s: captured %d crossings, attacking %d of them with %d "
        "mutations each"
        % (driver, len(records), len(points), len(MUTATIONS)))

    for point in points:
        _direction, original = records[point]
        for name, mutate in MUTATIONS:
            if mutate(original) == original:
                report.skipped += 1
                continue
            report.attacks += 1
            verdict = _run_attack(runner, scenario, point, mutate,
                                  max_recoveries, timeout_s)
            if verdict["kind"] == "recovered":
                report.contained_recovered += 1
            elif verdict["kind"] == "absorbed":
                report.contained_absorbed += 1
            else:
                report.violations.append({
                    "phase": "run",
                    "crossing": point,
                    "direction": _direction,
                    "mutation": name,
                    "detail": verdict["detail"],
                })
                say("  VIOLATION %s @%d: %s"
                    % (name, point, verdict["detail"]))

    if probe_phase:
        probe_records = _capture_probe_phase(driver)
        report.probe_crossings_captured = len(probe_records)
        probe_points = _attack_points(len(probe_records), max_points)
        report.probe_crossings_attacked = len(probe_points)
        say("%s: captured %d probe-time crossings, attacking %d"
            % (driver, len(probe_records), len(probe_points)))
        for point in probe_points:
            _direction, original = probe_records[point]
            for name, mutate in MUTATIONS:
                if mutate(original) == original:
                    report.skipped += 1
                    continue
                report.attacks += 1
                verdict = _run_probe_attack(driver, point, mutate, timeout_s)
                if verdict["kind"] == "errno":
                    report.contained_errno += 1
                elif verdict["kind"] == "absorbed":
                    report.contained_absorbed += 1
                elif verdict["kind"] == "recovered":
                    report.contained_recovered += 1
                else:
                    report.violations.append({
                        "phase": "probe",
                        "crossing": point,
                        "direction": _direction,
                        "mutation": name,
                        "detail": verdict["detail"],
                    })
                    say("  VIOLATION probe %s @%d: %s"
                        % (name, point, verdict["detail"]))

    say("%s: %d attacks, %d recovered, %d errno, %d absorbed, "
        "%d skipped, %d violations"
        % (driver, report.attacks, report.contained_recovered,
           report.contained_errno, report.contained_absorbed,
           report.skipped, len(report.violations)))
    return report


def _run_attack(runner, scenario, crossing, mutate, max_recoveries,
                timeout_s):
    """One mutation at one crossing; classify the outcome."""
    probe = _AttackProbe(crossing, mutate, max_recoveries)
    saved = runner.probe
    runner.probe = probe
    try:
        with _watchdog(timeout_s):
            obs = runner.run_one(scenario, decaf=True)
    except _Hang as exc:
        return {"kind": "hang", "detail": str(exc)}
    except Exception as exc:  # noqa: BLE001 -- the verdict *is* the catch
        return {
            "kind": "escape",
            "detail": "kernel-side unchecked %s: %s"
                      % (type(exc).__name__, exc),
        }
    finally:
        runner.probe = saved
    if not probe.hits:
        # The attacked crossing never re-occurred (schedule noise from
        # supervision); nothing was actually tested.
        return {"kind": "absorbed", "detail": "mutation did not fire"}
    lockdep = obs["lockdep"]
    if lockdep:
        return {
            "kind": "lockdep",
            "detail": "lockdep reports after mutation: %r" % (lockdep[:2],),
        }
    counters = obs["counters"]
    for flag in ("gave_up", "recovery_pending", "channel_failed"):
        if counters.get(flag):
            return {
                "kind": "unrecovered",
                "detail": "run ended with %s set" % flag,
            }
    if counters.get("recoveries"):
        return {"kind": "recovered", "detail": ""}
    return {"kind": "absorbed", "detail": ""}
