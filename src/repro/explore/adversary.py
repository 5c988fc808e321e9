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


class _Tap:
    """The ``corrupt_hook`` of both phases.

    Without a ``crossing`` it records every payload as
    ``(direction, bytes)``; with one it mutates the ``crossing``-th
    payload (0-based) and counts the hits, passing every other payload
    through.
    """

    def __init__(self, crossing=None, mutate=None):
        self.crossing = crossing
        self.mutate = mutate
        self.records = []
        self.seen = 0
        self.hits = 0

    def __call__(self, data, direction):
        index = self.seen
        self.seen += 1
        if self.crossing is None:
            self.records.append((direction, bytes(data)))
        elif index == self.crossing:
            self.hits += 1
            return self.mutate(data)
        return data


class _ScenarioProbe(RunProbe):
    """Install a tap on the decaf rig's channel once setup is done; an
    attack also supervises the rig, so a contained fault can recover."""

    def __init__(self, tap, max_recoveries):
        self.tap = tap
        self.max_recoveries = max_recoveries

    def begin_run(self, rig, scenario, decaf):
        if not decaf or rig.channel is None:
            return
        if self.tap.crossing is not None:
            rig.supervise(max_recoveries=self.max_recoveries)
        rig.channel.corrupt_hook = self.tap


def _run_scenario(scenario, tap, max_recoveries):
    """Replay ``scenario`` on a decaf rig with ``tap`` installed."""
    runner = DifferentialRunner(max_recoveries=max_recoveries,
                                probe=_ScenarioProbe(tap, max_recoveries))
    return runner.run_one(scenario, decaf=True)


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
    tap = _Tap()
    rig = FAMILIES[driver].rig(decaf=True)
    with _probe_hook(tap):
        rig.insmod()
    rig.rmmod()
    return tap.records


def _run_probe_attack(driver, crossing, mutate, timeout_s):
    """Mutate one probe-time crossing of a bare insmod; classify the
    outcome."""
    tap = _Tap(crossing, mutate)
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
        if not tap.hits:
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
    if not tap.hits:
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


#: Verdict kind -> the report tally it counts towards; any other kind
#: is a violation.
_CONTAINED = {
    "recovered": "contained_recovered",
    "absorbed": "contained_absorbed",
    "errno": "contained_errno",
}


def _sweep(report, phase, records, points, attack, say):
    """Every corpus mutation at every attack point: skip a mutation that
    leaves the payload unchanged, else run ``attack(point, mutate)`` and
    tally its verdict or record a violation."""
    for point in points:
        direction, original = records[point]
        for name, mutate in MUTATIONS:
            if mutate(original) == original:
                report.skipped += 1
                continue
            report.attacks += 1
            verdict = attack(point, mutate)
            tally = _CONTAINED.get(verdict["kind"])
            if tally is not None:
                setattr(report, tally, getattr(report, tally) + 1)
                continue
            report.violations.append({
                "phase": phase,
                "crossing": point,
                "direction": direction,
                "mutation": name,
                "detail": verdict["detail"],
            })
            say("  VIOLATION %s%s @%d: %s"
                % ("probe " if phase == "probe" else "", name, point,
                   verdict["detail"]))


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
    scenario = Scenario(driver, seed, "strict",
                        base_events(driver, depth, seed))
    report = AdversaryReport(driver, depth)

    capture = _Tap()
    _run_scenario(scenario, capture, max_recoveries)
    records = capture.records
    report.crossings_captured = len(records)
    points = _attack_points(len(records), max_points)
    report.crossings_attacked = len(points)
    say("%s: captured %d crossings, attacking %d of them with %d "
        "mutations each"
        % (driver, len(records), len(points), len(MUTATIONS)))
    _sweep(report, "run", records, points,
           lambda point, mutate: _run_attack(
               scenario, point, mutate, max_recoveries, timeout_s),
           say)

    if probe_phase:
        probe_records = _capture_probe_phase(driver)
        report.probe_crossings_captured = len(probe_records)
        probe_points = _attack_points(len(probe_records), max_points)
        report.probe_crossings_attacked = len(probe_points)
        say("%s: captured %d probe-time crossings, attacking %d"
            % (driver, len(probe_records), len(probe_points)))
        _sweep(report, "probe", probe_records, probe_points,
               lambda point, mutate: _run_probe_attack(
                   driver, point, mutate, timeout_s),
               say)

    say("%s: %d attacks, %d recovered, %d errno, %d absorbed, "
        "%d skipped, %d violations"
        % (driver, report.attacks, report.contained_recovered,
           report.contained_errno, report.contained_absorbed,
           report.skipped, len(report.violations)))
    return report


def _run_attack(scenario, crossing, mutate, max_recoveries, timeout_s):
    """One mutation at one scenario-phase crossing, under a supervised
    replay; classify the outcome."""
    tap = _Tap(crossing, mutate)
    try:
        with _watchdog(timeout_s):
            obs = _run_scenario(scenario, tap, max_recoveries)
    except _Hang as exc:
        return {"kind": "hang", "detail": str(exc)}
    except Exception as exc:  # noqa: BLE001 -- the verdict *is* the catch
        return {
            "kind": "escape",
            "detail": "kernel-side unchecked %s: %s"
                      % (type(exc).__name__, exc),
        }
    if not tap.hits:
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
