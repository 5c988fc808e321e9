"""Seeded scenario generation.

A :class:`Scenario` is a JSON-able value: driver name, seed, mode, and
an ordered list of events, each a dict with a virtual-time offset
``"t"`` (ns after setup) and family-specific parameters.  Everything
the runner replays is in the scenario -- no hidden state -- so a
scenario can be serialized into a repro script and replayed elsewhere.

Generation is deterministic: ``random.Random`` is seeded with a string
(CPython hashes str seeds with sha512, immune to hash randomization),
so the same (driver, seed, mode) triple yields the same schedule in
every process.
"""

import random

from ..family import FAMILIES

#: The driver pairs the conformance sweep covers: every family.
DRIVERS = tuple(FAMILIES)

MODES = ("strict", "faulty")


class Scenario:
    """One deterministic schedule for one driver pair."""

    __slots__ = ("driver", "seed", "mode", "events", "faults")

    def __init__(self, driver, seed, mode, events, faults=None):
        if driver not in FAMILIES:
            raise ValueError("unknown driver %r (one of %s)"
                             % (driver, ", ".join(DRIVERS)))
        if mode not in MODES:
            raise ValueError("unknown mode %r" % mode)
        self.driver = driver
        self.seed = seed
        self.mode = mode
        self.events = list(events)
        self.faults = list(faults or [])

    @property
    def family(self):
        """The driver's :class:`repro.family.DeviceFamily`."""
        return FAMILIES[self.driver]

    def to_json(self):
        return {
            "driver": self.driver,
            "seed": self.seed,
            "mode": self.mode,
            "events": self.events,
            "faults": self.faults,
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["driver"], data["seed"], data["mode"],
                   data["events"], data.get("faults"))

    def replace_events(self, events):
        """A copy with a different event list (minimization)."""
        return Scenario(self.driver, self.seed, self.mode, events,
                       self.faults)

    def describe(self):
        return "%s seed=%d mode=%s events=%d faults=%d" % (
            self.driver, self.seed, self.mode, len(self.events),
            len(self.faults))


class ScenarioGenerator:
    """Expands (driver, seed, mode) into a :class:`Scenario`."""

    def __init__(self, seed):
        self.seed = seed

    def _rng(self, driver, mode):
        return random.Random("conformance:%s:%d:%s"
                             % (driver, self.seed, mode))

    def generate(self, driver, mode="strict"):
        rng = self._rng(driver, mode)
        events = FAMILIES[driver].generate(rng, mode)
        faults = self._gen_faults(rng, driver) if mode == "faulty" else []
        return Scenario(driver, self.seed, mode, events, faults)

    def _gen_faults(self, rng, driver):
        """One fault spec, armed on the decaf rig only.

        ``xpc_raise`` with an occurrence count is the most portable
        fault -- every decaf driver crosses the boundary -- but the Nth
        crossing only lands mid-scenario if N fits the driver's
        post-arming crossing budget (the family's ``xpc_at`` range).
        The budgets differ wildly between drivers: some cross only on
        config ops, others only on a once-a-second poll (which is why
        such families stretch their faulty event spacing to seconds).
        Exactly one fault per scenario: recovery itself crosses the
        boundary dozens of times, so a second armed occurrence count
        tends to land mid-recovery and trips the supervisor's give-up
        backoff rather than modeling a fresh failure.
        """
        lo, hi = FAMILIES[driver].xpc_at
        return [{"kind": "xpc_raise", "at": rng.randrange(lo, hi)}]
