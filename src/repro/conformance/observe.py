"""Observation collection and canonical digests.

An :class:`Observation` is everything about one run that an outside
observer (the device on one side, applications and dmesg on the other)
can see, held as plain JSON-able values so that byte-identical
observations produce byte-identical digests -- the determinism
invariant the conformance harness rests on.
"""

import hashlib
import json


def canonical_json(obj):
    """Canonical serialization: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj):
    """sha256 over the canonical JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def frame_digest(data):
    """Short per-payload digest; traces stay readable in repro output."""
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


#: dmesg lines whose *presence pattern* legitimately differs between the
#: variants: boundary traffic, recovery narration, and injected-fault
#: markers only exist on the decaf side; lockdep has its own channel.
DMESG_EXCLUDE_PREFIXES = ("xpc ", "recovery ", "fault-inject", "lockdep:")


def normalize_dmesg(entries):
    """Comparable view of the printk ring: (level, message) at warn+.

    Timestamps are dropped (the variants run on different virtual
    schedules) and boundary-chatter prefixes are excluded -- what is
    left is the driver-visible error surface that must match.
    """
    out = []
    for _ns, level, message in entries:
        if level not in ("warn", "err"):
            continue
        if message.startswith(DMESG_EXCLUDE_PREFIXES):
            continue
        out.append([level, message])
    return out


class Observation:
    """All observable channels of one scenario run, JSON-able."""

    __slots__ = ("channels",)

    #: Channels asserted equal between variants in strict mode.  The
    #: ``counters`` channel is compared with bounds instead (crossing
    #: counts are decaf-only by design), and ``reg_trace`` equality is
    #: per-family (see ``DeviceFamily.reg_trace``).
    STRICT_EQUAL = ("tx", "rx", "input", "disk", "sound", "ops", "dmesg")

    def __init__(self):
        self.channels = {
            "reg_trace": [],   # [op, region, offset, size, value]
            "tx": [],          # frame digests, device->wire order
            "rx": [],          # frame digests, stack-delivery order
            "input": [],       # [type, code, value] triples
            "disk": {},        # lba -> block digest
            "sound": {},       # end-of-run device/runtime state
            "ops": [],         # [event index, op, return value]
            "dmesg": [],       # normalized warn+ lines
            "counters": {},    # packet / crossing / recovery counters
            "lockdep": [],     # [kind, message] -- must stay empty
        }

    def __getitem__(self, key):
        return self.channels[key]

    def __setitem__(self, key, value):
        self.channels[key] = value

    def to_json(self):
        return self.channels

    def digest(self):
        return digest_of(self.channels)


def is_subsequence(needle, haystack):
    """True if ``needle`` appears in ``haystack`` in order (with gaps).

    The faulty-mode delivery invariant: a recovering decaf driver may
    *lose* payloads relative to the fault-free legacy run, but must
    never reorder, duplicate, or corrupt them.
    """
    it = iter(haystack)
    return all(item in it for item in needle)
