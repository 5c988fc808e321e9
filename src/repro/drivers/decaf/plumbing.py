"""XPC plumbing shared by all decaf drivers.

One :class:`DecafPlumbing` per driver wires together the pieces of the
Decaf architecture: the domain manager, the XPC channel (with the
marshaling plan DriverSlicer produced for this driver), the nuclear
runtime (kernel side), and the decaf runtime (user side).

``slice_plan`` gives each driver the marshaling plan DriverSlicer
generated for it: the decaf drivers run on generated metadata, not
hand-maintained field lists.  Slicing happens at build time
(``python -m repro.slicer.plans`` writes :mod:`.marshal_plans`, and a
tier-1 test fails when that table is stale), so a probe only turns the
checked-in table into a :class:`MarshalPlan` and never imports the
slicer's source analysis.

The XPC stubs are one generic stub per direction, made once per
nucleus class by :func:`xpc_stubs` (section 2.3, Figure 2).
``plumbing.down`` is the decaf driver's only way into the kernel: one
stub per ``k_*`` entry point of its nucleus.  ``plumbing.up`` is the
nucleus's way up: one stub per method in the nucleus's ``UPCALLS``
table, which also declares how each call is replayed after a restart.
"""

from ...core.cstruct import CStruct
from ...core.domains import DomainManager
from ...core.marshal import MarshalPlan
from ...core.runtime import DecafRuntime, NuclearRuntime
from ...core.xpc import DriverFailedError, FailurePolicy, Xpc, XpcChannel
from ...recovery.log import ReplayLog
from ..decaf.exceptions import DriverException, errno_of
from .marshal_plans import PLANS

_PLAN_CACHE = {}


def slice_plan(driver_name):
    """MarshalPlan for a driver, from the generated plan table.

    The table is the union of the legacy-source field-access analysis
    and the decaf-source analysis, so the plan covers fields either
    half of the split touches.  One plan per driver per process.
    """
    plan = _PLAN_CACHE.get(driver_name)
    if plan is None:
        plan = _PLAN_CACHE[driver_name] = MarshalPlan.from_table(
            PLANS[driver_name])
    return plan


# Replay classes for a nucleus's UPCALLS table: a successful call is
# recorded for replay (latest-wins per method), drops the named replay
# entries, or (None) leaves the log alone.
RECORD = "record"


def unrecord(*names):
    return names


def _split(args):
    """Leading struct arguments marshal as their own class; the rest
    pass through unmarshaled."""
    n = 0
    for arg in args:
        if not isinstance(arg, CStruct):
            break
        n += 1
    return [(arg, type(arg)) for arg in args[:n]], args[n:]


class _Stubs:
    __slots__ = ("_plumbing", "_nucleus")

    def __init__(self, plumbing, nucleus):
        self._plumbing = plumbing
        self._nucleus = nucleus


def _down_stub(name):
    def stub(self, *args, exc=DriverException):
        # The nucleus's current bound method: an entry point replaced
        # on the instance is the one that crosses.
        func = getattr(self._nucleus, name)
        ret = self._plumbing.channel.downcall(func, *_split(args))
        if isinstance(ret, int) and ret < 0:
            raise exc("%s failed with errno %d"
                      % (getattr(func, "__name__", func), ret), errno=ret)
        return ret
    stub.__name__ = stub.__qualname__ = name
    return stub


def _up_stub(name, replay):
    def stub(self, *args):
        plumbing = self._plumbing
        ret = plumbing.upcall(getattr(self._nucleus.decaf, name),
                              *_split(args))
        if ret == 0 and replay is not None:
            if replay == RECORD:
                plumbing.record(getattr(self, name), *args)
            else:
                for entry in replay:
                    plumbing.unrecord(entry)
        return ret
    stub.__name__ = stub.__qualname__ = name
    return stub


def xpc_stubs(cls):
    """Class decorator for a driver nucleus: its two stub classes.

    ``cls.Down`` has one downcall stub per kernel entry point (each
    ``k_*`` method): ``down.k_x(struct, ..., scalar, ..., exc=E)``
    marshals the leading structs, passes the rest through, and raises
    ``E`` on a negative errno.  ``cls.Up`` has one upcall stub per
    entry of ``cls.UPCALLS``, a ``{decaf method: replay class}`` table:
    ``up.m(struct, ..., scalar, ...)`` bridges exceptions to errnos
    (see :meth:`DecafPlumbing.upcall`) and applies the replay class.
    """
    cls.Down = type(cls.__name__ + "Down", (_Stubs,), {
        "__slots__": (),
        **{name: _down_stub(name) for name in dir(cls)
           if name.startswith("k_")}})
    cls.Up = type(cls.__name__ + "Up", (_Stubs,), {
        "__slots__": (),
        **{name: _up_stub(name, replay)
           for name, replay in cls.UPCALLS.items()}})
    return cls


class DecafPlumbing:
    def __init__(self, kernel, driver_name, irq_line=None,
                 weak_shared_objects=True, plan=None, nucleus=None):
        self.kernel = kernel
        self.driver_name = driver_name
        self.domains = DomainManager()
        self.xpc = Xpc(kernel)
        self.xpc.name = driver_name
        self.channel = XpcChannel(
            self.xpc,
            self.domains,
            plan if plan is not None else slice_plan(driver_name),
            name=driver_name,
            weak_shared_objects=weak_shared_objects,
        )
        self.nuclear = NuclearRuntime(kernel, self.domains, self.channel,
                                      irq_line=irq_line)
        self.decaf_rt = DecafRuntime(kernel, self.domains, self.channel)
        # Failure boundary: DriverException is the checked error
        # protocol; anything else escaping the user level marks the
        # driver FAILED and notifies the supervisor, if one is attached.
        self.channel.failure_policy = FailurePolicy(
            checked=(DriverException,), on_fault=self._on_fault
        )
        self.replay_log = ReplayLog()
        self.supervisor = None  # attached by repro.recovery.DriverSupervisor
        self.restarts = 0
        if nucleus is not None:
            self.down = nucleus.Down(self, nucleus)
            self.up = nucleus.Up(self, nucleus)

    def _on_fault(self, exc, callsite):
        if self.supervisor is not None:
            self.supervisor.note_fault(exc, callsite)

    def upcall(self, func, args=(), extra=None):
        """Kernel -> decaf call with exception-to-errno bridging.

        RPC semantics only pass scalars back; a DriverException raised
        by the decaf driver crosses the boundary as its negative errno,
        exactly how the paper's generated stubs report failures to the
        kernel.  An *unchecked* exception is a driver failure: the
        channel contains it (never letting it reach the kernel caller);
        with a supervisor attached the driver is restarted in place and
        the call retried once, otherwise the caller sees the fault's
        errno.
        """
        try:
            ret = self.nuclear.upcall(func, args, extra)
        except DriverException as exc:
            return errno_of(exc)
        except DriverFailedError as exc:
            if self.supervisor is not None and self.supervisor.recover():
                try:
                    ret = self.nuclear.upcall(func, args, extra)
                except DriverException as exc2:
                    return errno_of(exc2)
                except DriverFailedError as exc2:
                    return errno_of(exc2.cause)
                return 0 if ret is None else ret
            return errno_of(exc.cause)
        return 0 if ret is None else ret

    # -- recovery support -------------------------------------------------------

    def record(self, fn, *args):
        """Record the entry point ``fn(*args)`` for shadow-driver
        replay, under ``fn``'s name."""
        self.replay_log.record(fn, *args)

    def unrecord(self, name):
        self.replay_log.remove(name)

    def restart_user_half(self):
        """Replace the dead user-level half with a fresh one.

        The channel keeps its kernel side (trackers, counters, codec);
        the user side is reset and a new DecafRuntime started -- paying
        the JVM startup cost again, which is the dominant term of the
        paper's recovery latency.
        """
        self.channel.reset_user_side()
        self.decaf_rt = DecafRuntime(self.kernel, self.domains, self.channel)
        self.decaf_rt.start()
        self.restarts += 1

    def notify(self, func, args=(), extra=None):
        """Queue a fire-and-forget kernel -> decaf notification.

        Legal from any context; crosses (batched, coalesced) at the
        channel's next sync point or an explicit
        :meth:`flush_notifications`.
        """
        self.nuclear.notify(func, args, extra)

    def flush_notifications(self):
        """Drain queued notifications in one batched crossing."""
        return self.nuclear.flush_notifications()

    def close(self):
        """Release channel resources (handles, pending notifications).

        Wired into :class:`DecafDriverModule` teardown so long-running
        rigs do not accumulate opaque-handle entries across loads.
        """
        self.channel.close()
        self.xpc.close()
