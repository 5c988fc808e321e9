"""The kernel half every decaf driver shares: :class:`Nucleus`.

One :class:`Nucleus` per device is the driver nucleus of section 2.2:
it owns that device's side of the Decaf architecture -- the domain
manager, the XPC channel (with the marshaling plan DriverSlicer
produced for this driver), the nuclear runtime linked into it (kernel
side) and the decaf runtime (user side) -- and the per-device
lifecycle: probe, starting (and, after a fault, restarting) the user
half, remove and the dead-half path.

``slice_plan`` gives each driver the marshaling plan DriverSlicer
generated for it: the decaf drivers run on generated metadata, not
hand-maintained field lists.  Slicing happens at build time
(``python -m repro.slicer.plans`` writes :mod:`.marshal_plans`, and a
tier-1 test fails when that table is stale), so a probe only turns the
checked-in table into a :class:`MarshalPlan` and never imports the
slicer's source analysis.

The XPC stubs are one generic stub per direction, made once per
nucleus class by :func:`xpc_stubs` (section 2.3, Figure 2).
``nucleus.down`` is the decaf driver's only way into the kernel: one
stub per ``k_*`` entry point of its nucleus.  ``nucleus.up`` is the
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
    __slots__ = ("_nucleus",)

    def __init__(self, nucleus):
        self._nucleus = nucleus


def _down_stub(name):
    def stub(self, *args, exc=DriverException):
        # The nucleus's current bound method: an entry point replaced
        # on the instance is the one that crosses.
        nucleus = self._nucleus
        func = getattr(nucleus, name)
        ret = nucleus.channel.downcall(func, *_split(args))
        if isinstance(ret, int) and ret < 0:
            raise exc("%s failed with errno %d"
                      % (getattr(func, "__name__", func), ret), errno=ret)
        return ret
    stub.__name__ = stub.__qualname__ = name
    return stub


def _up_stub(name, replay):
    def stub(self, *args):
        nucleus = self._nucleus
        ret = nucleus.upcall(getattr(nucleus.decaf, name), *_split(args))
        if ret == 0 and replay is not None:
            if replay == RECORD:
                nucleus.replay_log.record(getattr(self, name), *args)
            else:
                for entry in replay:
                    nucleus.replay_log.remove(entry)
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
    (see :meth:`Nucleus.upcall`) and applies the replay class.
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


class Nucleus:
    """The kernel half of one device's decaf driver: the glue DriverSlicer
    generates around the unchanged legacy code (sections 2.2, 3.2),
    which is the same for every driver, written once.

    A nucleus class (decorated with :func:`xpc_stubs`) names its legacy
    module ``LEGACY`` (``linux``, ``DRV_NAME``), that module's
    per-device ``STATE`` class, its ``DECAF`` driver class, its one
    ``POLL`` (period in ns and name, or None) and ``UPCALLS``, and
    supplies :meth:`setup` (the root struct and the probe upcall),
    :meth:`teardown` (the remove upcall), the ``k_*`` entry points,
    :meth:`poll_body`, :meth:`fault_quiesce` and :meth:`reclaim`.
    Recovery is quiesce, :meth:`start_user_half` (as at probe), replay.
    A dead user half cannot remove its device, so :meth:`remove` then
    silences it and reclaims what probe registered from the kernel
    side, crossing nothing.  The nucleus owns its device's side of the
    XPC boundary, which :meth:`connect` builds.
    """

    LEGACY = None
    STATE = None
    DECAF = None
    POLL = None
    UPCALLS = {}

    def __init__(self, kernel, options=None):
        self.kernel = kernel
        self.options = options  # insmod-time module options
        self.linux = self.LEGACY.linux
        self.state = self.STATE()
        self.pdev = None  # the bus device: a PCI function or serio port
        self.decaf = self.poll = None

    @staticmethod
    def module_init():
        """The decaf module's own init step, after the legacy driver's;
        returns 0 or a negative errno."""
        return 0

    def connect(self, driver_name, irq_line=None, plan=None):
        """Build this device's XPC boundary, the first step of probe:
        domains, the channel (on ``plan``, by default the driver's
        sliced one) with its failure policy, the nuclear runtime
        (masking ``irq_line`` during upcalls), the decaf runtime, the
        replay log, the supervisor link and the ``down``/``up`` stubs.
        """
        kernel = self.kernel
        self.driver_name = driver_name
        self.domains = DomainManager()
        self.xpc = Xpc(kernel)
        self.xpc.name = driver_name
        self.channel = XpcChannel(
            self.xpc,
            self.domains,
            plan if plan is not None else slice_plan(driver_name),
            name=driver_name,
            # A decaf shared object's kernel twin is released when the
            # object is collected (section 5.1's finalizer extension).
            weak_shared_objects=True,
        )
        self.nuclear = NuclearRuntime(kernel, self.channel, irq_line)
        self.decaf_rt = DecafRuntime(kernel, self.channel)
        # Failure boundary: DriverException is the checked error
        # protocol; anything else escaping the user level marks the
        # driver FAILED and notifies the supervisor, if one is attached.
        self.channel.failure_policy = FailurePolicy(
            checked=(DriverException,), on_fault=self._on_fault)
        self.replay_log = ReplayLog()
        self.supervisor = None  # attached by repro.recovery.DriverSupervisor
        self.down = self.Down(self)
        self.up = self.Up(self)

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
        for retry in (True, False):
            try:
                ret = self.nuclear.upcall(func, args, extra)
            except DriverException as exc:
                return errno_of(exc)
            except DriverFailedError as exc:
                supervisor = self.supervisor
                if not (retry and supervisor is not None
                        and supervisor.recover()):
                    return errno_of(exc.cause)
                # The restart rebuilt the user half: a method of the
                # dead instance is retried on the live one, by name.
                live = self.decaf
                if type(getattr(func, "__self__", None)) is type(live):
                    func = getattr(live, func.__name__)
            else:
                return 0 if ret is None else ret

    def disconnect(self):
        """Release the channel's resources (handles, pending
        notifications), so long-running rigs do not accumulate
        opaque-handle entries across loads."""
        self.channel.close()
        self.xpc.close()

    def probe(self, pdev):
        self.pdev = pdev
        self.connect(self.LEGACY.DRV_NAME, getattr(pdev, "irq", None))
        if self.POLL is not None:
            period_ns, name = self.POLL
            self.poll = self.nuclear.defer_timer(
                self.poll_body, period_ns, name)
        self.start_user_half()
        ret = self.setup(pdev)
        if ret:
            self.disconnect()
        return ret

    def start_user_half(self):
        """Start a user half: the decaf runtime, paying JVM startup (the
        dominant term of the paper's recovery latency), and fresh decaf
        instances bound to it.  Probe starts the first; recovery starts
        one after each fault, once the failed channel's user side is
        reset (the channel keeps its kernel side: trackers, counters,
        codec).
        """
        channel = self.channel
        if channel.failed:
            channel.reset_user_side()
            self.decaf_rt = DecafRuntime(self.kernel, channel)
        self.decaf_rt.start()
        self.decaf = self.new_user_half()

    def new_user_half(self):
        return self.DECAF(self.decaf_rt, self.down)

    def supervision_started(self):
        """A supervisor attached: nuclei that poll their user half only
        under supervision start the poll here."""

    def user_half_dead(self):
        """True when the user half FAILED and nothing will restart it:
        no supervisor, or one that gave up."""
        supervisor = self.supervisor
        return self.channel.failed and (supervisor is None
                                        or supervisor.gave_up)

    def remove(self, pdev):
        if self.user_half_dead():
            self.fault_quiesce()
            self.reclaim()
        else:
            self.teardown(pdev)
        self.decaf = None
        self.disconnect()
