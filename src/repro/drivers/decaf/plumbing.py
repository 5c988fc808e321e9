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
"""

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


class DecafPlumbing:
    def __init__(self, kernel, driver_name, irq_line=None,
                 weak_shared_objects=True, plan=None):
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

    def record(self, op, *args):
        """Record a configuration call for shadow-driver replay."""
        self.replay_log.record(op, *args)

    def unrecord(self, op):
        self.replay_log.remove(op)

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

    def downcall_checked(self, func, args=(), extra=None, exc_type=None):
        """Decaf -> kernel call that raises on a negative errno return."""
        ret = self.channel.downcall(func, args, extra)
        if isinstance(ret, int) and ret < 0:
            raise (exc_type or DriverException)(
                "%s failed with errno %d" % (getattr(func, "__name__", func),
                                             ret),
                errno=ret,
            )
        return ret
