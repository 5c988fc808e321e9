"""Extension procedure call (XPC).

XPC provides the five services of section 2.3 -- control transfer,
object transfer, object sharing, synchronization hooks, and the stub
call discipline -- across the two boundaries of the Decaf architecture:

* **kernel <-> user** (driver nucleus <-> driver library/decaf driver):
  a process crossing.  Calling up to user level *sleeps*, so it is
  checked against the execution context: an upcall from interrupt
  context or under a spinlock raises, which is precisely the rule that
  decides the partition.
* **C <-> Java** (driver library <-> decaf driver): a language crossing
  (Jeannie/JNI in the paper).  Cheap, no scheduling.  Every language
  crossing in the tree goes through :meth:`XpcChannel.direct_call`,
  which charges the transition and marshals nothing: the runtimes' port
  and MMIO accessors, the E1000 decaf driver's library calls and the
  migration :class:`~repro.drivers.decaf.transition.TransitionTable`.
  :meth:`XpcChannel.lang_call`, which also marshals struct arguments,
  has no caller in a driver.

Every crossing updates counters (Table 3's "User/Kernel Crossings"
column is :attr:`Xpc.kernel_user_crossings`, kstat ``xpc.crossings``)
and charges the virtual clock per the cost model.

Fast-path mechanics layered on the baseline protocol:

* **Delta return trips** -- the return path of ``upcall`` / ``downcall``
  / ``lang_call`` marshals only fields the callee actually wrote
  (dirty-field tracking on :class:`~repro.core.cstruct.CStruct`).
* **Deferred one-way notifications** -- :meth:`XpcChannel.defer`
  queues fire-and-forget calls (watchdog kicks, period-elapsed ticks)
  and coalesces repeats; the queue is flushed in a *single* crossing at
  the next sync point (any upcall/downcall, or an explicit
  :meth:`flush_deferred`), charged batch-aware costs.
"""

import itertools
import weakref

from .domains import DECAF, DRIVER_LIB, KERNEL
from .marshal import (
    MarshalCodec, TO_KERNEL, TO_USER, TransferContext, TypeRegistry,
)
from .objtracker import KernelObjectTracker, UserObjectTracker

#: First opaque handle a channel hands out: above every id() and every
#: bus or MMIO address, so no plain integer in an opaque field is
#: mistaken for a handle.
_HANDLE_BASE = (1 << 48) + 1


def _handle_reaper(channel_ref):
    """Weakref callback dropping a dead object's handle from its channel
    (holds the channel weakly, so handles do not keep it alive)."""
    def reap(ref):
        channel = channel_ref()
        if channel is None:
            return
        key, handle = ref.key
        channel._handles.pop(handle, None)
        if channel._handle_ids.get(key) == handle:
            del channel._handle_ids[key]
    return reap


class XpcError(Exception):
    pass


class DriverFailedError(XpcError):
    """A crossing was aborted or rejected because the driver FAILED.

    Raised at the kernel end of a channel when an *unchecked* exception
    escapes the user-level half (the fault that marked the channel
    failed is ``cause``), and for every subsequent call until the
    channel is reset -- failing fast beats computing with a corrupted
    driver.
    """

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


class FailurePolicy:
    """What the kernel end of a channel does with escaping exceptions.

    ``checked`` exception types are part of the driver's error protocol
    (Decaf's checked exceptions): they propagate to the caller, which
    translates them to errnos.  Anything else is a driver *failure*:
    the channel is marked FAILED and ``on_fault(exc, callsite)`` is
    invoked (the supervisor's hook).  A channel without a policy keeps
    the raw propagate-everything semantics the core tests rely on.
    """

    def __init__(self, checked=(), on_fault=None):
        self.checked = tuple(checked)
        self.on_fault = on_fault


def _callsite(func):
    """Human-readable name of the function crossing the boundary."""
    return (
        getattr(func, "__qualname__", None)
        or getattr(func, "__name__", None)
        or repr(func)
    )


class _KernelSideContext(TransferContext):
    """Decode/encode context for the kernel end of a channel."""

    def __init__(self, channel):
        self._channel = channel

    def resolve(self, identity, struct_cls, type_id):
        tracker = self._channel.kernel_tracker
        obj = tracker.lookup(identity)
        if obj is not None:
            return obj, False
        # A user-born object arriving in the kernel for the first time:
        # allocate the kernel twin and make its address canonical.
        obj = struct_cls()
        tracker.register(obj)
        tracker._by_addr[identity] = obj  # alias the wire identity
        self._channel.canonicalize_user_object(identity, type_id, obj)
        return obj, True

    def register(self, identity, struct_cls, type_id, obj):
        if self._channel.kernel_tracker.lookup(identity) is None:
            self._channel.kernel_tracker._by_addr[identity] = obj

    def handle_of(self, obj):
        return self._channel.handle_of(obj)

    def object_of(self, handle):
        return self._channel.object_of(handle)


class _UserSideContext(TransferContext):
    """Decode/encode context for the user (decaf) end of a channel."""

    def __init__(self, channel):
        self._channel = channel

    def resolve(self, identity, struct_cls, type_id):
        tracker = self._channel.user_tracker
        obj = tracker.xlate_c_to_j(identity, type_id)
        if obj is not None:
            return obj, False
        obj = struct_cls()
        tracker.associate(
            identity, type_id, obj, weak=self._channel.weak_shared_objects
        )
        return obj, True

    def register(self, identity, struct_cls, type_id, obj):
        tracker = self._channel.user_tracker
        if tracker.xlate_c_to_j(identity, type_id) is None:
            tracker.associate(identity, type_id, obj)

    def identity_of(self, obj):
        key = self._channel.user_tracker.xlate_j_to_c(obj)
        if key is not None:
            return key[0]
        return obj.c_addr

    def handle_of(self, obj):
        if isinstance(obj, int):
            return obj
        return self._channel.handle_of(obj)

    def object_of(self, handle):
        # User level keeps opaque kernel pointers as plain integers.
        return handle


class Xpc:
    """Global XPC bookkeeping shared by all channels of one driver.

    kstat reports every counter both summed across drivers
    (``xpc.crossings``) and per driver under :attr:`name`
    (``xpc.<name>.crossings``); the driver nucleus that owns it sets it
    to the driver's name.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.name = "xpc"
        self.channels = []
        self.kernel_user_crossings = 0   # round trips across the kernel boundary
        self.lang_crossings = 0          # round trips across the C/Java boundary
        self.bytes_marshaled = 0
        self.upcalls = 0
        self.downcalls = 0
        # Deferred-notification accounting (batched one-way crossings).
        self.deferred_calls = 0       # notifications enqueued
        self.deferred_coalesced = 0   # enqueues absorbed by a queued duplicate
        self.deferred_flushes = 0     # batches flushed (crossings paid)
        self.deferred_errors = 0      # notifications whose handler raised
        self.deferred_dropped = 0     # pending notifications dropped at close
        # Failure-boundary accounting.
        self.boundary_faults = 0      # unchecked exceptions contained
        self.failed_calls = 0         # calls rejected fast on a FAILED channel
        self.deferred_error_types = {}  # exception type name -> count
        # kstat: multiple Xpc instances (multi-driver rigs) all register
        # under "xpc"; numeric collisions sum, so the snapshot is the
        # whole-kernel aggregate.
        kernel.kstat.register("xpc", self._kstat)

    def close(self):
        """Drop the kstat registration (driver-instance teardown).

        Without this every probe/remove cycle of a decaf driver leaves
        one more provider behind and kstat snapshots grow without
        bound under hotplug churn.
        """
        self.kernel.kstat.unregister("xpc", self._kstat)

    def _kstat(self):
        # Marshaling and object-tracking counts live on each channel's
        # codec and trackers.
        codecs = [channel.codec for channel in self.channels]
        trackers = [tracker for channel in self.channels
                    for tracker in (channel.kernel_tracker,
                                    channel.user_tracker)]
        counts = {
            "crossings": self.kernel_user_crossings,
            "lang_crossings": self.lang_crossings,
            "upcalls": self.upcalls,
            "downcalls": self.downcalls,
            "bytes": self.bytes_marshaled,
            "fields": sum(c.fields_marshaled for c in codecs),
            "delta_fields_saved": sum(c.delta_fields_skipped for c in codecs),
            "tracker_lookups": sum(t.lookups for t in trackers),
            "tracker_hits": sum(t.hits for t in trackers),
            "deferred_calls": self.deferred_calls,
            "deferred_coalesced": self.deferred_coalesced,
            "deferred_flushes": self.deferred_flushes,
            "deferred_errors": self.deferred_errors,
            "deferred_dropped": self.deferred_dropped,
            "boundary_faults": self.boundary_faults,
            "failed_calls": self.failed_calls,
        }
        out = dict(counts)
        for key, value in counts.items():
            out["%s.%s" % (self.name, key)] = value
        for exc_name, count in self.deferred_error_types.items():
            out["%s.deferred_errors.%s" % (self.name, exc_name)] = count
        return out


class XpcChannel:
    """An XPC endpoint pair with its codec, trackers and handle table.

    One channel serves one decaf driver: the same object trackers back
    both the kernel/user boundary and the C/Java boundary, with
    crossings counted separately per boundary.  Each channel owns a
    private :class:`TypeRegistry`, so wire type ids never leak between
    rigs.
    """

    #: Installed as ``corrupt_hook`` on every new channel (normally
    #: None).  Seam for probe-time payload attacks; see __init__.
    default_corrupt_hook = None

    def __init__(self, xpc, domains, plan=None, name="xpc",
                 weak_shared_objects=False):
        self.xpc = xpc
        xpc.channels.append(self)
        self.domains = domains
        self.type_ids = TypeRegistry()
        self.codec = MarshalCodec(plan, type_ids=self.type_ids)
        self.name = name
        self.weak_shared_objects = weak_shared_objects
        self.kernel_tracker = KernelObjectTracker()
        self.user_tracker = UserObjectTracker()
        self.kernel_ctx = _KernelSideContext(self)
        self.user_ctx = _UserSideContext(self)
        # Opaque-handle table.  Each object gets a fresh handle, never
        # reused on this channel, so a stale handle cannot resolve to a
        # newer object that reuses a dead one's id().  Objects are held
        # weakly (handle -> KeyedRef): a kernel object that dies, such as
        # a DMA region the nucleus freed, takes its handle with it.
        # Objects that cannot be weakly referenced (plain lists/dicts)
        # fall back to a strong table released on close().
        self._handles = {}
        self._strong_handles = {}
        self._handle_ids = {}    # id(obj) -> handle, live objects only
        self._handle_seq = itertools.count(_HANDLE_BASE)
        self._reap_handle = _handle_reaper(weakref.ref(self))
        self._deferred = []
        self._flushing = False
        self.closed = False
        # Failure boundary (opt-in): a driver nucleus installs a
        # FailurePolicy; a bare channel propagates everything.
        self.failure_policy = None
        self.failed = False
        self.failure = None           # (exc, callsite, ns) of first fault
        self.last_deferred_error = None
        # Fault-injection hooks (repro.faults): inject_hook(kind,
        # callsite) may raise before user code runs; corrupt_hook(data,
        # direction) may mangle a marshaled payload in flight.  The
        # class-level default lets repro.explore's adversary attack
        # *probe-time* crossings -- the channel is constructed mid-insmod,
        # before any caller can reach the instance to install a hook.
        self.inject_hook = None
        self.corrupt_hook = XpcChannel.default_corrupt_hook
        # Stats of the most recent _transfer_args call:
        # (bytes, fields, tracker_lookups, tracker_hits, delta_saved).
        # Call sites that trace read it immediately after each transfer.
        self.last_transfer = (0, 0, 0, 0, 0)

    # -- opaque handles ---------------------------------------------------------

    def handle_of(self, obj):
        if obj is None:
            return 0
        if isinstance(obj, int):
            return obj
        key = id(obj)
        handle = self._handle_ids.get(key)
        if handle is None:
            handle = next(self._handle_seq)
            try:
                self._handles[handle] = weakref.KeyedRef(
                    obj, self._reap_handle, (key, handle))
            except TypeError:
                self._strong_handles[handle] = obj
            self._handle_ids[key] = handle
        return handle

    def object_of(self, handle):
        if handle == 0:
            return None
        ref = self._handles.get(handle)
        obj = ref() if ref is not None else self._strong_handles.get(handle)
        return obj if obj is not None else handle

    def release_handles(self):
        """Drop every opaque-handle mapping (channel teardown)."""
        self._handles.clear()
        self._strong_handles.clear()
        self._handle_ids.clear()

    def handle_count(self):
        return len(self._handles) + len(self._strong_handles)

    def close(self):
        """Tear the channel down: drop pending notifications, release
        opaque handles and the user tracker's associations.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        if self._deferred:
            self.xpc.deferred_dropped += len(self._deferred)
            self._deferred.clear()
        self.release_handles()
        # Associations made by this driver instance must not survive it:
        # a reloaded driver's objects can land at the same simulated
        # addresses and alias stale entries.
        self.user_tracker.clear()

    def reset_user_side(self):
        """Reset the user end of a FAILED channel for a driver restart.

        Everything the dead user-level half owned is dropped: pending
        notifications (counted as dropped), opaque handles, and the
        user object tracker (epoch-bumped, so GC of the dead instance's
        objects cannot release the new instance's twins).  Kernel-side
        state (the kernel tracker, counters) stays: kernel objects
        survive the restart.
        """
        if self._deferred:
            self.xpc.deferred_dropped += len(self._deferred)
            self._deferred.clear()
        self.release_handles()
        self.user_tracker.clear()
        self.failed = False
        self.failure = None

    # -- failure containment ----------------------------------------------------

    def _contain(self, exc, callsite):
        """Decide whether ``exc`` escaping ``callsite`` is a driver fault.

        Checked exceptions (per the installed policy) and exceptions on
        a policy-free channel propagate -- return False.  Anything else
        marks the channel FAILED, counts the fault, and notifies the
        policy's fault hook; the caller then raises DriverFailedError.
        """
        policy = self.failure_policy
        if policy is None or isinstance(exc, policy.checked):
            return False
        if isinstance(exc, DriverFailedError):
            # Already accounted for by the crossing that contained it;
            # let it propagate unchanged through nested calls.
            return False
        kernel = self.xpc.kernel
        self.xpc.boundary_faults += 1
        if not self.failed:
            self.failed = True
            self.failure = (exc, callsite, kernel.clock.now_ns)
        kernel.printk(
            "xpc %s: unchecked %s escaped %s: %s -- driver FAILED"
            % (self.name, type(exc).__name__, callsite, exc),
            level="err",
        )
        tracer = kernel.tracer
        if tracer is not None:
            tracer.instant("xpc.fault", {
                "driver": self.name, "callsite": callsite,
                "exc": type(exc).__name__,
            })
        health = kernel.health
        if health is not None:
            health.on_boundary_fault(self.name, callsite, exc)
        if policy.on_fault is not None:
            policy.on_fault(exc, callsite)
        return True

    def _record_deferred_error(self, func, exc):
        """Keep the evidence when a deferred handler raises (satellite:
        the old path swallowed type and traceback entirely)."""
        self.last_deferred_error = exc
        name = type(exc).__name__
        types = self.xpc.deferred_error_types
        types[name] = types.get(name, 0) + 1
        kernel = self.xpc.kernel
        kernel.printk(
            "xpc %s: deferred notification %s raised %s: %s"
            % (self.name, _callsite(func), name, exc),
            level="warn",
        )
        tracer = kernel.tracer
        if tracer is not None:
            tracer.instant("xpc.deferred_error", {
                "driver": self.name, "callsite": _callsite(func),
                "exc": name,
            })

    def _fail_fast(self, kind, func):
        """Reject a call on a FAILED channel without crossing."""
        self.xpc.failed_calls += 1
        exc, callsite, _ns = self.failure or (None, "?", 0)
        raise DriverFailedError(
            "xpc %s: %s %s rejected -- driver FAILED (first fault: %s at %s)"
            % (self.name, kind, _callsite(func),
               type(exc).__name__ if exc is not None else "?", callsite),
            cause=exc,
        )

    def canonicalize_user_object(self, user_identity, type_id, kernel_obj):
        """Re-key a Java-born object to its new kernel twin's address."""
        tracker = self.user_tracker
        java_obj = tracker.xlate_c_to_j(user_identity, type_id)
        if java_obj is not None:
            tracker.disassociate(java_obj)
            tracker.associate(kernel_obj.c_addr, type_id, java_obj)

    # -- cost charging ------------------------------------------------------------

    def _charge_marshal(self, nbytes, nfields):
        xpc = self.xpc
        kernel = xpc.kernel
        costs = kernel.costs
        xpc.bytes_marshaled += nbytes
        kernel.consume(
            int(nbytes * costs.marshal_byte_ns + nfields * costs.marshal_field_ns),
            busy=True,
            category="marshal",
        )

    def _charge_kernel_crossing(self):
        # The crossing itself (syscall, copies) burns CPU; the thread
        # dispatch is mostly *waiting* for the scheduler and the user
        # process -- latency, not CPU -- so it is charged as idle time.
        kernel = self.xpc.kernel
        costs = kernel.costs
        kernel.consume(costs.xpc_kernel_user_ns, busy=True, category="xpc")
        kernel.consume(
            costs.xpc_thread_dispatch_ns, busy=False, category="xpc-wait"
        )

    def _charge_batch_crossing(self, nitems):
        # One crossing carries the whole batch: full crossing cost for
        # the first item, a marginal per-item cost for the rest, one
        # thread dispatch total.
        costs = self.xpc.kernel.costs
        self.xpc.kernel.consume(
            costs.xpc_kernel_user_ns
            + (nitems - 1) * costs.xpc_batch_item_ns,
            busy=True, category="xpc",
        )
        self.xpc.kernel.consume(
            costs.xpc_thread_dispatch_ns, busy=False, category="xpc-wait"
        )

    def _charge_lang_crossing(self):
        # The decaf driver and driver library share one process, so the
        # C<->Java control transfer reuses the calling thread (section
        # 2.3) and pays no thread dispatch.
        self.xpc.kernel.consume(
            self.xpc.kernel.costs.xpc_lang_ns, busy=True, category="xpc")

    # -- marshaling helpers shared by stubs ------------------------------------------

    def _transfer_args(self, args, direction, delta=False):
        """Marshal (obj, cls) pairs across; returns twin objects.

        ``delta=True`` (return trips) copies only fields carrying dirty
        marks.  Either way, every object materialized on the receiving
        side is marked clean afterwards, so its dirty set accumulates
        exactly the writes made *since* this transfer.

        A scalar-only crossing (no struct arguments) skips the codec:
        its wire is the 4-byte argument count and nothing else, so the
        result is charged directly.  An installed ``corrupt_hook`` must
        see the real bytes, so it forces the full path.
        """
        if not args and self.corrupt_hook is None:
            self.codec.last_decoded_objects = ()
            self.last_transfer = (4, 0, 0, 0, 0)
            self._charge_marshal(4, 0)
            return []
        if direction == TO_USER:
            src_ctx, dst_ctx = self.kernel_ctx, self.user_ctx
        else:
            src_ctx, dst_ctx = self.user_ctx, self.kernel_ctx
        kt, ut, codec = self.kernel_tracker, self.user_tracker, self.codec
        lookups0 = kt.lookups + ut.lookups
        hits0 = kt.hits + ut.hits
        skipped0 = codec.delta_fields_skipped
        data, nfields = codec.encode_args(
            args, direction, ctx=src_ctx, delta=delta
        )
        if self.corrupt_hook is not None:
            data = self.corrupt_hook(data, direction)
        twins = codec.decode_args(
            data, [cls for _obj, cls in args], direction, ctx=dst_ctx,
            delta=delta,
        )
        self.last_transfer = (
            len(data),
            nfields,
            kt.lookups + ut.lookups - lookups0,
            kt.hits + ut.hits - hits0,
            codec.delta_fields_skipped - skipped0,
        )
        self._charge_marshal(len(data), nfields)
        # Decoded objects are CStruct twins (the trackers only ever
        # resolve to those): clear their dirty sets directly.
        for obj in codec.last_decoded_objects:
            obj._dirty_fields.clear()
        return twins

    # -- deferred one-way notifications ---------------------------------------------

    def defer(self, func, args=(), extra=None):
        """Queue a fire-and-forget kernel -> user notification.

        Safe from any context (including interrupt handlers and under
        spinlocks): nothing crosses now.  A queued notification for the
        same ``func`` is *replaced* (coalesced) -- the semantics of a
        watchdog kick or period-elapsed tick, where only the latest
        matters.  The queue drains in one batched crossing at the next
        sync point.
        """
        self.xpc.deferred_calls += 1
        tracer = self.xpc.kernel.tracer
        if tracer is not None:
            tracer.instant(
                "xpc.defer",
                {"driver": self.name, "callsite": _callsite(func)},
            )
        # Equality, not identity: a bound method (nucleus.decaf.tick)
        # is a fresh object on every attribute access, but compares
        # equal to itself; distinct lambdas stay distinct.
        for i, (qfunc, _qargs, _qextra) in enumerate(self._deferred):
            if qfunc == func:
                self._deferred[i] = (func, list(args), extra)
                self.xpc.deferred_coalesced += 1
                return
        self._deferred.append((func, list(args), extra))

    def pending_deferred(self):
        return len(self._deferred)

    def flush_deferred(self):
        """Drain the deferred queue in one batched crossing.

        Called implicitly at every upcall/downcall (sync points) and
        explicitly by nuclei at sleep-capable points.  Checked handler
        exceptions are recorded and swallowed -- one-way notifications
        have no caller to propagate to.  Unchecked ones (under a
        failure policy) mark the driver FAILED and drop the rest of the
        batch.  Returns the batch size.
        """
        if not self._deferred or self._flushing:
            return 0
        if self.failed:
            # The user-level half is dead; its notifications go nowhere.
            self.xpc.deferred_dropped += len(self._deferred)
            self._deferred.clear()
            return 0
        kernel = self.xpc.kernel
        kernel.context.might_sleep("XPC deferred-notification flush")
        # Reentrancy guard: a notification handler may downcall, and
        # downcall entry is itself a sync point.
        self._flushing = True
        tracer = kernel.tracer
        start_ns = kernel.clock.now_ns if tracer is not None else 0
        transfers = [] if tracer is not None else None
        callsites = [] if tracer is not None else None
        try:
            batch = self._deferred
            self._deferred = []
            self.xpc.deferred_flushes += 1
            self.xpc.kernel_user_crossings += 1
            self._charge_batch_crossing(len(batch))
            for index, (func, args, extra) in enumerate(batch):
                try:
                    if self.inject_hook is not None:
                        self.inject_hook("notify", _callsite(func))
                    twins = self._transfer_args(args, TO_USER)
                    if transfers is not None:
                        # Read immediately: a handler that downcalls
                        # would overwrite last_transfer.
                        transfers.append(self.last_transfer)
                        callsites.append(_callsite(func))
                    self.domains.push(DRIVER_LIB)
                    try:
                        func(*twins, *(extra or ()))
                    finally:
                        self.domains.pop(DRIVER_LIB)
                except Exception as exc:
                    self.xpc.deferred_errors += 1
                    self._record_deferred_error(func, exc)
                    if self._contain(exc, _callsite(func)):
                        # The driver just FAILED; the batch's remaining
                        # notifications belong to the dead instance.
                        remaining = len(batch) - index - 1
                        if remaining:
                            self.xpc.deferred_dropped += remaining
                        break
            if tracer is not None:
                tracer.xpc_span(
                    "xpc.flush", start_ns, self.name, "defer-batch",
                    transfers,
                    extra_args={"items": len(batch), "callsites": callsites},
                )
            return len(batch)
        finally:
            self._flushing = False

    def _transfer_contained(self, args, direction, delta, func):
        """A downcall-path transfer: a malformed payload is a driver fault.

        The marshaled bytes on this path come from the user-level half;
        a decode failure (truncated buffer, forged length, bad tag --
        anything a compromised user half can put on the wire) must never
        surface as a raw kernel-side exception.  Under a failure policy
        it is contained exactly like an unchecked exception escaping an
        upcall: channel FAILED, supervisor notified, DriverFailedError
        to the caller.  A policy-free channel keeps raw propagation.
        """
        try:
            return self._transfer_args(args, direction, delta=delta)
        except Exception as exc:
            if self._contain(exc, _callsite(func)):
                raise DriverFailedError(
                    "xpc %s: malformed payload in downcall %s"
                    % (self.name, _callsite(func)),
                    cause=exc,
                ) from exc
            raise

    # -- the four call paths -------------------------------------------------------------

    def upcall(self, func, args=(), extra=None):
        """Kernel -> user: invoke a user-level function.

        ``args`` is a sequence of (kernel_obj_or_None, struct_cls);
        ``extra`` is a tuple of scalars passed through unmarshaled.
        Returns the function's return value (scalars only, per RPC
        semantics).  Sleeps: rejected in atomic context.
        """
        kernel = self.xpc.kernel
        kernel.context.might_sleep("XPC upcall to user level")
        if self.failed:
            self._fail_fast("upcall", func)
        self.xpc.upcalls += 1
        self.xpc.kernel_user_crossings += 1
        tracer = kernel.tracer
        start_ns = kernel.clock.now_ns if tracer is not None else 0
        self._charge_kernel_crossing()
        # Everything from the forward transfer through the delta return
        # trip runs on behalf of the user-level half: an unchecked
        # exception anywhere in it (including a payload that fails to
        # decode) is a driver failure, not a kernel one.
        try:
            twins = self._transfer_args(args, TO_USER)
            fwd = self.last_transfer
            self.domains.push(DRIVER_LIB)
            try:
                if self.inject_hook is not None:
                    self.inject_hook("upcall", _callsite(func))
                ret = func(*twins, *(extra or ()))
            finally:
                self.domains.pop(DRIVER_LIB)
            # Return path: only fields the user level wrote propagate back.
            self._transfer_args(args_back(args, twins), TO_KERNEL, delta=True)
        except Exception as exc:
            if self._contain(exc, _callsite(func)):
                raise DriverFailedError(
                    "xpc %s: driver failed during upcall %s"
                    % (self.name, _callsite(func)),
                    cause=exc,
                ) from exc
            raise
        self._charge_kernel_crossing()
        if tracer is not None:
            # Before flush_deferred: the flush is its own crossing and
            # gets its own span, not a nested slice of this one.
            tracer.xpc_span("xpc.upcall", start_ns, self.name,
                            _callsite(func), (fwd, self.last_transfer))
        # Sync point: drain queued notifications now that a crossing
        # has completed anyway (never *before* the call -- that would
        # delay it behind the batch).
        self.flush_deferred()
        return ret

    def downcall(self, func, args=(), extra=None):
        """User -> kernel: invoke a kernel function from user level."""
        kernel = self.xpc.kernel
        if self.failed:
            self._fail_fast("downcall", func)
        if self.inject_hook is not None:
            # Entry is the injection point: the fault models the
            # crossing itself failing, before any kernel state is
            # touched.  The raise unwinds into the user-level driver
            # and is contained by the surrounding upcall/notify
            # dispatch, like any other driver failure.
            self.inject_hook("downcall", _callsite(func))
        self.xpc.downcalls += 1
        self.xpc.kernel_user_crossings += 1
        tracer = kernel.tracer
        start_ns = kernel.clock.now_ns if tracer is not None else 0
        self._charge_kernel_crossing()
        twins = self._transfer_contained(args, TO_KERNEL, False, func)
        fwd = self.last_transfer
        self.domains.push(KERNEL)
        try:
            ret = func(*twins, *(extra or ()))
        finally:
            self.domains.pop(KERNEL)
        self._transfer_contained(args_back(args, twins), TO_USER, True, func)
        self._charge_kernel_crossing()
        if tracer is not None:
            tracer.xpc_span("xpc.downcall", start_ns, self.name,
                            _callsite(func), (fwd, self.last_transfer))
        self.flush_deferred()  # sync point (see upcall)
        return ret

    def lang_call(self, func, args=(), extra=None, to_java=True):
        """C <-> Java call through the language boundary (Jeannie/JNI).

        Used between the driver library and the decaf driver when
        arguments are complex; scalar-only calls may bypass XPC
        entirely via :meth:`direct_call`.
        """
        if self.failed:
            self._fail_fast("lang_call", func)
        self.xpc.lang_crossings += 1
        tracer = self.xpc.kernel.tracer
        start_ns = self.xpc.kernel.clock.now_ns if tracer is not None else 0
        self._charge_lang_crossing()
        direction = TO_USER if to_java else TO_KERNEL
        twins = self._transfer_args(args, direction)
        fwd = self.last_transfer
        domain = DECAF if to_java else DRIVER_LIB
        self.domains.push(domain)
        try:
            ret = func(*twins, *(extra or ()))
        finally:
            self.domains.pop(domain)
        back = TO_KERNEL if to_java else TO_USER
        self._transfer_args(args_back(args, twins), back, delta=True)
        if tracer is not None:
            tracer.xpc_span("xpc.lang", start_ns, self.name,
                            _callsite(func), (fwd, self.last_transfer),
                            cat="xpc.lang",
                            extra_args={"to_java": to_java})
        return ret

    def direct_call(self, func, *scalars):
        """Direct cross-language call for scalar arguments (3.1.1).

        No marshaling, no object tracking; just the language-transition
        cost.  The ablation bench compares this against lang_call.
        """
        xpc = self.xpc
        xpc.lang_crossings += 1
        kernel = xpc.kernel
        ns = kernel.costs.xpc_lang_ns
        tracer = kernel.tracer
        if tracer is None:
            kernel.consume(ns, busy=True, category="xpc")
            return func(*scalars)
        start_ns = kernel.clock.now_ns
        kernel.consume(ns, busy=True, category="xpc")
        ret = func(*scalars)
        tracer.xpc_span("xpc.direct", start_ns, self.name, _callsite(func),
                        (), cat="xpc.lang")
        return ret


def args_back(args, twins):
    """Pair each twin with its original struct class for the return trip."""
    return [
        (twin, cls)
        for twin, (_obj, cls) in zip(twins, args)
    ]
