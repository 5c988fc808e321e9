"""Kernel locking primitives: spinlock, mutex, semaphore -- and lockdep.

The simulation is single-CPU and event-driven, so locks never actually
block; what they provide is *rule enforcement* and *state tracking*:

* A spinlock acquisition disables sleeping until release.  Acquiring a
  spinlock that is already held on this CPU is a self-deadlock and raises.
* A mutex/semaphore acquisition is a potentially-sleeping operation and is
  rejected in atomic context, exactly the property that forces driver
  functions called under spinlocks to stay in the driver nucleus (paper
  section 3.1.3).

The combolock of the Decaf runtime builds on these
(:mod:`repro.core.combolock`).

:class:`LockDep` is an opt-in runtime checker in the style of the
kernel's lockdep: it records *classes* of violations that the hard
single-CPU rules above cannot see because they need two CPUs or an
unlucky interrupt to deadlock for real --

* **lock-order inversion** (AB/BA): the acquisition graph over lock
  names grows an edge held -> acquired per acquisition; a new edge that
  closes a cycle is reported once per pair.
* **sleep-while-atomic**: every ``might_sleep`` failure is also recorded
  as a report (the exception still raises), so conformance runs can
  assert "zero lockdep reports" uniformly.
* **mutex-in-hardirq**: a sleeping lock acquired in an interrupt
  handler.
* **irq-safety inconsistency**: a spinlock observed both inside a
  hardirq handler and in process context with interrupts enabled -- the
  classic "handler spins on a lock the interrupted code holds" hazard.

Enable with ``kernel.enable_lockdep()``; disabled (``kernel.lockdep is
None``) the primitives pay one attribute load per acquisition.
"""

from .context import HARDIRQ, PROCESS, SOFTIRQ
from .errors import DeadlockError


class LockDepReport:
    """One recorded violation."""

    __slots__ = ("kind", "message", "ns")

    def __init__(self, kind, message, ns):
        self.kind = kind
        self.message = message
        self.ns = ns

    def __repr__(self):
        return "<lockdep %s @%dns: %s>" % (self.kind, self.ns, self.message)


class LockDep:
    """Lock-order / context validator (see module docstring).

    Reports are deduplicated per key the way the kernel's lockdep warns
    once per lock class, so a violating hot loop produces one report,
    not millions.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self.reports = []
        self.checks = 0
        # Optional observer ``tap(lock_name, kind)`` fired on every
        # acquisition check.  repro.explore uses it to capture the lock
        # footprint of an event window; one ``is not None`` test when
        # unset, and lockdep itself is opt-in, so the primitives'
        # fast path is untouched.
        self.acquire_tap = None
        # Held-lock stacks are per CPU (a lock held on cpu0 must not
        # order against an acquisition on cpu1), but the order graph
        # and usage table are global: opposite acquisition orders on
        # two different CPUs close a cycle and are reported.
        self._held_per_cpu = {}  # cpu index -> [locks], acquisition order
        self._edges = {}         # lock name -> set of names acquired under it
        self._usage = {}         # lock name -> set of usage flags
        self._seen = set()       # dedup keys of reported violations

    @property
    def _held(self):
        """Held locks of the CPU the kernel is currently running on."""
        cpu = self._kernel.current_cpu.index
        held = self._held_per_cpu.get(cpu)
        if held is None:
            held = self._held_per_cpu[cpu] = []
        return held

    # -- reporting ---------------------------------------------------------

    def _report(self, kind, key, message):
        if key in self._seen:
            return
        self._seen.add(key)
        report = LockDepReport(kind, message, self._kernel.clock.now_ns)
        self.reports.append(report)
        self._kernel.printk("lockdep: %s: %s" % (kind, message), level="err")
        tracer = self._kernel.tracer
        if tracer is not None:
            tracer.instant("lockdep.report", {"kind": kind, "msg": message})
            tracer.metrics.inc("lockdep.reports|%s" % kind)
        health = self._kernel.health
        if health is not None:
            health.on_lockdep_report(kind, message)

    def by_kind(self, kind):
        return [r for r in self.reports if r.kind == kind]

    # -- acquisition graph -------------------------------------------------

    def _reaches(self, src, dst):
        """True if the order graph has a path src ->* dst."""
        stack = [src]
        seen = set()
        edges = self._edges
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        return False

    def check_acquire(self, lock, kind):
        """Validate an acquisition about to happen (lock not yet held).

        Safe to call before the primitive's own rule enforcement: the
        checker only reads current state, so a subsequent
        ``SleepInAtomicError`` still finds the report recorded.
        """
        self.checks += 1
        if self.acquire_tap is not None:
            self.acquire_tap(lock.name, kind)
        context = self._kernel.context
        name = lock.name
        sleeping = kind in ("mutex", "semaphore", "combo-sem")
        if sleeping and context.current_context() == HARDIRQ:
            self._report(
                "mutex-in-hardirq", ("mutex-in-hardirq", name),
                "%s %r acquired in hardirq context" % (kind, name),
            )
        # Irq-safety usage: a spinlock seen in a hardirq handler must
        # never be held with interrupts enabled elsewhere -- the handler
        # would spin forever on the interrupted owner (one CPU) or
        # deadlock cross-CPU.
        if not sleeping:
            flags = self._usage.setdefault(name, set())
            if context.in_irq():
                flags.add("in-hardirq")
                if "irqs-on" in flags:
                    self._report(
                        "irq-unsafe-lock", ("irq-unsafe-lock", name),
                        "spinlock %r taken in hardirq but also held with "
                        "interrupts enabled" % name,
                    )
            elif self._kernel.irq.irqs_enabled():
                flags.add("irqs-on")
                if "in-hardirq" in flags:
                    self._report(
                        "irq-unsafe-lock", ("irq-unsafe-lock", name),
                        "spinlock %r held with interrupts enabled but also "
                        "taken in hardirq" % name,
                    )
        # Lock-order graph: held -> acquired, checked for cycles.
        for prev in self._held:
            pname = prev.name
            if pname == name:
                continue
            succ = self._edges.setdefault(pname, set())
            if name not in succ:
                if self._reaches(name, pname):
                    pair = tuple(sorted((pname, name)))
                    self._report(
                        "lock-order-inversion", ("order",) + pair,
                        "%r -> %r inverts the established order %r -> %r"
                        % (pname, name, name, pname),
                    )
                succ.add(name)

    def push(self, lock):
        """The acquisition succeeded; track it for ordering."""
        self._held.append(lock)

    def pop(self, lock):
        """Release; out-of-order release is legal (like spinlocks)."""
        for i in range(len(self._held) - 1, -1, -1):
            if self._held[i] is lock:
                del self._held[i]
                return

    def note_might_sleep(self, what, context):
        """Called by ``ExecContext.might_sleep`` on a violation (which
        still raises afterwards)."""
        held = ",".join(
            getattr(l, "name", "?") for l in context.spinlocks_held
        )
        self._report(
            "sleep-in-atomic",
            ("sleep-in-atomic", what, context.current_context(), held),
            "%s in %s context%s"
            % (what, context.current_context(),
               " holding [%s]" % held if held else ""),
        )

    def note_hardirq_entry(self):
        """Called at hardirq dispatch: held spinlocks are checked against
        the usage table (a lock the handler also takes would deadlock)."""
        for lock in self._held:
            flags = self._usage.get(lock.name)
            if flags and "in-hardirq" in flags:
                self._report(
                    "irq-unsafe-lock", ("irq-unsafe-lock", lock.name),
                    "hardirq entered while %r (also taken in hardirq) "
                    "is held" % lock.name,
                )


class SpinLock:
    """A kernel spinlock.  Holding it makes the context atomic."""

    def __init__(self, kernel, name="spinlock"):
        self._kernel = kernel
        self.name = name
        self.owner_context = None
        self._held = False
        self._acquired_ns = None
        self.acquisitions = 0

    @property
    def held(self):
        return self._held

    def lock(self):
        if self._held:
            raise DeadlockError(
                "spinlock %r acquired while already held (single-CPU self-deadlock)"
                % self.name
            )
        kernel = self._kernel
        lockdep = kernel.lockdep
        if lockdep is not None:
            lockdep.check_acquire(self, "spin")
        self._held = True
        self.acquisitions += 1
        # ExecContext.current_context and push_spinlock, inlined: every
        # TX packet takes and drops at least one spinlock.
        context = kernel.current_cpu.context
        self.owner_context = (
            HARDIRQ if context._irq_depth else
            SOFTIRQ if context._softirq_depth else PROCESS)
        context._spinlocks_held.append(self)
        if lockdep is not None:
            lockdep.push(self)
        if kernel.tracer is not None:
            self._acquired_ns = kernel.clock.now_ns

    def unlock(self):
        if not self._held:
            raise DeadlockError("spinlock %r released while not held" % self.name)
        self._held = False
        self.owner_context = None
        kernel = self._kernel
        context = kernel.current_cpu.context
        held = context._spinlocks_held
        if held and held[-1] is self:
            held.pop()
        else:  # out-of-order release: the general search
            context.pop_spinlock(self)
        lockdep = kernel.lockdep
        if lockdep is not None:
            lockdep.pop(self)
        tracer = kernel.tracer
        if tracer is not None and self._acquired_ns is not None:
            # Matched pairs only: a tracer installed mid-hold records
            # nothing for this acquisition.
            tracer.lock_span(self._acquired_ns, self.name, "spin")
            self._acquired_ns = None

    def lock_irqsave(self):
        """Linux ``spin_lock_irqsave``: also masks interrupts on this CPU."""
        self._kernel.irq.local_irq_disable()
        self.lock()

    def unlock_irqrestore(self):
        self.unlock()
        self._kernel.irq.local_irq_enable()

    def __enter__(self):
        self.lock()
        return self

    def __exit__(self, *exc):
        self.unlock()
        return False


class Mutex:
    """A sleeping mutex.  Blocking operations are allowed while held."""

    def __init__(self, kernel, name="mutex"):
        self._kernel = kernel
        self.name = name
        self._held = False
        self._acquired_ns = None
        self.acquisitions = 0

    @property
    def held(self):
        return self._held

    def lock(self):
        lockdep = self._kernel.lockdep
        if lockdep is not None:
            # Before might_sleep: a mutex-in-hardirq / under-spinlock
            # violation must be on record even though the context check
            # then raises.
            lockdep.check_acquire(self, "mutex")
        self._kernel.context.might_sleep("mutex_lock(%s)" % self.name)
        if self._held:
            raise DeadlockError(
                "mutex %r acquired while already held (single-thread self-deadlock)"
                % self.name
            )
        self._kernel.charge(self._kernel.costs.kmalloc_ns, "locking")
        self._held = True
        self.acquisitions += 1
        if lockdep is not None:
            lockdep.push(self)
        if self._kernel.tracer is not None:
            self._acquired_ns = self._kernel.clock.now_ns

    def unlock(self):
        if not self._held:
            raise DeadlockError("mutex %r released while not held" % self.name)
        self._held = False
        lockdep = self._kernel.lockdep
        if lockdep is not None:
            lockdep.pop(self)
        tracer = self._kernel.tracer
        if tracer is not None and self._acquired_ns is not None:
            tracer.lock_span(self._acquired_ns, self.name, "mutex")
            self._acquired_ns = None

    def __enter__(self):
        self.lock()
        return self

    def __exit__(self, *exc):
        self.unlock()
        return False


class Semaphore:
    """A counting semaphore with sleeping ``down``."""

    def __init__(self, kernel, count=1, name="semaphore"):
        self._kernel = kernel
        self.name = name
        self._count = count
        self.acquisitions = 0

    @property
    def count(self):
        return self._count

    def down(self):
        lockdep = self._kernel.lockdep
        if lockdep is not None:
            lockdep.check_acquire(self, "semaphore")
        self._kernel.context.might_sleep("down(%s)" % self.name)
        if self._count <= 0:
            raise DeadlockError(
                "semaphore %r down() with count 0 would block forever "
                "(single simulated thread)" % self.name
            )
        self._count -= 1
        self.acquisitions += 1

    def down_trylock(self):
        """Non-sleeping acquire; returns True on success."""
        if self._count <= 0:
            return False
        self._count -= 1
        self.acquisitions += 1
        return True

    def up(self):
        self._count += 1
