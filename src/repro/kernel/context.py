"""Execution-context tracking.

Linux driver code runs in one of several contexts -- process context,
softirq, hardirq -- and the set of operations allowed differs per context.
The two rules the Decaf architecture is built around:

* code running at interrupt priority must not sleep, and
* code holding a spinlock must not sleep,

because invoking the user-level decaf driver always sleeps (it schedules a
user thread).  This module tracks the current context so that the locking
and XPC layers can enforce the rules.
"""

from .errors import SleepInAtomicError

PROCESS = "process"
SOFTIRQ = "softirq"
HARDIRQ = "hardirq"


class ExecContext:
    """The execution context of the (single simulated) CPU."""

    def __init__(self):
        self._irq_depth = 0
        self._softirq_depth = 0
        self._spinlocks_held = []
        self._preempt_disabled = 0
        # Set by Kernel.enable_lockdep(); violations found by
        # might_sleep are then also recorded as lockdep reports.
        self.lockdep = None

    # -- context queries ---------------------------------------------------

    def in_irq(self):
        """True in hardirq context (interrupt handler)."""
        return self._irq_depth > 0

    def in_softirq(self):
        return self._softirq_depth > 0

    def in_interrupt(self):
        return self.in_irq() or self.in_softirq()

    def in_atomic(self):
        """True if sleeping is forbidden right now."""
        return (
            self.in_interrupt()
            or bool(self._spinlocks_held)
            or self._preempt_disabled > 0
        )

    def current_context(self):
        if self.in_irq():
            return HARDIRQ
        if self.in_softirq():
            return SOFTIRQ
        return PROCESS

    @property
    def spinlocks_held(self):
        return tuple(self._spinlocks_held)

    # -- context transitions (used by the kernel core and lock layer) ------

    def enter_irq(self):
        self._irq_depth += 1

    def exit_irq(self):
        assert self._irq_depth > 0
        self._irq_depth -= 1

    def enter_softirq(self):
        self._softirq_depth += 1

    def exit_softirq(self):
        assert self._softirq_depth > 0
        self._softirq_depth -= 1

    def push_spinlock(self, lock):
        self._spinlocks_held.append(lock)

    def pop_spinlock(self, lock):
        # Spinlocks are released in any order in real drivers; remove the
        # most recent matching entry.
        for i in range(len(self._spinlocks_held) - 1, -1, -1):
            if self._spinlocks_held[i] is lock:
                del self._spinlocks_held[i]
                return
        raise AssertionError("releasing spinlock %r not held" % (lock,))

    def preempt_disable(self):
        self._preempt_disabled += 1

    def preempt_enable(self):
        assert self._preempt_disabled > 0
        self._preempt_disabled -= 1

    # -- rule enforcement ---------------------------------------------------

    def might_sleep(self, what="operation"):
        """Raise unless sleeping is currently allowed.

        Mirrors Linux's ``might_sleep()`` debug check, but fatal: the Decaf
        runtime must never let potentially-sleeping work reach atomic
        context, so the simulator treats a violation as a test failure.
        """
        if self.in_atomic():
            if self.lockdep is not None:
                self.lockdep.note_might_sleep(what, self)
            held = ", ".join(getattr(l, "name", "?") for l in self._spinlocks_held)
            raise SleepInAtomicError(
                "%s may sleep, but CPU is in %s context%s"
                % (
                    what,
                    self.current_context(),
                    " holding spinlock(s): " + held if held else "",
                )
            )
