"""``SpinLock.lock``/``unlock`` fast paths keep the old semantics.

The primitives read the context depths directly and push/pop the held
list at its tail; an out-of-order release falls back to
``ExecContext.pop_spinlock``.  :class:`ReferenceSpinLock` is the general
path (``current_context()``, ``push_spinlock``, ``pop_spinlock``); a
scripted run with lockdep on must leave the same held stacks, owner
contexts and lockdep reports on both.
"""

import pytest

from repro.kernel import DeadlockError, SpinLock, make_kernel


class ReferenceSpinLock(SpinLock):
    """The general path: every helper called, nothing inlined."""

    def lock(self):
        if self._held:
            raise DeadlockError("spinlock %r acquired while already held"
                                % self.name)
        lockdep = self._kernel.lockdep
        if lockdep is not None:
            lockdep.check_acquire(self, "spin")
        self._held = True
        self.acquisitions += 1
        self.owner_context = self._kernel.context.current_context()
        self._kernel.context.push_spinlock(self)
        if lockdep is not None:
            lockdep.push(self)

    def unlock(self):
        if not self._held:
            raise DeadlockError("spinlock %r released while not held"
                                % self.name)
        self._held = False
        self.owner_context = None
        self._kernel.context.pop_spinlock(self)
        lockdep = self._kernel.lockdep
        if lockdep is not None:
            lockdep.pop(self)


def test_out_of_order_release(kernel):
    a, b, c = (SpinLock(kernel, n) for n in "abc")
    a.lock()
    b.lock()
    c.lock()
    b.unlock()                       # middle of the stack
    assert kernel.context.spinlocks_held == (a, c)
    a.unlock()                       # bottom of the stack
    assert kernel.context.spinlocks_held == (c,)
    assert kernel.context.in_atomic()
    c.unlock()
    assert kernel.context.spinlocks_held == ()
    assert not kernel.context.in_atomic()
    with pytest.raises(DeadlockError):
        c.unlock()


def test_owner_context_follows_the_execution_context(kernel):
    lock = SpinLock(kernel, "ctx")
    owners = []

    def handler(_irq, _dev_id):
        lock.lock()
        owners.append(lock.owner_context)
        lock.unlock()
        return 1

    kernel.irq.request_irq(5, handler, "t")
    kernel.irq.raise_irq(5)
    kernel.context.enter_softirq()
    lock.lock()
    owners.append(lock.owner_context)
    lock.unlock()
    kernel.context.exit_softirq()
    with lock:
        owners.append(lock.owner_context)
    assert owners == ["hardirq", "softirq", "process"]
    assert lock.owner_context is None


def _script(kernel, cls):
    """Nested, out-of-order, AB/BA and hardirq acquisitions; returns the
    state observed after every step."""
    a, b, irq_lock = cls(kernel, "a"), cls(kernel, "b"), cls(kernel, "irq")
    seen = []

    def note():
        seen.append((tuple(l.name for l in kernel.context.spinlocks_held),
                     a.owner_context, b.owner_context))

    def handler(_irq, _dev_id):
        irq_lock.lock()
        note()
        irq_lock.unlock()
        return 1

    kernel.irq.request_irq(5, handler, "t")
    for step in (a.lock, b.lock, note, a.unlock, note, b.unlock, note,
                 b.lock, a.lock, note, b.unlock, a.unlock, note,
                 lambda: kernel.irq.raise_irq(5),
                 irq_lock.lock, note, irq_lock.unlock, note):
        step()
    return seen, [(r.kind, r.message) for r in kernel.lockdep.reports]


def test_lockdep_reports_match_the_general_path():
    runs = []
    for cls in (SpinLock, ReferenceSpinLock):
        kernel = make_kernel()
        kernel.enable_lockdep()
        runs.append(_script(kernel, cls))
    assert runs[0] == runs[1]
    kinds = {kind for kind, _msg in runs[0][1]}
    assert kinds == {"lock-order-inversion", "irq-unsafe-lock"}
