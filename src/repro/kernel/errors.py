"""Kernel error model.

The simulated kernel mirrors Linux in two respects that matter to the Decaf
architecture:

* Kernel C code reports failures through negative integer errno codes
  (``-EIO``, ``-ENOMEM``, ...).  The legacy drivers in
  :mod:`repro.drivers.legacy` follow that convention; the decaf drivers
  replace it with exceptions.

* Context rules are enforced, not assumed.  Code that might sleep (mutex
  acquisition, ``msleep``, XPC into user level, ``GFP_KERNEL`` allocation)
  raises :class:`SleepInAtomicError` when executed in interrupt context or
  while a spinlock is held.  Navigating exactly these rules is why the
  driver nucleus exists, so the simulator must make violations loud.
"""

# Linux errno values used throughout the drivers.
EPERM = 1
ENOENT = 2
EIO = 5
ENXIO = 6
EAGAIN = 11
ENOMEM = 12
EFAULT = 14
EBUSY = 16
ENODEV = 19
EINVAL = 22
ENOSPC = 28
EPIPE = 32
ETIMEDOUT = 110
EINPROGRESS = 115


class KernelError(Exception):
    """Base class for all simulated-kernel faults."""


class ContextViolation(KernelError):
    """An operation was attempted in a forbidden execution context."""


class SleepInAtomicError(ContextViolation):
    """A potentially-sleeping operation ran in atomic context.

    Linux would print "BUG: scheduling while atomic"; we raise instead so
    tests can assert the Decaf runtime never lets it happen.
    """


class KernelPanic(KernelError):
    """An unrecoverable inconsistency in the simulated kernel."""


class MemoryLeakError(KernelError):
    """Module unload left kernel allocations behind."""


class DeadlockError(KernelError):
    """Lock acquisition that can never succeed in the simulation."""


class SimulationError(KernelError):
    """The simulation itself was misused (e.g. time moved backwards)."""
