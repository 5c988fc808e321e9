"""A deterministic simulated Linux kernel.

This package is the substrate the Decaf Drivers reproduction runs on: a
discrete-event kernel with virtual time, execution-context rule
enforcement (no sleeping in interrupt context or under spinlocks), IRQs,
timers, workqueues, kmalloc/DMA memory, a module loader that measures
init latency, and PCI / network / sound / USB / input subsystems.

:func:`make_kernel` builds a fully-wired kernel.
"""

from .context import ExecContext
from .core import Kernel, MAX_CPUS, VCpu
from .costs import CostModel, DEFAULT_COSTS
from .errors import (
    ContextViolation,
    DeadlockError,
    KernelError,
    KernelPanic,
    MemoryLeakError,
    SimulationError,
    SleepInAtomicError,
)
from .input import InputCore, InputDev, SerioPort
from .ioports import IoSpace
from .irq import IRQ_HANDLED, IRQ_NONE, IrqController
from .locks import LockDep, LockDepReport, Mutex, Semaphore, SpinLock
from .memory import GFP_ATOMIC, GFP_KERNEL, MemoryManager
from .module import KernelModule, ModuleLoader
from .napi import NapiCore, NapiStruct
from .netdev import (
    NETDEV_TX_BUSY,
    NETDEV_TX_OK,
    NetDevice,
    NetDeviceStats,
    NetworkCore,
    SkBuff,
    SkbPool,
)
from .pci import PciBar, PciBus, PciDriver, PciFunction
from .sound import (
    SNDRV_PCM_TRIGGER_START,
    SNDRV_PCM_TRIGGER_STOP,
    SndCard,
    SoundCore,
)
from .timers import KernelTimer, WorkItem, Workqueue
from .usb import UsbCore, UsbDevice, UsbDeviceDescriptor, Urb
from .vtime import NSEC_PER_MSEC, NSEC_PER_SEC, NSEC_PER_USEC, VirtualClock


def make_kernel(costs=None, sound_use_mutex=False, nr_cpus=1, nr_irqs=32):
    """Build a kernel with all bus/class subsystems attached.

    ``sound_use_mutex`` selects the paper's modified sound library
    (mutexes instead of spinlocks around driver ops); the decaf driver
    stack requires it.  ``nr_cpus`` > 1 builds an SMP kernel: per-CPU
    contexts/accounting/runqueues, CPU-targeted event dispatch, and
    per-CPU NAPI softirqs (see ``repro.kernel.core.VCpu``).
    ``nr_irqs`` sizes the interrupt controller -- fleet rigs hosting
    thousands of devices need more than the default 32 lines.
    """
    kernel = Kernel(costs=costs, nr_cpus=nr_cpus, nr_irqs=nr_irqs)
    kernel.pci = PciBus(kernel)
    kernel.net = NetworkCore(kernel)
    kernel.sound = SoundCore(kernel, use_mutex=sound_use_mutex)
    kernel.usb = UsbCore(kernel)
    kernel.input = InputCore(kernel)
    return kernel


__all__ = [
    "Kernel",
    "VCpu",
    "MAX_CPUS",
    "make_kernel",
    "CostModel",
    "DEFAULT_COSTS",
    "KernelModule",
    "KernelError",
    "ContextViolation",
    "SleepInAtomicError",
    "DeadlockError",
    "KernelPanic",
    "MemoryLeakError",
    "SimulationError",
    "SpinLock",
    "Mutex",
    "Semaphore",
    "KernelTimer",
    "WorkItem",
    "Workqueue",
    "GFP_KERNEL",
    "GFP_ATOMIC",
    "IRQ_HANDLED",
    "IRQ_NONE",
    "NetDevice",
    "SkBuff",
    "SkbPool",
    "NapiCore",
    "NapiStruct",
    "NETDEV_TX_OK",
    "NETDEV_TX_BUSY",
    "PciBus",
    "PciBar",
    "PciDriver",
    "PciFunction",
    "SndCard",
    "SoundCore",
    "UsbCore",
    "UsbDevice",
    "UsbDeviceDescriptor",
    "Urb",
    "InputDev",
    "SerioPort",
    "NSEC_PER_MSEC",
    "NSEC_PER_SEC",
    "NSEC_PER_USEC",
]
