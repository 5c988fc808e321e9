"""Decaf runtime and nuclear runtime (section 3).

Two runtime components are shared by every decaf driver:

* The **nuclear runtime** is a kernel module linked into each driver
  nucleus.  It owns the upcall discipline: before control transfers to
  user level it disables the device's interrupt line (so the driver
  cannot interrupt itself while its user half runs) and re-enables it on
  return.  It also turns a driver's periodic timer into a
  :class:`DeferredPoll` -- timer, then work item, then body, then re-arm
  -- so timer-driven driver logic (E1000's watchdog) can call up to the
  decaf driver.

* The **decaf runtime** is the user-level helper library: the escape
  hatches a managed language lacks -- ``sizeof``, programmed I/O
  (``inb``/``outb``/``readl``/``writel``), delays -- plus shared-object
  constructors that allocate the kernel twin eagerly, and (as the
  paper's sketched extension) finalizer-based automatic release of
  shared objects through the weak-reference object tracker.

None of the helpers here are driver-specific; drivers share them, as
the paper found for E1000.
"""

from ..kernel.timers import KernelTimer, WorkItem
from .domains import DECAF, KERNEL


class NuclearRuntime:
    """Kernel-side runtime linked to a driver nucleus."""

    def __init__(self, kernel, domains, channel, irq_line=None):
        self.kernel = kernel
        self.domains = domains
        self.channel = channel
        self.irq_line = irq_line
        self.poll_stretch = 1  # multiplies every poll period (fleet slots)

    # -- upcall discipline ----------------------------------------------------

    def upcall(self, func, args=(), extra=None):
        """Transfer control to the user-level driver.

        Disables the device interrupt while user code runs (the driver
        must not interrupt itself), re-enabling afterwards.
        """
        irq = self.irq_line
        if irq is not None:
            self.kernel.irq.disable_irq(irq)
        try:
            return self.channel.upcall(func, args, extra)
        finally:
            if irq is not None and self.kernel.irq.irq_disabled(irq):
                # Skip the re-enable when the upcall tore the driver
                # down: free_irq resets the line's mask depth, so our
                # disable no longer has a balancing slot.
                self.kernel.irq.enable_irq(irq)

    # -- deferred one-way notifications ----------------------------------------

    def notify(self, func, args=(), extra=None):
        """Queue a fire-and-forget upcall (no return value, no sleep).

        Legal from any context -- interrupt handlers, timer callbacks,
        under spinlocks -- because nothing crosses until the channel's
        next sync point.  Repeats for the same target coalesce.
        """
        self.channel.defer(func, args, extra)

    def flush_notifications(self):
        """Drain queued notifications in one batched crossing.

        Must be called from process context; the device interrupt is
        masked while the user half runs, as for a normal upcall.
        """
        if not self.channel.pending_deferred():
            return 0
        irq = self.irq_line
        if irq is not None:
            self.kernel.irq.disable_irq(irq)
        try:
            return self.channel.flush_deferred()
        finally:
            if irq is not None and self.kernel.irq.irq_disabled(irq):
                # As in upcall(): a teardown during the flush freed the
                # line and reset its mask depth.
                self.kernel.irq.enable_irq(irq)

    # -- timer deferral ------------------------------------------------------------

    def defer_timer(self, body, period_ns, name):
        """A periodic poll of ``body`` every ``period_ns``; see
        :class:`DeferredPoll`."""
        return DeferredPoll(self, body, period_ns, name)


class DeferredPoll:
    """A driver timer whose handler runs as deferred work.

    Kernel timers fire at high priority and may not call up to user
    level; this timer instead queues a work item, which runs ``body``
    in process context, where upcalls are legal, and then re-arms.  A
    body that returns False found its driver gone: the poll ends
    without re-arming.  The poll owns one timer and one work item for
    its whole life; :meth:`start` re-arms the timer and :meth:`stop`
    cancels it (a work item already queued still runs its body once,
    but does not re-arm).
    """

    def __init__(self, runtime, body, period_ns, name):
        self._runtime = runtime
        self.body = body
        self.period_ns = period_ns
        kernel = runtime.kernel
        self.work = WorkItem(kernel, self.run, name=name + "-work")
        self.timer = KernelTimer(kernel, self._fire, name=name)
        self.running = False

    def start(self):
        self.running = True
        self.timer.mod_timer_after(
            self.period_ns * self._runtime.poll_stretch)

    def stop(self):
        self.running = False
        self.timer.del_timer()

    def _fire(self, _data):
        self._runtime.kernel.workqueue.schedule_work(self.work)

    def run(self, _data=None):
        """One poll: the body, then re-arm while the poll runs."""
        if self.body() and self.running:
            self.start()


class DecafRuntime:
    """User-level helpers shared by all decaf drivers."""

    def __init__(self, kernel, domains, channel):
        self.kernel = kernel
        self.domains = domains
        self.channel = channel
        self._started = False
        self.shared_objects_created = 0
        channel.user_tracker.release_hook = self._release_kernel_twin
        self._kernel_twins = {}

    def start(self):
        """Start the managed runtime (JVM); charged once per driver."""
        if self._started:
            return
        self._started = True
        self.kernel.consume(
            self.kernel.costs.jvm_startup_ns, busy=True, category="jvm"
        )

    # -- escape hatches: functionality Java cannot express (section 5.3) -------

    def sizeof(self, struct_cls):
        return struct_cls.sizeof()

    def inb(self, port):
        return self.channel.direct_call(self.kernel.io.inb, port)

    def inw(self, port):
        return self.channel.direct_call(self.kernel.io.inw, port)

    def inl(self, port):
        return self.channel.direct_call(self.kernel.io.inl, port)

    def outb(self, value, port):
        self.channel.direct_call(self.kernel.io.outb, value, port)

    def outw(self, value, port):
        self.channel.direct_call(self.kernel.io.outw, value, port)

    def outl(self, value, port):
        self.channel.direct_call(self.kernel.io.outl, value, port)

    def readl(self, addr):
        return self.channel.direct_call(self.kernel.io.readl, addr)

    def writel(self, value, addr):
        self.channel.direct_call(self.kernel.io.writel, value, addr)

    def msleep(self, msecs):
        """``DriverWrappers.Java_msleep`` from Fig. 5."""
        self.channel.direct_call(self.kernel.msleep, msecs)

    def udelay(self, usecs):
        self.channel.direct_call(self.kernel.udelay, usecs)

    # -- shared-object constructors (section 5.1, garbage collection) ------------

    def new_shared(self, struct_cls, weak=True):
        """Allocate a Java object together with its kernel twin.

        The custom constructor of the paper: kernel memory is allocated
        at the same time and the pair is entered into the object
        tracker.  With ``weak=True`` the association is dropped and the
        kernel twin freed automatically when the Java GC collects the
        object -- the finalizer extension.
        """
        java_obj = struct_cls()
        kernel_obj = struct_cls()
        type_id = self.channel.type_ids.id_of(struct_cls)
        self.channel.kernel_tracker.register(kernel_obj)
        self.channel.user_tracker.associate(
            kernel_obj.c_addr, type_id, java_obj, weak=weak
        )
        alloc = self.kernel.memory.kmalloc(
            struct_cls.sizeof() or 8, owner="decaf-shared"
        )
        self._kernel_twins[(kernel_obj.c_addr, type_id)] = (kernel_obj, alloc)
        self.shared_objects_created += 1
        return java_obj

    def free_shared(self, java_obj):
        """Explicit release (what decaf drivers must do without weak refs)."""
        key = self.channel.user_tracker.disassociate(java_obj)
        if key is not None:
            self._release_kernel_twin(*key)

    def _release_kernel_twin(self, c_addr, type_id):
        entry = self._kernel_twins.pop((c_addr, type_id), None)
        if entry is not None:
            kernel_obj, alloc = entry
            self.channel.kernel_tracker.remove(kernel_obj.c_addr)
            if alloc is not None:
                self.kernel.memory.kfree(alloc)
