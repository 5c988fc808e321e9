"""Arm a fault plan against a rig."""

from .plan import InjectedFault


class FaultInjector:
    """Applies one :class:`FaultPlan` to one rig, uniformly.

    Memory and register faults hook kernel subsystems, so they hit
    legacy and decaf drivers identically.  XPC faults hook the decaf
    channel; on a legacy rig they are inert -- there is no boundary to
    fault, which is itself the comparison the paper draws.
    """

    def __init__(self, rig, plan):
        self.rig = rig
        self.plan = plan
        self.armed = False

    def arm(self):
        if self.armed:
            return self
        kernel = self.rig.kernel
        if self.plan.by_kind("alloc_fail"):
            kernel.memory.fault_hook = self._on_alloc
        for spec in self.plan.by_kind("reg_wedge"):
            # Wedging is environmental, not event-counted: the register
            # is dead from now on (until disarm).
            kernel.io.wedge(spec.addr, value=spec.value)
            spec.fired += 1
            self._trace(spec, where="0x%x" % spec.addr)
        channel = self.rig.channel
        if channel is not None:
            if self.plan.by_kind("xpc_raise"):
                channel.inject_hook = self._on_crossing
            if self.plan.by_kind("payload_corrupt"):
                channel.corrupt_hook = self._on_payload
        self.armed = True
        return self

    def disarm(self):
        if not self.armed:
            return
        kernel = self.rig.kernel
        if kernel.memory.fault_hook == self._on_alloc:
            kernel.memory.fault_hook = None
        for spec in self.plan.by_kind("reg_wedge"):
            kernel.io.unwedge(spec.addr)
        channel = self.rig.channel
        if channel is not None:
            if channel.inject_hook == self._on_crossing:
                channel.inject_hook = None
            if channel.corrupt_hook == self._on_payload:
                channel.corrupt_hook = None
        self.armed = False

    def _trace(self, spec, where=""):
        kernel = self.rig.kernel
        kernel.printk(
            "fault-inject %s: %s fired (%s)"
            % (self.rig.name, spec.kind, spec.message),
            level="warn",
        )
        kernel.kstat.inc("faults.fired")
        kernel.kstat.inc("faults.%s.fired" % self.rig.name)
        tracer = kernel.tracer
        if tracer is not None:
            tracer.instant("fault.inject", {
                "driver": self.rig.name, "kind": spec.kind,
                "spec": spec.message, "where": where,
            })

    # -- hook targets -----------------------------------------------------------

    def _on_alloc(self, seq, size, owner):
        for spec in self.plan.by_kind("alloc_fail"):
            if spec.owner is not None and spec.owner not in owner:
                continue
            if spec.hit():
                self._trace(spec, where="%s alloc #%d (%d bytes)"
                                        % (owner, seq, size))
                return True
        return False

    def _on_crossing(self, kind, callsite):
        for spec in self.plan.by_kind("xpc_raise"):
            if spec.callsite is not None and spec.callsite not in callsite:
                continue
            if spec.hit():
                self._trace(spec, where="%s %s" % (kind, callsite))
                raise InjectedFault(
                    "injected fault at %s %s (%s)"
                    % (kind, callsite, spec.message)
                )

    def _on_payload(self, data, direction):
        for spec in self.plan.by_kind("payload_corrupt"):
            if spec.hit():
                self._trace(spec, where="payload %d bytes" % len(data))
                # Truncate to half: the decode must fail loudly, which
                # the boundary then contains as a driver fault.
                return data[: len(data) // 2]
        return data
