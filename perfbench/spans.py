"""Span recording for the traced run.

The benchmark wraps each layer's entry points (class attributes, patched
before any rig or fleet is built) with a recorder.  Every call becomes a
span: name, start, end, parent span and run id, kept in parallel arrays
in memory.  A span's *self time* is its duration minus the duration of
its direct children; a layer's self time sums its spans' self times.

Span names are ``"<layer>:<entry point>"``; :data:`LAYERS` maps the
layer prefix to the reporting layer.  The program's own counters are
read next to the spans, so a wrapper that a pre-bound closure bypassed
shows up as a count mismatch (:func:`reconcile`).
"""

import functools
import gzip
from array import array
from time import perf_counter

#: Span-name prefix -> reporting layer, named after the repo's modules.
LAYERS = {
    "kernel": "kernel",            # core, events, vtime, irq, timers, locks
    "kernel.io": "kernel.io",      # ioports + the compiled accessors
    "kernel.net": "kernel.net",    # netdev, napi, skb pool
    "kernel.bus": "kernel.bus",    # module, pci, usb, sound, input
    "devices.e1000": "devices",
    "devices.rtl8139": "devices",
    "devices.ens1371": "devices",
    "devices.uhci": "devices",
    "devices.ps2mouse": "devices",
    "devices.link": "devices",
    "drivers": "drivers",          # legacy + decaf callbacks and functions
    "core.xpc": "core.xpc",        # xpc, objtracker, runtime
    "core.marshal": "core.xpc",    # marshal (reported on its own too)
    "recovery": "recovery",
    "faults": "recovery",
    "fleet": "fleet",
    "workloads": "workloads",      # traffic generator, sinks, driver loops
}

#: Entry points whose crossing-cost charge marks one XPC crossing.
CROSSING_SPANS = ("core.xpc:upcall", "core.xpc:downcall",
                  "core.xpc:flush_deferred")
CROSSING_CHARGE = "kernel:consume.xpc"


def prefix_of(name):
    return name.split(":", 1)[0]


def layer_of(name):
    return LAYERS.get(prefix_of(name), "other")


class SpanRecorder:
    """Spans in parallel arrays; see the module docstring."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = [0]
        self._stack = [-1]
        # Values metered at entry points: marshaled bytes, busy returns.
        self.meters = {}

    def __len__(self):
        return len(self.start)

    def name_id(self, span):
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self.names)
            self.names.append(span)
        return nid

    def wrap(self, span, fn):
        """``fn`` recorded as a span named ``span`` on every call."""
        nid = self.name_id(span)
        names, starts, ends = self.name, self.start, self.end
        parents, runs, run_id = self.parent, self.run, self.run_id
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(run_id[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        functools.update_wrapper(traced, fn)
        return traced

    def meter(self, key, amount=1):
        key = (key, self.run_id[0])
        self.meters[key] = self.meters.get(key, 0) + amount

    def metered(self, key, runs):
        """Total metered under ``key`` during the given runs."""
        return sum(v for (k, run), v in self.meters.items()
                   if k == key and run in runs)

    def dump(self, path):
        """Write every span, one tab-separated line each, gzipped."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("# name\tstart_s\tend_s\tparent\trun\n")
            for i in range(len(self)):
                f.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.run[i]))


def summarize(rec, runs, busy_groups=()):
    """Per-name count and self time, plus busy time of span groups.

    Only spans whose run id is in ``runs`` count.  ``busy_groups`` maps
    a group name to a predicate on span names; a group's busy time is
    the duration of its member spans that have no member ancestor (so
    re-entrant calls are not counted twice).  Also returns the number
    of crossing spans: upcall/downcall/flush spans with a direct child
    charging crossing cost.
    """
    n = len(rec)
    names, starts, ends, parents, run_of = (
        rec.name, rec.start, rec.end, rec.parent, rec.run)
    groups = list(busy_groups.items()) if busy_groups else []
    bits = [0] * len(rec.names)
    for nid, span in enumerate(rec.names):
        for g, (_group, member) in enumerate(groups):
            if member(span):
                bits[nid] |= 1 << g
    crossing_ids = {rec._ids[s] for s in CROSSING_SPANS if s in rec._ids}
    charge_id = rec._ids.get(CROSSING_CHARGE)
    child = [0.0] * n
    mask = [0] * n
    crossing = set()
    count = {}
    self_s = {}
    busy = [0.0] * len(groups)
    for i in range(n):
        p = parents[i]
        dur = ends[i] - starts[i]
        nid = names[i]
        if p >= 0:
            child[p] += dur
            mask[i] = mask[p] | bits[names[p]]
            if nid == charge_id and names[p] in crossing_ids:
                crossing.add(p)
    for i in range(n):
        if run_of[i] not in runs:
            continue
        nid = names[i]
        count[nid] = count.get(nid, 0) + 1
        self_s[nid] = self_s.get(nid, 0.0) + (ends[i] - starts[i]) - child[i]
        b = bits[nid] & ~mask[i]
        if b:
            dur = ends[i] - starts[i]
            for g in range(len(groups)):
                if b >> g & 1:
                    busy[g] += dur
    crossings = sum(1 for i in crossing if run_of[i] in runs)
    return {
        "count": {rec.names[k]: v for k, v in count.items()},
        "self_s": {rec.names[k]: v for k, v in self_s.items()},
        "busy_s": {g: busy[j] for j, (g, _m) in enumerate(groups)},
        "crossings": crossings,
    }


def reconcile(pairs):
    """``{name: (wrapper count, program count)}`` -> mismatch messages."""
    return ["%s: wrappers saw %d, program counted %d" % (name, seen, counted)
            for name, (seen, counted) in sorted(pairs.items())
            if seen != counted]


class Patcher:
    """Replaces class attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def patch(self, cls, attr, value):
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def restore(self):
        while self._saved:
            cls, attr, value = self._saved.pop()
            setattr(cls, attr, value)


def wrap_class(rec, patcher, cls, prefix, skip=()):
    """Wrap every plain method defined on ``cls`` itself."""
    for attr, value in list(vars(cls).items()):
        if (attr.startswith("__") or attr in skip
                or not callable(value) or isinstance(value, type)
                or isinstance(value, (staticmethod, classmethod))):
            continue
        patcher.patch(cls, attr, rec.wrap(
            "%s:%s.%s" % (prefix, cls.__name__, attr), value))


def wrap_result(rec, patcher, cls, attr, span):
    """Wrap ``cls.attr`` and the callable it returns (closure factories)."""
    orig = cls.__dict__[attr]
    traced = rec.wrap("%s.factory" % span, orig)

    def factory(*args, **kwargs):
        made = traced(*args, **kwargs)
        return rec.wrap(span, made) if callable(made) else made

    functools.update_wrapper(factory, orig)
    patcher.patch(cls, attr, factory)


class XpcBank:
    """Sums the counters of every Xpc instance, closed ones included."""

    FIELDS = ("kernel_user_crossings", "lang_crossings", "deferred_calls",
              "deferred_coalesced", "failed_calls")

    def __init__(self):
        self.live = []
        self.closed = dict.fromkeys(self.FIELDS, 0)

    def totals(self):
        out = dict(self.closed)
        for xpc in self.live:
            for f in self.FIELDS:
                out[f] += getattr(xpc, f)
        return out

    def on_close(self, xpc):
        if xpc in self.live:
            self.live.remove(xpc)
            for f in self.FIELDS:
                self.closed[f] += getattr(xpc, f)


def install(rec):
    """Wrap every layer's entry points; returns (patcher, XpcBank)."""
    from repro.core import marshal, objtracker, runtime, xpc
    from repro.devices import (E1000Device, Ens1371Device, EthernetLink,
                               Ps2MouseDevice, Rtl8139Device, UhciDevice,
                               UsbFlashDiskModel)
    from repro.devices.link import TrafficGenerator
    from repro.faults.injector import FaultInjector
    from repro.fleet import harness, isolate, slots
    from repro.kernel import core, fastpath, input as kinput, ioports, irq
    from repro.kernel import module, napi, netdev, pci, sound, usb
    from repro.recovery.supervisor import DriverSupervisor
    import repro.drivers.decaf  # noqa: F401 -- registers module classes
    import repro.drivers.legacy  # noqa: F401

    p = Patcher()

    # kernel: event engine, clock advance, irq dispatch.
    p.patch(core.Kernel, "run_until",
            rec.wrap("kernel:run_until", core.Kernel.run_until))
    p.patch(core.Kernel, "_run_event",
            rec.wrap("kernel:event", core.Kernel._run_event))
    orig_consume = core.Kernel.consume
    plain = rec.wrap("kernel:consume", orig_consume)
    charged = rec.wrap(CROSSING_CHARGE, orig_consume)

    def consume(self, ns, busy=True, category="kernel"):
        if category == "xpc":
            return charged(self, ns, busy, category)
        return plain(self, ns, busy, category)

    p.patch(core.Kernel, "consume", consume)
    p.patch(irq.IrqController, "_dispatch",
            rec.wrap("kernel:irq", irq.IrqController._dispatch))

    # drivers: callbacks registered with the kernel.
    handler_span = functools.partial(rec.wrap, "drivers:irq_handler")
    orig_request = irq.IrqController.request_irq
    orig_rebind = irq.IrqController.rebind_irq
    p.patch(irq.IrqController, "request_irq",
            lambda self, n, handler, name, dev_id=None: orig_request(
                self, n, handler_span(handler), name, dev_id))
    p.patch(irq.IrqController, "rebind_irq",
            lambda self, n, handler: orig_rebind(
                self, n, handler_span(handler)))
    orig_napi_register = napi.NapiCore.register

    def napi_register(self, dev, poll, *args, **kwargs):
        return orig_napi_register(
            self, dev, rec.wrap("drivers:napi_poll", poll), *args, **kwargs)

    p.patch(napi.NapiCore, "register", napi_register)
    orig_register_netdev = netdev.NetworkCore.register_netdev

    def register_netdev(self, dev):
        for op in ("open", "stop", "hard_start_xmit", "set_multicast_list",
                   "set_mac_address", "change_mtu", "tx_timeout",
                   "do_ioctl", "get_stats"):
            fn = getattr(dev, op)
            if fn is not None and not hasattr(fn, "__wrapped__"):
                setattr(dev, op, rec.wrap("drivers:netdev_op", fn))
        return orig_register_netdev(self, dev)

    p.patch(netdev.NetworkCore, "register_netdev", register_netdev)
    for cls in _subclasses(module.KernelModule):
        for attr in ("init_module", "cleanup_module"):
            if attr in vars(cls):
                p.patch(cls, attr,
                        rec.wrap("drivers:" + attr, vars(cls)[attr]))

    # kernel.io: interpreted accessors plus the compiled ones.
    for attr in ("read", "write"):
        p.patch(ioports.IoSpace, attr,
                rec.wrap("kernel.io:" + attr, vars(ioports.IoSpace)[attr]))
    wrap_result(rec, p, fastpath.FastIo, "reader", "kernel.io:fast_read")
    wrap_result(rec, p, fastpath.FastIo, "writer", "kernel.io:fast_write")

    # kernel.net
    orig_xmit = netdev.NetworkCore.dev_queue_xmit
    traced_xmit = rec.wrap("kernel.net:dev_queue_xmit", orig_xmit)

    def dev_queue_xmit(self, dev, skb):
        ret = traced_xmit(self, dev, skb)
        rec.meter("tx_busy", ret != netdev.NETDEV_TX_OK)
        return ret

    p.patch(netdev.NetworkCore, "dev_queue_xmit", dev_queue_xmit)
    wrap_class(rec, p, netdev.NetworkCore, "kernel.net",
               skip=("dev_queue_xmit", "register_netdev"))
    wrap_class(rec, p, netdev.SkbPool, "kernel.net")
    wrap_class(rec, p, napi.NapiCore, "kernel.net", skip=("register",))

    # kernel.bus
    for mod in (pci, usb, sound, kinput):
        for cls in _classes_of(mod):
            wrap_class(rec, p, cls, "kernel.bus")
    p.patch(module.ModuleLoader, "insmod",
            rec.wrap("kernel.bus:insmod", module.ModuleLoader.insmod))
    p.patch(module.ModuleLoader, "rmmod",
            rec.wrap("kernel.bus:rmmod", module.ModuleLoader.rmmod))

    # devices: every model method; compiled hooks wrap their closures.
    for cls, prefix in ((E1000Device, "devices.e1000"),
                        (Rtl8139Device, "devices.rtl8139"),
                        (Ens1371Device, "devices.ens1371"),
                        (UhciDevice, "devices.uhci"),
                        (UsbFlashDiskModel, "devices.uhci"),
                        (Ps2MouseDevice, "devices.ps2mouse"),
                        (EthernetLink, "devices.link")):
        hooks = [a for a in ("reg_reader", "reg_writer", "_build_rx_fast")
                 if a in vars(cls)]
        wrap_class(rec, p, cls, prefix, skip=hooks)
        for attr in hooks:
            wrap_result(rec, p, cls, attr, "%s:%s" % (prefix, attr))
    wrap_class(rec, p, TrafficGenerator, "workloads")

    # core.xpc: the four call paths, the tracker, the runtime; marshal.
    bank = XpcBank()
    orig_init, orig_close = xpc.Xpc.__init__, xpc.Xpc.close

    def xpc_init(self, kernel):
        orig_init(self, kernel)
        bank.live.append(self)

    def xpc_close(self):
        orig_close(self)
        bank.on_close(self)

    p.patch(xpc.Xpc, "__init__", xpc_init)
    p.patch(xpc.Xpc, "close", xpc_close)
    # The function an XPC call invokes is driver code on the far side.
    user_fn = functools.partial(rec.wrap, "drivers:xpc_func")
    for attr in ("upcall", "downcall", "lang_call", "direct_call"):
        p.patch(xpc.XpcChannel, attr, _wrap_callee(
            rec.wrap("core.xpc:" + attr, vars(xpc.XpcChannel)[attr]),
            user_fn))
    for attr in ("defer", "flush_deferred"):
        p.patch(xpc.XpcChannel, attr,
                rec.wrap("core.xpc:" + attr, vars(xpc.XpcChannel)[attr]))
    for cls in (objtracker.KernelObjectTracker, objtracker.UserObjectTracker,
                runtime.NuclearRuntime, runtime.DecafRuntime):
        wrap_class(rec, p, cls, "core.xpc")
    p.patch(marshal.MarshalCodec, "encode_args",
            rec.wrap("core.marshal:encode_args",
                     marshal.MarshalCodec.encode_args))
    traced_decode = rec.wrap("core.marshal:decode_args",
                             marshal.MarshalCodec.decode_args)

    def decode_args(self, data, *args, **kwargs):
        rec.meter("marshal_bytes", len(data))
        return traced_decode(self, data, *args, **kwargs)

    p.patch(marshal.MarshalCodec, "decode_args", decode_args)

    # recovery / faults / fleet
    wrap_class(rec, p, DriverSupervisor, "recovery")
    wrap_class(rec, p, FaultInjector, "faults")
    for attr in ("_churn_event", "_fault_event", "_settle"):
        p.patch(harness.FleetHarness, attr,
                rec.wrap("fleet:" + attr.strip("_"),
                         vars(harness.FleetHarness)[attr]))
    wrap_class(rec, p, isolate.ClonePool, "fleet")
    for cls in (slots.DeviceSlot, *_subclasses(slots.DeviceSlot)):
        wrap_class(rec, p, cls, "fleet")
    return p, bank


def _wrap_callee(traced, wrap_fn):
    def call(self, func, *args, **kwargs):
        return traced(self, wrap_fn(func), *args, **kwargs)

    functools.update_wrapper(call, traced)
    return call


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _classes_of(mod):
    return [v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == mod.__name__
            and not issubclass(v, BaseException)]
