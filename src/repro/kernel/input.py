"""Input core: serio ports and input devices (for the psmouse driver).

A :class:`SerioPort` is the byte pipe between the PS/2 controller and the
mouse: the driver writes command bytes to the device; the device answers
(and streams movement packets) as bytes delivered to the driver's
``interrupt`` callback **in hardirq context**, which is why psmouse's
protocol-decode stays in the driver nucleus while its detection and
initialization logic can move to Java.

An :class:`InputDev` is the upward-facing event device; the core counts
events and feeds an optional sink installed by the workload.
"""

from .errors import EIO

# Event types (subset of linux/input.h).
EV_KEY = 0x01
EV_REL = 0x02
EV_SYN = 0x00

REL_X = 0x00
REL_Y = 0x01
REL_WHEEL = 0x08

BTN_LEFT = 0x110
BTN_RIGHT = 0x111
BTN_MIDDLE = 0x112


class SerioPort:
    """A serio (PS/2-style) port connecting a driver and a device model."""

    def __init__(self, kernel, name="serio0"):
        self._kernel = kernel
        self.name = name
        self.device_model = None  # must expose handle_byte(port, byte)
        self.driver_interrupt = None  # callable(port, byte, flags)
        self.drvdata = None  # serio_get_drvdata: the bound driver's device
        self.opened = False
        self.bytes_to_device = 0
        self.bytes_from_device = 0
        # Optional observer ``tap(port, byte)`` fired on every
        # device->driver byte (before masking by open state); serio
        # delivers outside the IrqController, so repro.explore taps the
        # port directly to capture the input-line footprint.
        self.deliver_tap = None

    def attach_device(self, model):
        self.device_model = model

    def open(self, driver_interrupt):
        self.driver_interrupt = driver_interrupt
        self.opened = True
        return 0

    def close(self):
        self.opened = False
        self.driver_interrupt = None

    def write(self, byte):
        """Driver -> device command byte.  Returns 0 or -EIO."""
        if self.device_model is None:
            return -EIO
        self._kernel.consume(
            self._kernel.costs.port_io_ns * 12, busy=True, category="serio"
        )
        self.bytes_to_device += 1
        self.device_model.handle_byte(self, byte & 0xFF)
        return 0

    def deliver(self, byte):
        """Device -> driver byte, delivered in hardirq context."""
        self.bytes_from_device += 1
        if self.deliver_tap is not None:
            self.deliver_tap(self, byte)
        if not self.opened or self.driver_interrupt is None:
            return
        kernel = self._kernel
        kernel.charge(kernel.costs.irq_entry_ns, "irq")
        tracer = kernel.tracer
        entry_ns = kernel.clock.now_ns if tracer is not None else 0
        kernel.context.enter_irq()
        try:
            self.driver_interrupt(self, byte & 0xFF, 0)
        finally:
            kernel.context.exit_irq()
            if tracer is not None:
                # Serio delivers outside the IrqController (no line
                # number); trace it as an irq span keyed by port name.
                tracer.irq_span(entry_ns, None, self.name, True)


class InputDev:
    """``struct input_dev``: driver reports events through this."""

    def __init__(self, kernel, name):
        self._kernel = kernel
        self.name = name
        self.evbits = set()
        self.keybits = set()
        self.relbits = set()
        self.registered = False
        self._pending = []
        self.events_reported = 0
        self.syncs = 0
        self.sink = None  # callable(event_list) set by workloads

    def set_capability(self, ev_type, code):
        self.evbits.add(ev_type)
        if ev_type == EV_KEY:
            self.keybits.add(code)
        elif ev_type == EV_REL:
            self.relbits.add(code)

    def input_report_rel(self, code, value):
        if value:
            self._pending.append((EV_REL, code, value))

    def input_report_key(self, code, value):
        self._pending.append((EV_KEY, code, int(bool(value))))

    def input_sync(self):
        self.syncs += 1
        events = self._pending
        self._pending = []
        self.events_reported += len(events)
        if self.sink is not None and events:
            self.sink(events)


class InputCore:
    def __init__(self, kernel):
        self._kernel = kernel
        self._devices = []
        self._serio_ports = []

    def new_serio_port(self, name="serio0"):
        port = SerioPort(self._kernel, name)
        self._serio_ports.append(port)
        return port

    @property
    def serio_ports(self):
        return list(self._serio_ports)

    def register_device(self, dev):
        dev.registered = True
        self._devices.append(dev)
        return 0

    def unregister_device(self, dev):
        dev.registered = False
        if dev in self._devices:
            self._devices.remove(dev)

    @property
    def devices(self):
        return list(self._devices)
