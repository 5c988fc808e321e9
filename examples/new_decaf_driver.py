#!/usr/bin/env python3
"""Writing a brand-new driver as a decaf driver from day one.

The paper's migration path ends with new development happening at user
level: "Developers can also implement new user-level functionality in
Java."  This example builds a tiny driver for a hypothetical
sensor/LED PCI gadget entirely against the public API -- no legacy C
version ever exists:

* a register-level device model (temperature register, LED control,
  threshold alarm interrupt);
* a ~40-line driver nucleus: the alarm interrupt handler plus two
  kernel entry points;
* the decaf driver: probe, threshold configuration, and an alarm
  policy -- all at user level, with checked exceptions.

Run:  python examples/new_decaf_driver.py
"""

from repro.core.cstruct import CStruct, U32
from repro.core.marshal import MarshalPlan, FieldAccess
from repro.drivers.decaf.exceptions import ConfigException, HardwareException
from repro.drivers.decaf.plumbing import Nucleus, xpc_stubs
from repro.kernel import IRQ_HANDLED, make_kernel
from repro.kernel.pci import PciBar, PciFunction

# -- registers of the (hypothetical) sensor gadget --------------------------

REG_TEMP = 0x00       # current temperature, 0.1 degC units
REG_THRESHOLD = 0x04  # alarm threshold
REG_LED = 0x08        # 1 = on
REG_STATUS = 0x0C     # bit0: alarm pending (write 1 to clear)


class SensorDevice:
    """Device model: temperature drifts upward; crossing the threshold
    raises the alarm interrupt."""

    def __init__(self, kernel, irq=12, io_base=0xA000):
        self._kernel = kernel
        self.irq = irq
        self.temp = 215  # 21.5 degC
        self.threshold = 0xFFFFFFFF
        self.led = 0
        self.status = 0
        self.pci = PciFunction(0x1DEC, 0x0001, irq,
                               [PciBar(io_base, 0x10, False, self)],
                               name="sensor")

    def read(self, offset, size):
        return {REG_TEMP: self.temp, REG_THRESHOLD: self.threshold,
                REG_LED: self.led, REG_STATUS: self.status}.get(offset, 0)

    def write(self, offset, value, size):
        if offset == REG_THRESHOLD:
            self.threshold = value
        elif offset == REG_LED:
            self.led = value & 1
        elif offset == REG_STATUS:
            self.status &= ~value

    def heat(self, delta):
        self.temp += delta
        if self.temp >= self.threshold and not self.status & 1:
            self.status |= 1
            self._kernel.irq.raise_irq(self.irq)


# -- shared state struct (would be annotated for DriverSlicer) ---------------

class sensor_state(CStruct):
    FIELDS = [("io_base", U32), ("threshold", U32), ("alarms", U32)]


# -- the driver nucleus: interrupt handler + kernel entry points -------------

@xpc_stubs
class SensorNucleus(Nucleus):
    # The decaf methods the nucleus calls up to; neither is replayed.
    UPCALLS = {"probe": None, "alarm": None}

    def __init__(self, kernel, device):
        self.kernel = kernel
        self.device = device
        plan = MarshalPlan()
        plan.set_access("sensor_state", FieldAccess(
            reads={"io_base", "threshold"},
            writes={"io_base", "threshold", "alarms"}))
        # No legacy driver: the XPC boundary is built directly.
        self.connect("sensor", irq_line=device.irq, plan=plan)
        self.state = sensor_state()
        self.channel.kernel_tracker.register(self.state)
        self.decaf = SensorDecafDriver(self.decaf_rt, self.down)
        self.alarm_work = None

    def load(self):
        self.kernel.pci.enable_device(self.device.pci)
        self.kernel.pci.request_regions(self.device.pci, "sensor")
        self.kernel.request_irq(self.device.irq, self.irq_handler, "sensor")
        self.decaf_rt.start()
        return self.up.probe(self.state)

    def irq_handler(self, irq, dev_id):
        # High priority: ack and defer the policy to user level.
        self.kernel.io.outl(1, self.state.io_base + REG_STATUS)
        from repro.kernel import WorkItem

        work = WorkItem(self.kernel, self._alarm_work, name="sensor-alarm")
        self.kernel.workqueue.schedule_work(work)
        return IRQ_HANDLED

    def _alarm_work(self, _data):
        self.up.alarm(self.state)

    # kernel entry point used by the decaf driver
    def k_resource_start(self):
        return self.device.pci.resource_start(0)


# -- the decaf driver: all policy at user level, with exceptions --------------

class SensorDecafDriver:
    def __init__(self, rt, down):
        self.rt = rt
        self.down = down  # downcall stubs: the nucleus's k_* entry points

    def probe(self, state):
        state.io_base = self.down.k_resource_start()
        temp = self.rt.inl(state.io_base + REG_TEMP)
        if temp == 0:
            raise HardwareException("sensor reads zero: not present?")
        self.set_threshold(state, 300)  # alarm at 30.0 degC
        return 0

    def set_threshold(self, state, tenths):
        if not 0 < tenths < 1000:
            raise ConfigException("threshold %d out of range" % tenths)
        state.threshold = tenths
        self.rt.outl(tenths, state.io_base + REG_THRESHOLD)

    def alarm(self, state):
        """Alarm policy: light the LED and back the threshold off."""
        state.alarms += 1
        self.rt.outl(1, state.io_base + REG_LED)
        self.set_threshold(state, state.threshold + 50)
        return 0


def main():
    kernel = make_kernel()
    device = SensorDevice(kernel)
    kernel.pci.add_function(device.pci)

    nucleus = SensorNucleus(kernel, device)
    assert nucleus.load() == 0
    print("sensor decaf driver loaded; threshold %.1f degC, "
          "crossings so far: %d"
          % (device.threshold / 10,
             nucleus.xpc.kernel_user_crossings))

    print("heating the sensor...")
    for _ in range(12):
        device.heat(10)
        kernel.run_for_ms(10)

    print("temperature now %.1f degC" % (device.temp / 10))
    print("alarms handled at user level: %d" % nucleus.state.alarms)
    print("LED on: %s, threshold backed off to %.1f degC"
          % (bool(device.led), device.threshold / 10))
    assert nucleus.state.alarms >= 1
    assert device.led == 1
    print("\nEverything above the interrupt ack ran in the decaf driver -- "
          "a new driver with no C version ever written.")


if __name__ == "__main__":
    main()
