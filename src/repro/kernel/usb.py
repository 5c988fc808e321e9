"""USB core: URBs, devices, and the host-controller driver interface.

The uhci-hcd driver is a *host controller* driver: the USB core hands it
URBs (USB request blocks) via ``urb_enqueue`` and the HCD programs the
controller hardware to move the data, completing URBs from its interrupt
handler.  That data path -- enqueue, frame processing, completion -- is
what keeps most of uhci-hcd in the driver nucleus (the paper moved only
4% of its functions to Java).

The core also provides the synchronous ``usb_bulk_msg`` helper the
tar-to-flash-drive workload uses.
"""

from .errors import EINVAL, ENODEV, EPIPE, ETIMEDOUT

# Pipe/endpoint encoding.
PIPE_CONTROL = 0
PIPE_BULK = 2
PIPE_INTERRUPT = 3

USB_DIR_OUT = 0
USB_DIR_IN = 0x80

USB_SPEED_LOW = "low"
USB_SPEED_FULL = "full"


def usb_sndbulkpipe(device, endpoint):
    return (PIPE_BULK << 8) | (endpoint & 0x7F)


def usb_rcvbulkpipe(device, endpoint):
    return (PIPE_BULK << 8) | (endpoint & 0x7F) | USB_DIR_IN


def pipe_endpoint(pipe):
    return pipe & 0x7F

def pipe_in(pipe):
    return bool(pipe & USB_DIR_IN)


class UsbDeviceDescriptor:
    def __init__(self, vendor_id, product_id, device_class=0, max_packet=64):
        self.vendor_id = vendor_id
        self.product_id = product_id
        self.device_class = device_class
        self.max_packet = max_packet


class UsbDevice:
    """A device on the bus, reachable through a root-hub port."""

    def __init__(self, descriptor, speed=USB_SPEED_FULL, name="usb-dev"):
        self.descriptor = descriptor
        self.speed = speed
        self.name = name
        self.address = 0
        self.port = None
        self.model = None  # the device model handling transfers
        self.hcd = None  # the host controller this device hangs off

    def __repr__(self):
        return "<UsbDevice %s addr=%d>" % (self.name, self.address)


class Urb:
    """A USB request block."""

    _next_id = 0

    def __init__(self, device, pipe, buffer, complete=None, context=None):
        Urb._next_id += 1
        self.id = Urb._next_id
        self.device = device
        self.pipe = pipe
        self.buffer = buffer  # bytearray for IN, bytes for OUT
        self.complete = complete
        self.context = context
        self.status = -EINPROGRESS_STATUS
        self.actual_length = 0

    def is_in(self):
        return pipe_in(self.pipe)


# URB in-flight status marker (positive sentinel; Linux uses -EINPROGRESS).
EINPROGRESS_STATUS = 115


class UsbCore:
    def __init__(self, kernel):
        self._kernel = kernel
        self._hcds = []
        self._devices = []
        self._next_address = 1
        self.urbs_submitted = 0
        self.urbs_completed = 0

    # -- HCD registration ------------------------------------------------------

    def register_hcd(self, hcd):
        """``hcd`` provides urb_enqueue(urb) -> int and urb_dequeue(urb).

        The core supports many controllers at once (a fleet kernel
        hosts one per UHCI function); URBs route to the HCD whose
        root-hub port the target device hangs off.
        """
        if hcd not in self._hcds:
            self._hcds.append(hcd)
        return hcd

    def unregister_hcd(self, hcd):
        if hcd in self._hcds:
            self._hcds.remove(hcd)

    @property
    def hcd(self):
        """The most recently registered controller (single-HCD compat)."""
        return self._hcds[-1] if self._hcds else None

    def _hcd_for(self, device):
        hcd = getattr(device, "hcd", None)
        if hcd is not None and hcd in self._hcds:
            return hcd
        return self._hcds[-1] if self._hcds else None

    # -- device lifecycle (called by HCD on port events) ------------------------

    def connect_device(self, device, hcd=None):
        if hcd is not None:
            device.hcd = hcd
        # Addresses are a per-bus namespace (1..127), as on real USB:
        # TDs carry the address in one byte, and a fleet of controllers
        # would otherwise exhaust a global counter under hotplug churn.
        bus = getattr(device, "hcd", None)
        used = {d.address for d in self._devices
                if getattr(d, "hcd", None) is bus}
        address = 1
        while address in used and address < 127:
            address += 1
        if address in used:
            return -ENODEV  # bus full
        device.address = address
        self._devices.append(device)
        return device.address

    def disconnect_device(self, device):
        if device in self._devices:
            self._devices.remove(device)

    @property
    def devices(self):
        return list(self._devices)

    # -- URB submission ------------------------------------------------------------

    def submit_urb(self, urb):
        hcd = self._hcd_for(urb.device)
        if hcd is None:
            return -ENODEV
        urb.status = -EINPROGRESS_STATUS
        urb.actual_length = 0
        self.urbs_submitted += 1
        return hcd.urb_enqueue(urb)

    def _giveback_urb(self, urb, status, actual_length):
        """HCD reports completion (usually from its irq handler)."""
        urb.status = status
        urb.actual_length = actual_length
        self.urbs_completed += 1
        if urb.complete is not None:
            urb.complete(urb)

    def usb_bulk_msg(self, device, pipe, data, timeout_ms=5000):
        """Synchronous bulk transfer.

        Returns (status, actual_length).  Advances virtual time while
        waiting for the HCD to complete the URB.
        """
        self._kernel.context.might_sleep("usb_bulk_msg")
        done = {"flag": False}

        def complete(urb):
            done["flag"] = True

        urb = Urb(device, pipe, data, complete=complete)
        ret = self.submit_urb(urb)
        if ret != 0:
            return ret, 0
        deadline = self._kernel.clock.now_ns + timeout_ms * 1_000_000
        while not done["flag"]:
            t = self._kernel.events.peek_time()
            if t is None or t > deadline:
                hcd = self._hcd_for(urb.device)
                if hcd is not None:
                    hcd.urb_dequeue(urb)
                return -ETIMEDOUT, urb.actual_length
            self._kernel.run_until(t)
        return urb.status, urb.actual_length
