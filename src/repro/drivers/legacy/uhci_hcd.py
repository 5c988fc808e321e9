"""uhci-hcd: UHCI USB 1.1 host controller driver (legacy, C-idiomatic).

Mirrors drivers/usb/host/uhci-hcd.c in shape: the HCD owns a transfer
schedule in DMA memory, enqueues URBs by building transfer descriptors,
completes them from its interrupt handler, and manages root-hub ports
(reset, enable, enumerate).  Nearly everything here is data-path or
port-management code reachable from ``uhci_urb_enqueue`` and
``uhci_irq`` -- which is why the paper could move only 4% of this
driver's functions to Java.
"""

import struct as _pystruct

from ...core.cstruct import CStruct, Opaque, Ptr, Str, U8, U16, U32

linux = None  # bound at insmod

DRV_NAME = "uhci_hcd"

UHCI_VENDOR_ID = 0x8086
UHCI_DEVICE_ID = 0x7020

# Registers.
USBCMD = 0x00
USBSTS = 0x02
USBINTR = 0x04
FRNUM = 0x06
FLBASEADD = 0x08
SOFMOD = 0x0C
PORTSC1 = 0x10
PORTSC2 = 0x12

CMD_RS = 0x0001
CMD_HCRESET = 0x0002
CMD_MAXP = 0x0080

STS_USBINT = 0x0001
STS_ERROR = 0x0002
STS_HCHALTED = 0x0020

PORT_CCS = 0x0001
PORT_CSC = 0x0002
PORT_PE = 0x0004
PORT_PEC = 0x0008
PORT_LSDA = 0x0100
PORT_PR = 0x0200

TD_IN = 0x01
TD_ACTIVE = 0x02
TD_DONE = 0x04
TD_ERROR = 0x08

TD_SIZE = 16
TD_RING_ENTRIES = 64
TD_MAX_DATA = 512

UHCI_NUM_PORTS = 2


class uhci_hcd_state(CStruct):
    """struct uhci_hcd: controller state shared across the split."""

    FIELDS = [
        ("io_addr", U32),
        ("irq", U32),
        ("rh_numports", U16),
        ("frame_number", U16),
        ("is_stopped", U8),
        ("port_c_suspend", U16),
        ("resuming_ports", U16),
        ("fl_dma", U32),
        ("pdev", Ptr("uhci_hcd_state"), Opaque()),
    ]


class uhci_state:
    """The uhci_hcd members that never cross the split, one per
    controller: ``uhci._kstate`` (see :mod:`repro.drivers.modulebase`)."""

    def __init__(self):
        self.uhci = None
        self.frame_list = None
        self.lock = None
        self.td_head = 0      # next ring slot to fill
        self.td_dirty = 0     # next ring slot to reclaim
        self.td_urb = {}      # slot -> (urb, is_last_td)
        self.urb_inflight = {}
        self.port_devices = []
        self.hcd_ops = None
        self.pdev = None


# ---------------------------------------------------------------------------
# Register access
# ---------------------------------------------------------------------------

def uhci_readw(uhci, reg):
    return linux.inw(uhci.io_addr + reg)


def uhci_writew(uhci, value, reg):
    linux.outw(value, uhci.io_addr + reg)


def uhci_readl(uhci, reg):
    return linux.inl(uhci.io_addr + reg)


def uhci_writel(uhci, value, reg):
    linux.outl(value, uhci.io_addr + reg)


# ---------------------------------------------------------------------------
# Controller bring-up
# ---------------------------------------------------------------------------

def uhci_reset_hc(uhci):
    """Host-controller reset; waits for the controller to settle."""
    uhci_writew(uhci, CMD_HCRESET, USBCMD)
    linux.msleep(10)
    if uhci_readw(uhci, USBCMD) & CMD_HCRESET:
        return -linux.EIO
    return 0


def uhci_start(uhci):
    """Allocate the schedule and set the controller running."""
    st = uhci._kstate
    st.frame_list = linux.dma_alloc_coherent(
        TD_RING_ENTRIES * TD_SIZE, owner=DRV_NAME
    )
    if st.frame_list is None:
        return -linux.ENOMEM
    uhci.fl_dma = st.frame_list.dma_addr
    uhci_writel(uhci, uhci.fl_dma, FLBASEADD)
    uhci_writew(uhci, 0, FRNUM)
    uhci_writew(uhci, 0x000F, USBINTR)  # all interrupt sources
    uhci_writew(uhci, CMD_RS | CMD_MAXP, USBCMD)
    uhci.is_stopped = 0
    return 0


def uhci_stop(uhci):
    uhci_writew(uhci, 0, USBINTR)
    uhci_writew(uhci, 0, USBCMD)
    uhci.is_stopped = 1
    st = uhci._kstate
    if st.frame_list is not None:
        linux.dma_free_coherent(st.frame_list)
        st.frame_list = None


# ---------------------------------------------------------------------------
# Transfer descriptors
# ---------------------------------------------------------------------------

def uhci_td_available(st, count):
    used = (st.td_head - st.td_dirty) % TD_RING_ENTRIES
    return TD_RING_ENTRIES - used - 1 >= count


def uhci_fill_td(st, slot, buf_dma, length, flags, dev_addr, endpoint):
    _pystruct.pack_into(
        "<IHBBBBH", st.frame_list.data, slot * TD_SIZE,
        buf_dma, length, flags | TD_ACTIVE, dev_addr, endpoint, 0, 0,
    )


def uhci_read_td(st, slot):
    return _pystruct.unpack_from(
        "<IHBBBBH", st.frame_list.data, slot * TD_SIZE
    )


def uhci_clear_td(st, slot):
    _pystruct.pack_into("<IHBBBBH", st.frame_list.data,
                        slot * TD_SIZE, 0, 0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# URB enqueue / dequeue (the HCD driver interface)
# ---------------------------------------------------------------------------

def uhci_urb_enqueue(hcd, urb):
    """Build TDs for one URB; returns 0 or -errno."""
    from ...kernel.usb import pipe_endpoint, pipe_in

    uhci = hcd.hcd_priv
    if uhci.is_stopped:
        return -linux.ENODEV
    st = uhci._kstate

    data = urb.buffer
    length = len(data)
    td_count = max(1, (length + TD_MAX_DATA - 1) // TD_MAX_DATA)
    if not uhci_td_available(st, td_count):
        return -linux.ENOMEM

    # Stage the transfer buffer in DMA memory (one region per URB);
    # allocated before taking the lock, since the allocator may sleep.
    dma = linux.dma_alloc_coherent(max(length, 8), owner=DRV_NAME)
    if dma is None:
        return -linux.ENOMEM
    is_in = pipe_in(urb.pipe)
    if not is_in:
        dma.data[0:length] = bytes(data)

    linux.spin_lock_irqsave(st.lock)

    slots = []
    offset = 0
    for i in range(td_count):
        chunk = min(TD_MAX_DATA, length - offset) if length else 0
        slot = st.td_head
        flags = TD_IN if is_in else 0
        uhci_fill_td(st, slot, dma.dma_addr + offset, chunk, flags,
                     urb.device.address, pipe_endpoint(urb.pipe))
        st.td_urb[slot] = (urb, i == td_count - 1)
        st.td_head = (st.td_head + 1) % TD_RING_ENTRIES
        slots.append(slot)
        offset += chunk

    st.urb_inflight[urb.id] = {
        "urb": urb, "dma": dma, "slots": slots, "actual": 0,
    }
    linux.spin_unlock_irqrestore(st.lock)
    # Confirm the controller is still running before reporting the URB
    # queued; the register access also serves as the doorbell that ends
    # an idle-coast, so the new TDs execute in the next frame.
    if not uhci_readw(uhci, USBCMD) & CMD_RS:
        return -linux.EIO
    return 0


def uhci_urb_dequeue(hcd, urb):
    st = hcd.hcd_priv._kstate
    entry = st.urb_inflight.pop(urb.id, None)
    if entry is None:
        return -linux.EINVAL
    linux.spin_lock_irqsave(st.lock)
    for slot in entry["slots"]:
        uhci_clear_td(st, slot)
        st.td_urb.pop(slot, None)
    linux.dma_free_coherent(entry["dma"])
    linux.spin_unlock_irqrestore(st.lock)
    return 0


# ---------------------------------------------------------------------------
# Interrupt handler (critical root)
# ---------------------------------------------------------------------------

def uhci_irq(irq, dev_id):
    uhci = dev_id
    status = uhci_readw(uhci, USBSTS)
    if not status & (STS_USBINT | STS_ERROR):
        return linux.IRQ_NONE
    uhci_writew(uhci, status, USBSTS)  # w1c
    uhci_scan_schedule(uhci)
    # Port-change handling (resume detect, connect changes) is reached
    # from the interrupt path on UHCI -- this is what makes nearly the
    # whole driver kernel-resident in the paper's partitioning.
    if uhci_hub_status_data(uhci):
        uhci_scan_ports(uhci)
    return linux.IRQ_HANDLED


def uhci_scan_schedule(uhci):
    """Reclaim completed TDs in order; give back finished URBs."""
    from ...kernel.usb import pipe_in

    st = uhci._kstate
    while st.td_dirty != st.td_head:
        slot = st.td_dirty
        _buf, _length, flags, _dev, _ep, _res, actual = uhci_read_td(st, slot)
        if flags & TD_ACTIVE:
            break  # controller hasn't executed this one yet
        if not flags & TD_DONE:
            break
        urb, is_last = st.td_urb.pop(slot)
        entry = st.urb_inflight.get(urb.id)
        uhci_clear_td(st, slot)
        st.td_dirty = (st.td_dirty + 1) % TD_RING_ENTRIES
        if entry is None:
            continue  # urb was dequeued
        entry["actual"] += actual
        failed = bool(flags & TD_ERROR)
        if is_last or failed:
            st.urb_inflight.pop(urb.id, None)
            if pipe_in(urb.pipe):
                n = entry["actual"]
                urb.buffer[0:n] = entry["dma"].data[0:n]
            linux.dma_free_coherent(entry["dma"])
            status = -linux.EIO if failed else 0
            linux.usb_giveback_urb(urb, status, entry["actual"])


# ---------------------------------------------------------------------------
# Root hub / port management
# ---------------------------------------------------------------------------

def uhci_hub_status_data(uhci):
    """Bitmap of ports with status changes (hub polling)."""
    changed = 0
    for port in range(uhci.rh_numports):
        sc = uhci_readw(uhci, PORTSC1 + port * 2)
        if sc & (PORT_CSC | PORT_PEC):
            changed |= 1 << port
    return changed


def uhci_port_reset(uhci, port):
    """Assert then deassert port reset; enables the port."""
    reg = PORTSC1 + port * 2
    uhci_writew(uhci, PORT_PR, reg)
    linux.msleep(50)
    uhci_writew(uhci, 0, reg)
    linux.msleep(10)
    sc = uhci_readw(uhci, reg)
    if not sc & PORT_PE:
        uhci_writew(uhci, PORT_PE, reg)
        sc = uhci_readw(uhci, reg)
    return 0 if sc & PORT_PE else -linux.EIO


def uhci_scan_ports(uhci):
    """Enumerate devices on ports with connect-status changes."""
    from ...kernel.usb import UsbDevice, UsbDeviceDescriptor

    st = uhci._kstate
    for port in range(uhci.rh_numports):
        reg = PORTSC1 + port * 2
        sc = uhci_readw(uhci, reg)
        if not sc & PORT_CSC:
            continue
        uhci_writew(uhci, PORT_CSC, reg)  # ack the change
        if sc & PORT_CCS:
            err = uhci_port_reset(uhci, port)
            if err:
                continue
            model = _uhci_port_model(uhci, port)
            if model is None:
                continue
            descriptor = UsbDeviceDescriptor(vendor_id=0x0781,
                                             product_id=0x5150)
            device = UsbDevice(descriptor, name="flash-disk")
            device.model = model
            address = linux.usb_connect_device(device, hcd=st.hcd_ops)
            model.set_address(address)
            device.address = address
            st.port_devices.append(device)
        else:
            for device in list(st.port_devices):
                linux.usb_disconnect_device(device)
                st.port_devices.remove(device)


def _uhci_port_model(uhci, port):
    # The simulation's stand-in for enumeration: the controller model
    # (the handler of its I/O BAR) knows what sits on each root port.
    return uhci._kstate.pdev.bars[0].handler.port_devices[port]


# ---------------------------------------------------------------------------
# HCD registration object (what the USB core calls)
# ---------------------------------------------------------------------------

class UhciHcdOps:
    """The usb_hcd the USB core calls; ``hcd_priv`` is the controller."""

    hcd_priv = None

    def urb_enqueue(self, urb):
        return uhci_urb_enqueue(self, urb)

    def urb_dequeue(self, urb):
        return uhci_urb_dequeue(self, urb)


# ---------------------------------------------------------------------------
# Probe / remove
# ---------------------------------------------------------------------------

def uhci_pci_probe(pdev):
    err = linux.pci_enable_device(pdev)
    if err:
        return err
    err = linux.pci_request_regions(pdev, DRV_NAME)
    if err:
        linux.pci_disable_device(pdev)
        return err

    uhci = uhci_hcd_state()
    uhci._kstate = st = uhci_state()
    uhci.io_addr = linux.pci_resource_start(pdev, 0)
    uhci.irq = pdev.irq
    uhci.rh_numports = UHCI_NUM_PORTS
    st.uhci = uhci
    st.lock = linux.spin_lock_init("uhci")
    st.pdev = pdev

    err = uhci_reset_hc(uhci)
    if err:
        uhci_pci_probe_unwind(pdev)
        return err

    err = linux.request_irq(uhci.irq, uhci_irq, DRV_NAME, uhci)
    if err:
        uhci_pci_probe_unwind(pdev)
        return err

    err = uhci_start(uhci)
    if err:
        linux.free_irq(uhci.irq, uhci)
        uhci_pci_probe_unwind(pdev)
        return err

    st.hcd_ops = UhciHcdOps()
    st.hcd_ops.hcd_priv = uhci
    linux.usb_register_hcd(st.hcd_ops)
    uhci_scan_ports(uhci)
    pdev.driver_data = uhci
    return 0


def uhci_pci_probe_unwind(pdev):
    linux.pci_release_regions(pdev)
    linux.pci_disable_device(pdev)


def uhci_pci_remove(pdev):
    uhci = pdev.driver_data
    if uhci is None:
        return
    st = uhci._kstate
    for device in list(st.port_devices):
        linux.usb_disconnect_device(device)
    st.port_devices = []
    uhci_stop(uhci)
    if st.hcd_ops is not None:
        linux.usb_unregister_hcd(st.hcd_ops)
        st.hcd_ops = None
    linux.free_irq(uhci.irq, uhci)
    linux.pci_release_regions(pdev)
    linux.pci_disable_device(pdev)
    pdev.driver_data = None


class UhciPciGlue:
    name = DRV_NAME
    id_table = ((UHCI_VENDOR_ID, UHCI_DEVICE_ID),)

    def probe(self, kernel, pdev):
        return uhci_pci_probe(pdev)

    def remove(self, kernel, pdev):
        uhci_pci_remove(pdev)

    def matches(self, func):
        return (func.vendor_id, func.device_id) in self.id_table


def uhci_hcd_init():
    return 0


def uhci_hcd_cleanup():
    return 0


def make_module():
    from ..modulebase import LegacyDriverModule

    return LegacyDriverModule(
        name=DRV_NAME,
        driver_module=__import__(__name__, fromlist=["*"]),
        driver=UhciPciGlue(),
        init_fn=uhci_hcd_init,
        cleanup_fn=uhci_hcd_cleanup,
    )
