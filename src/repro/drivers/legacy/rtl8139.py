"""8139too: RealTek RTL8139 fast ethernet driver (legacy, C-idiomatic).

Mirrors drivers/net/8139too.c from Linux 2.6.18: port-I/O programmed,
four transmit slots, single receive ring, integer errno returns and
manual unwind chains.  This is the *input* to DriverSlicer; the decaf
conversion lives in :mod:`repro.drivers.decaf.rtl8139`.
"""

import struct as _pystruct

from ...core.cstruct import CStruct, Exp, Opaque, Ptr, Str, U8, U16, U32, I32

# Bound at insmod time ("the kernel headers").
linux = None

DRV_NAME = "8139too"
DRV_VERSION = "0.9.27"

RTL8139_VENDOR_ID = 0x10EC
RTL8139_DEVICE_ID = 0x8139

# Register offsets (subset of the real driver's enum).
IDR0 = 0x00
MAR0 = 0x08
TSD0 = 0x10
TSAD0 = 0x20
RBSTART = 0x30
CR = 0x37
CAPR = 0x38
CBR = 0x3A
IMR = 0x3C
ISR = 0x3E
TCR = 0x40
RCR = 0x44
MPC = 0x4C
CFG9346 = 0x50
CONFIG1 = 0x52
MSR = 0x58
BMCR = 0x62
BMSR = 0x64

# CR bits.
CR_BUFE = 0x01
CR_TE = 0x04
CR_RE = 0x08
CR_RST = 0x10

# Interrupt bits.
ISR_ROK = 0x0001
ISR_RER = 0x0002
ISR_TOK = 0x0004
ISR_TER = 0x0008
ISR_RXOVW = 0x0010
INT_MASK = ISR_ROK | ISR_RER | ISR_TOK | ISR_TER | ISR_RXOVW
RX_INT_MASK = ISR_ROK | ISR_RER | ISR_RXOVW

# Interrupt mode: True = NAPI polling (the default), False = the original
# per-packet interrupt path, kept selectable for the datapath ablation.
napi_mode = True
RTL8139_NAPI_WEIGHT = 64


def set_napi_mode(enabled):
    global napi_mode
    napi_mode = bool(enabled)


# TSD bits.
TSD_OWN = 1 << 13
TSD_TOK = 1 << 15

RX_STAT_ROK = 0x0001

NUM_TX_DESC = 4
TX_BUF_SIZE = 1536
RX_BUF_LEN = 32 * 1024
RX_RING_SIZE = RX_BUF_LEN
ETH_ZLEN = 60

MSR_LINKB = 0x04


class rtl8139_stats(CStruct):
    """Mirror of the private slice of net_device_stats the driver keeps."""

    FIELDS = [
        ("tx_packets", U32),
        ("tx_bytes", U32),
        ("tx_errors", U32),
        ("rx_packets", U32),
        ("rx_bytes", U32),
        ("rx_errors", U32),
        ("rx_dropped", U32),
    ]


class rtl8139_private(CStruct):
    """struct rtl8139_private from the original driver.

    Annotations mark how pointers marshal across the split
    (section 3.2): the PCI device and DMA handles are kernel-opaque,
    the MAC address array carries an exp() length.
    """

    FIELDS = [
        ("pdev", Ptr("rtl8139_private"), Opaque()),
        ("ioaddr", U32),
        ("irq", U32),
        ("mac_addr", Ptr(U8), Exp("ETH_ALEN")),
        ("cur_tx", U32),
        ("dirty_tx", U32),
        ("cur_rx", U32),
        ("tx_flag", U32),
        ("msg_enable", I32),
        ("media", U16),
        ("chipset_name", Str(16)),
        ("stats", Ptr(rtl8139_stats)),
        ("have_thread", U8),
    ]


class rtl8139_driver_state:
    """The rtl8139_private members that never cross the split, one per
    device: ``tp._kstate`` (see :mod:`repro.drivers.modulebase`)."""

    def __init__(self):
        self.netdev = None
        self.tp = None
        self.lock = None
        self.rx_ring_dma = None
        self.tx_bufs_dma = None
        self.thread_timer = None
        self.napi = None


# ---------------------------------------------------------------------------
# Hardware access helpers
# ---------------------------------------------------------------------------

def RTL_R8(tp, reg):
    return linux.inb(tp.ioaddr + reg)


def RTL_R16(tp, reg):
    return linux.inw(tp.ioaddr + reg)


def RTL_R32(tp, reg):
    return linux.inl(tp.ioaddr + reg)


def RTL_W8(tp, reg, val):
    linux.outb(val, tp.ioaddr + reg)


def RTL_W16(tp, reg, val):
    linux.outw(val, tp.ioaddr + reg)


def RTL_W32(tp, reg, val):
    linux.outl(val, tp.ioaddr + reg)


# ---------------------------------------------------------------------------
# Chip bring-up
# ---------------------------------------------------------------------------

def rtl8139_chip_reset(tp):
    """Soft-reset the chip; poll until the reset bit clears."""
    RTL_W8(tp, CR, CR_RST)
    for _i in range(1000):
        if not RTL_R8(tp, CR) & CR_RST:
            return 0
        linux.udelay(10)
    return -linux.EIO


def read_mac_address(tp):
    mac = []
    for i in range(6):
        mac.append(linux.inb(tp.ioaddr + IDR0 + i))
    tp.mac_addr = mac
    return 0


def rtl8139_init_board(pdev, tp):
    """PCI bring-up: enable, map I/O, reset.  Returns 0 or -errno."""
    rc = linux.pci_enable_device(pdev)
    if rc:
        return rc
    rc = linux.pci_request_regions(pdev, DRV_NAME)
    if rc:
        linux.pci_disable_device(pdev)
        return rc
    linux.pci_set_master(pdev)
    tp.ioaddr = linux.pci_resource_start(pdev, 0)
    tp.irq = pdev.irq
    rc = rtl8139_chip_reset(tp)
    if rc:
        linux.pci_release_regions(pdev)
        linux.pci_disable_device(pdev)
        return rc
    tp.chipset_name = "RTL-8139"
    return 0


def rtl8139_init_one(pdev):
    """probe(): called by the PCI core for each matching function."""
    dev = linux.alloc_etherdev("eth%d")
    tp = rtl8139_private()
    tp._kstate = st = rtl8139_driver_state()
    tp.msg_enable = 7
    tp.tx_flag = 0
    tp.stats = rtl8139_stats()

    rc = rtl8139_init_board(pdev, tp)
    if rc:
        return rc

    rc = read_mac_address(tp)
    if rc:
        linux.pci_release_regions(pdev)
        linux.pci_disable_device(pdev)
        return rc

    dev.dev_addr = bytes(tp.mac_addr)
    dev.priv = tp
    dev.open = rtl8139_open
    dev.stop = rtl8139_close
    dev.hard_start_xmit = rtl8139_start_xmit
    dev.get_stats = rtl8139_get_stats
    dev.set_multicast_list = rtl8139_set_rx_mode
    dev.set_mac_address = rtl8139_set_mac_address
    dev.tx_timeout = rtl8139_tx_timeout
    dev.irq = tp.irq
    dev.base_addr = tp.ioaddr

    rc = linux.register_netdev(dev)
    if rc:
        linux.pci_release_regions(pdev)
        linux.pci_disable_device(pdev)
        return rc

    st.netdev = dev
    st.tp = tp
    st.lock = linux.spin_lock_init("rtl8139")
    pdev.driver_data = dev
    linux.printk("%s: %s at %#x, irq %d" % (dev.name, tp.chipset_name,
                                            tp.ioaddr, tp.irq))
    return 0


def rtl8139_remove_one(pdev):
    dev = pdev.driver_data
    if dev is None:
        return
    linux.unregister_netdev(dev)
    linux.pci_release_regions(pdev)
    linux.pci_disable_device(pdev)
    pdev.driver_data = None


# ---------------------------------------------------------------------------
# Open / close
# ---------------------------------------------------------------------------

def rtl8139_open(dev):
    tp = dev.priv
    st = tp._kstate
    rc = linux.request_irq(tp.irq, rtl8139_interrupt, DRV_NAME, dev)
    if rc:
        return rc

    st.rx_ring_dma = linux.dma_alloc_coherent(RX_BUF_LEN + 16,
                                              owner=DRV_NAME)
    st.tx_bufs_dma = linux.dma_alloc_coherent(TX_BUF_SIZE * NUM_TX_DESC,
                                              owner=DRV_NAME)
    if st.rx_ring_dma is None or st.tx_bufs_dma is None:
        rtl8139_free_rings(st)
        linux.free_irq(tp.irq, dev)
        return -linux.ENOMEM

    tp.tx_flag = 0
    rtl8139_init_ring(dev)
    rtl8139_hw_start(dev)
    rtl8139_start_thread(tp)
    return 0


def rtl8139_free_rings(st):
    if st.rx_ring_dma is not None:
        linux.dma_free_coherent(st.rx_ring_dma)
        st.rx_ring_dma = None
    if st.tx_bufs_dma is not None:
        linux.dma_free_coherent(st.tx_bufs_dma)
        st.tx_bufs_dma = None


def rtl8139_init_ring(dev):
    tp = dev.priv
    tp.cur_rx = 0
    tp.cur_tx = 0
    tp.dirty_tx = 0
    return 0


def rtl8139_napi_up(dev):
    """Create/enable the NAPI context (shared with the decaf nucleus).

    Idempotent: tx_timeout recovery re-runs hw_start on a live NAPI.
    """
    if not napi_mode:
        return
    st = dev.priv._kstate
    if st.napi is None:
        st.napi = linux.netif_napi_add(dev, rtl8139_poll,
                                       weight=RTL8139_NAPI_WEIGHT)
    linux.napi_enable(st.napi)


def rtl8139_napi_del(st):
    if st.napi is not None:
        linux.napi_disable(st.napi)
        st.napi = None


def rtl8139_hw_start(dev):
    """Program the chip to its running configuration."""
    tp = dev.priv
    rtl8139_chip_reset(tp)
    RTL_W8(tp, CFG9346, 0xC0)  # unlock config registers
    RTL_W32(tp, RBSTART, tp._kstate.rx_ring_dma.dma_addr)
    RTL_W32(tp, RCR, 0x0000070A)
    RTL_W32(tp, TCR, 0x03000700)
    rtl8139_set_rx_mode(dev)
    RTL_W8(tp, CFG9346, 0x00)  # lock config registers
    RTL_W8(tp, CR, CR_RE | CR_TE)
    rtl8139_napi_up(dev)
    RTL_W16(tp, IMR, INT_MASK)
    linux.netif_start_queue(dev)
    dev.netif_carrier_on()
    return 0


def rtl8139_close(dev):
    tp = dev.priv
    linux.netif_stop_queue(dev)
    RTL_W16(tp, IMR, 0)
    RTL_W8(tp, CR, 0)
    rtl8139_stop_thread(tp)
    # NAPI must be gone (and the IRQ line unmasked) before free_irq:
    # free_irq does not reset the line's disable depth.
    rtl8139_napi_del(tp._kstate)
    linux.free_irq(tp.irq, dev)
    rtl8139_tx_clear(tp)
    rtl8139_free_rings(tp._kstate)
    return 0


# ---------------------------------------------------------------------------
# Transmit
# ---------------------------------------------------------------------------

def rtl8139_start_xmit(skb, dev):
    tp = dev.priv
    st = tp._kstate
    entry = tp.cur_tx % NUM_TX_DESC

    length = len(skb)
    if length > TX_BUF_SIZE:
        tp.stats.tx_errors += 1
        return linux.NETDEV_TX_OK  # drop oversized, as the real driver

    # Copy the frame into the static transmit buffer for this slot.
    buf_off = entry * TX_BUF_SIZE
    st.tx_bufs_dma.data[buf_off:buf_off + length] = skb.data
    pad = max(0, ETH_ZLEN - length)
    if pad:
        st.tx_bufs_dma.data[buf_off + length:buf_off + length + pad] = bytes(pad)

    linux.spin_lock_irqsave(st.lock)
    RTL_W32(tp, TSAD0 + entry * 4, st.tx_bufs_dma.dma_addr + buf_off)
    RTL_W32(tp, TSD0 + entry * 4, tp.tx_flag | max(length, ETH_ZLEN))
    tp.cur_tx += 1
    if tp.cur_tx - tp.dirty_tx >= NUM_TX_DESC:
        linux.netif_stop_queue(dev)
    linux.spin_unlock_irqrestore(st.lock)

    tp.stats.tx_packets += 1
    tp.stats.tx_bytes += length
    dev.stats.tx_packets += 1
    dev.stats.tx_bytes += length
    return linux.NETDEV_TX_OK


def rtl8139_tx_interrupt(dev, tp):
    dirty_tx = tp.dirty_tx
    while tp.cur_tx - dirty_tx > 0:
        entry = dirty_tx % NUM_TX_DESC
        txstatus = RTL_R32(tp, TSD0 + entry * 4)
        if not txstatus & (TSD_TOK | TSD_OWN):
            break  # still in flight
        if not txstatus & TSD_TOK:
            tp.stats.tx_errors += 1
            dev.stats.tx_errors += 1
        dirty_tx += 1
    if tp.dirty_tx != dirty_tx:
        tp.dirty_tx = dirty_tx
        if linux.netif_queue_stopped(dev):
            linux.netif_wake_queue(dev)


def rtl8139_tx_clear(tp):
    tp.cur_tx = 0
    tp.dirty_tx = 0


def rtl8139_tx_timeout(dev):
    tp = dev.priv
    tp.stats.tx_errors += 1
    rtl8139_chip_reset(tp)
    rtl8139_hw_start(dev)


# ---------------------------------------------------------------------------
# Receive
# ---------------------------------------------------------------------------

def rtl8139_rx(dev, tp, budget=None):
    """Drain the receive ring; at most ``budget`` packets under NAPI.

    The per-packet-interrupt path (``budget is None``) copies each frame
    into a fresh skb via ``netif_rx``, exactly as the original driver;
    the NAPI path copies into a pooled zero-copy skb and delivers
    through ``netif_receive_skb``.
    """
    import struct as _pystruct

    ring = tp._kstate.rx_ring_dma.data
    napi_path = budget is not None and napi_mode
    if napi_path:
        ring_view = memoryview(ring)
    received = 0
    while not RTL_R8(tp, CR) & CR_BUFE:
        if budget is not None and received >= budget:
            break
        offset = tp.cur_rx % RX_RING_SIZE
        rx_status, rx_size = _pystruct.unpack_from("<HH", ring, offset)
        if not rx_status & RX_STAT_ROK:
            rtl8139_rx_err(rx_status, dev, tp)
            break
        pkt_size = rx_size - 4
        if napi_path:
            skb = linux.napi_alloc_skb(pkt_size)
            first = min(pkt_size, RX_RING_SIZE - (offset + 4))
            skb.data[0:first] = ring_view[offset + 4:offset + 4 + first]
            if first < pkt_size:
                # Wrapped packet: second copy from the ring start.
                skb.data[first:pkt_size] = ring_view[0:pkt_size - first]
            linux.netif_receive_skb(dev, skb)
        else:
            # Wrap where the device does (RX_RING_SIZE), not at the end
            # of the slack-padded DMA buffer.
            end = min(offset + 4 + pkt_size, RX_RING_SIZE)
            frame = bytes(ring[offset + 4:end])
            if len(frame) < pkt_size:
                # Wrapped packet: reassemble across the ring boundary.
                rest = pkt_size - len(frame)
                frame += bytes(ring[0:rest])
            skb = linux.skb_from_data(frame)
            linux.netif_rx(dev, skb)
        tp.stats.rx_packets += 1
        tp.stats.rx_bytes += pkt_size
        dev.stats.rx_packets += 1
        dev.stats.rx_bytes += pkt_size
        received += 1
        tp.cur_rx = (offset + 4 + rx_size + 3) & ~3
        RTL_W16(tp, CAPR, (tp.cur_rx - 16) & 0xFFFF)
    return received


def rtl8139_rx_err(rx_status, dev, tp):
    tp.stats.rx_errors += 1
    dev.stats.rx_errors += 1
    rtl8139_chip_reset(tp)
    rtl8139_hw_start(dev)


# ---------------------------------------------------------------------------
# Interrupt handler
# ---------------------------------------------------------------------------

def rtl8139_interrupt(irq, dev_id):
    dev = dev_id
    tp = dev.priv
    status = RTL_R16(tp, ISR)
    if status == 0:
        return linux.IRQ_NONE
    RTL_W16(tp, ISR, status)  # ack (write-1-to-clear)
    if status & RX_INT_MASK:
        napi = tp._kstate.napi
        if napi_mode and napi is not None:
            # NAPI: mask receive interrupts and punt ring drain to the
            # softirq poll; rtl8139_poll restores IMR on completion.
            RTL_W16(tp, IMR, INT_MASK & ~RX_INT_MASK)
            linux.napi_schedule(napi)
        else:
            rtl8139_rx(dev, tp)
    if status & (ISR_TOK | ISR_TER):
        rtl8139_tx_interrupt(dev, tp)
    return linux.IRQ_HANDLED


def rtl8139_poll(napi, budget):
    """NAPI poll: budgeted ring drain in softirq context."""
    dev = napi.dev
    tp = dev.priv
    work_done = rtl8139_rx(dev, tp, budget)
    if work_done < budget:
        linux.napi_complete(napi)
        RTL_W16(tp, IMR, INT_MASK)
        # Unlike the e1000's ICR/IMS latch, this chip only interrupts on
        # new frame arrival: a frame that landed mid-poll would strand
        # until the next one, so re-check the ring and re-schedule.
        if not RTL_R8(tp, CR) & CR_BUFE:
            RTL_W16(tp, IMR, INT_MASK & ~RX_INT_MASK)
            linux.napi_schedule(napi)
    return work_done


# ---------------------------------------------------------------------------
# Management path
# ---------------------------------------------------------------------------

def rtl8139_get_stats(dev):
    return dev.stats


def rtl8139_set_rx_mode(dev):
    tp = dev.priv
    # Accept broadcast + physical match; the real driver computes a
    # multicast hash here.
    RTL_W32(tp, MAR0, 0xFFFFFFFF)
    RTL_W32(tp, MAR0 + 4, 0xFFFFFFFF)
    return 0


def rtl8139_set_mac_address(dev, addr):
    tp = dev.priv
    for i in range(6):
        linux.outb(addr[i], tp.ioaddr + IDR0 + i)
    tp.mac_addr = list(addr)
    dev.dev_addr = bytes(addr)
    return 0


def mdio_read(tp, location):
    if location == 1:  # BMSR
        return RTL_R16(tp, BMSR)
    return 0


def mdio_write(tp, location, value):
    if location == 0:  # BMCR
        RTL_W16(tp, BMCR, value)


def rtl8139_check_media(dev, tp):
    """Link watch: runs from the driver thread every ~2 s."""
    msr = RTL_R8(tp, MSR)
    link_up = not msr & MSR_LINKB
    if link_up and not linux.netif_carrier_ok(dev):
        linux.netif_carrier_on(dev)
    elif not link_up and linux.netif_carrier_ok(dev):
        linux.netif_carrier_off(dev)
    return link_up


def rtl8139_thread(data):
    """The driver's link-watch thread body (timer driven)."""
    dev = data
    tp = dev.priv
    rtl8139_check_media(dev, tp)
    if tp.have_thread:
        linux.mod_timer(tp._kstate.thread_timer, 2000)


def rtl8139_start_thread(tp):
    st = tp._kstate
    tp.have_thread = 1
    st.thread_timer = linux.init_timer(rtl8139_thread, st.netdev,
                                       name="8139too-thread")
    linux.mod_timer(st.thread_timer, 2000)


def rtl8139_stop_thread(tp):
    st = tp._kstate
    tp.have_thread = 0
    if st.thread_timer is not None:
        linux.del_timer_sync(st.thread_timer)
        st.thread_timer = None


# ---------------------------------------------------------------------------
# Module glue
# ---------------------------------------------------------------------------

def rtl8139_init_module():
    return 0


def rtl8139_cleanup_module():
    return 0


class Rtl8139PciGlue:
    """pci_driver table for the simulated PCI core."""

    name = DRV_NAME
    id_table = ((RTL8139_VENDOR_ID, RTL8139_DEVICE_ID),)

    def probe(self, kernel, pdev):
        return rtl8139_init_one(pdev)

    def remove(self, kernel, pdev):
        rtl8139_remove_one(pdev)

    def matches(self, func):
        return (func.vendor_id, func.device_id) in self.id_table


def make_module(napi=True):
    """Build the loadable module object for this driver."""
    from ...drivers.modulebase import LegacyDriverModule

    def init_fn():
        set_napi_mode(napi)
        return rtl8139_init_module()

    return LegacyDriverModule(
        name=DRV_NAME,
        driver_module=__import__(__name__, fromlist=["*"]),
        driver=Rtl8139PciGlue(),
        init_fn=init_fn,
        cleanup_fn=rtl8139_cleanup_module,
    )
