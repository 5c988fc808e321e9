"""e1000_main: Intel PRO/1000 network driver body (legacy, C-idiomatic).

Mirrors drivers/net/e1000/e1000_main.c from Linux 2.6.18.1: descriptor
rings in DMA memory, an interrupt handler that cleans both rings, a
watchdog timer every two seconds, and the goto-label error-unwind chains
in ``e1000_open`` that the paper's Figure 4 converts to nested
exceptions.  The ``e1000_adapter`` structure carries the exact Figure 3
annotation example (``config_space`` with ``exp(PCI_LEN)``).
"""

import struct as _pystruct

from ...core.cstruct import (
    Array,
    CStruct,
    Exp,
    Opaque,
    Ptr,
    Str,
    Struct,
    U8,
    U16,
    U32,
    U64,
    I32,
)
from . import e1000_hw
from .e1000_hw import (
    E1000_READ_REG,
    E1000_SUCCESS,
    E1000_WRITE_REG,
    E1000_WRITE_FLUSH,
)

linux = None  # bound at insmod (shared with e1000_hw via module glue)

DRV_NAME = "e1000"
DRV_VERSION = "7.0.33-k2"

# Interrupt mode: True = NAPI polling (the default), False = the original
# per-packet interrupt path, kept selectable for the datapath ablation.
napi_mode = True
E1000_NAPI_WEIGHT = 64


def set_napi_mode(enabled):
    global napi_mode
    napi_mode = bool(enabled)


# RX/TX queue pairs (multi-queue datapath).  Queue 0 uses the legacy
# register map; queue q's interrupt and ring registers sit at the
# queue-0 offset plus q * E1000_QUEUE_STRIDE and raise irq + q --
# MSI-X-style per-queue vectors.  1 = the classic single-queue driver.
num_queues_mode = 1
E1000_QUEUE_STRIDE = 0x100


def set_num_queues(n):
    global num_queues_mode
    num_queues_mode = max(1, int(n))


def e1000_num_queues():
    return num_queues_mode

E1000_VENDOR_ID = 0x8086

E1000_DEFAULT_TXD = 256
E1000_DEFAULT_RXD = 256
E1000_RXBUFFER_2048 = 2048
E1000_TX_DESC_SIZE = 16
E1000_RX_DESC_SIZE = 16

# TX descriptor command/status bits.
E1000_TXD_CMD_EOP = 0x01
E1000_TXD_CMD_IFCS = 0x02
E1000_TXD_CMD_RS = 0x08
E1000_TXD_STAT_DD = 0x01

# RX descriptor status bits.
E1000_RXD_STAT_DD = 0x01
E1000_RXD_STAT_EOP = 0x02

PCI_LEN = 64  # dwords of config space saved (the Fig. 3 constant)


class e1000_tx_ring(CStruct):
    FIELDS = [
        ("count", U32),
        ("next_to_use", U32),
        ("next_to_clean", U32),
        ("tdh", U32),
        ("tdt", U32),
        ("desc", Ptr("e1000_tx_ring"), Opaque()),      # DMA handle
        ("buffer_region", Ptr("e1000_tx_ring"), Opaque()),
    ]


class e1000_rx_ring(CStruct):
    FIELDS = [
        ("count", U32),
        ("next_to_use", U32),
        ("next_to_clean", U32),
        ("rdh", U32),
        ("rdt", U32),
        ("desc", Ptr("e1000_rx_ring"), Opaque()),
        ("buffer_region", Ptr("e1000_rx_ring"), Opaque()),
    ]


class net_stats_mirror(CStruct):
    FIELDS = [
        ("tx_packets", U64),
        ("tx_bytes", U64),
        ("rx_packets", U64),
        ("rx_bytes", U64),
        ("tx_errors", U64),
        ("rx_errors", U64),
        ("rx_dropped", U64),
        ("multicast", U64),
        ("collisions", U64),
    ]


class e1000_adapter(CStruct):
    """struct e1000_adapter -- the Figure 3 structure.

    ``config_space`` carries the paper's exact annotation:
    ``uint32_t * __attribute__((exp(PCI_LEN))) config_space``.
    """

    FIELDS = [
        ("netdev", Ptr("e1000_adapter"), Opaque()),
        ("pdev", Ptr("e1000_adapter"), Opaque()),
        ("hw", Struct(e1000_hw.e1000_hw)),
        ("tx_ring", Struct(e1000_tx_ring)),
        ("rx_ring", Struct(e1000_rx_ring)),
        ("test_tx_ring", Struct(e1000_tx_ring)),
        ("test_rx_ring", Struct(e1000_rx_ring)),
        ("config_space", Ptr(U32), Exp("PCI_LEN")),
        ("msg_enable", I32),
        ("bd_number", U32),
        ("rx_buffer_len", U32),
        ("num_tx_queues", U32),
        ("num_rx_queues", U32),
        ("tx_timeout_count", U32),
        ("restart_queue", U32),
        ("link_speed", U16),
        ("link_duplex", U16),
        ("itr", U32),
        ("fc_autoneg", U8),
        ("net_stats", Struct(net_stats_mirror)),
        ("part_num", Str(16)),
    ]


class e1000_state:
    """The e1000_adapter members that never cross the split, one per
    device: ``adapter._kstate`` (see :mod:`repro.drivers.modulebase`)."""

    def __init__(self):
        self.netdev = None
        self.pdev = None
        self.tx_lock = None
        self.watchdog_timer = None
        self.irq_requested = False
        self.napi = None
        # Queues >= 1 (multi-queue mode): their rings never enter the
        # marshaled e1000_adapter -- they are kernel-side state, so the
        # XPC wire format is identical at any queue count.
        self.extra_tx_rings = []
        self.extra_rx_rings = []
        self.extra_napis = []
        self.extra_vectors = []

from ...core.cstruct import CONSTANTS as _CONSTANTS

_CONSTANTS.setdefault("PCI_LEN", PCI_LEN)


# ---------------------------------------------------------------------------
# Probe / remove
# ---------------------------------------------------------------------------

def e1000_probe(pdev):
    """Device insertion: the long bring-up path with unwind chains."""
    err = linux.pci_enable_device(pdev)
    if err:
        return err

    err = linux.pci_request_regions(pdev, DRV_NAME)
    if err:
        linux.pci_disable_device(pdev)
        return err

    linux.pci_set_master(pdev)

    netdev = linux.alloc_etherdev("eth%d")
    adapter = e1000_adapter()
    adapter._kstate = st = e1000_state()
    adapter.msg_enable = 7
    netdev.priv = adapter
    st.netdev = netdev
    st.pdev = pdev
    st.tx_lock = linux.spin_lock_init("e1000-tx")

    adapter.hw.hw_addr = linux.pci_resource_start(pdev, 0)
    adapter.hw.device_id = pdev.device_id
    adapter.hw.vendor_id = pdev.vendor_id
    adapter.hw.revision_id = pdev.revision
    adapter.hw.subsystem_id = pdev.subsystem_device
    adapter.hw.subsystem_vendor_id = pdev.subsystem_vendor
    adapter.hw.fc = e1000_hw.E1000_FC_DEFAULT
    adapter.hw.autoneg = 1
    adapter.hw.wait_autoneg_complete = 0

    netdev.open = e1000_open
    netdev.stop = e1000_close
    netdev.hard_start_xmit = e1000_xmit_frame
    netdev.get_stats = e1000_get_stats
    netdev.set_multicast_list = e1000_set_multi
    netdev.set_mac_address = e1000_set_mac
    netdev.change_mtu = e1000_change_mtu
    netdev.tx_timeout = e1000_tx_timeout
    netdev.irq = pdev.irq
    netdev.base_addr = adapter.hw.hw_addr

    err = e1000_sw_init(adapter)
    if err:
        e1000_probe_unwind(pdev)
        return err

    from . import e1000_param

    e1000_param.e1000_check_options(adapter)

    err = e1000_hw.e1000_set_mac_type(adapter.hw)
    if err:
        e1000_probe_unwind(pdev)
        return err

    e1000_hw.e1000_set_media_type(adapter.hw)
    e1000_hw.e1000_get_bus_info(adapter.hw)

    err = e1000_hw.e1000_reset_hw(adapter.hw)
    if err:
        e1000_probe_unwind(pdev)
        return err

    if e1000_hw.e1000_validate_eeprom_checksum(adapter.hw) < 0:
        linux.printk("e1000: The EEPROM checksum is not valid")
        e1000_probe_unwind(pdev)
        return -linux.EIO

    err = e1000_hw.e1000_read_mac_addr(adapter.hw)
    if err:
        e1000_probe_unwind(pdev)
        return -linux.EIO

    netdev.dev_addr = bytes(adapter.hw.mac_addr)

    e1000_save_config_space(adapter, pdev)

    st.watchdog_timer = linux.init_timer(
        e1000_watchdog, adapter, name="e1000-watchdog"
    )

    e1000_reset(adapter)

    err = linux.register_netdev(netdev)
    if err:
        e1000_probe_unwind(pdev)
        return err
    pdev.driver_data = netdev

    linux.printk("e1000: %s: Intel(R) PRO/1000 Network Connection"
                 % netdev.name)
    return 0


def e1000_probe_unwind(pdev):
    linux.pci_release_regions(pdev)
    linux.pci_disable_device(pdev)


def e1000_remove(pdev):
    netdev = pdev.driver_data
    if netdev is None:
        return
    st = netdev.priv._kstate
    if st.watchdog_timer is not None:
        linux.del_timer_sync(st.watchdog_timer)
    linux.unregister_netdev(netdev)
    linux.pci_release_regions(pdev)
    linux.pci_disable_device(pdev)
    pdev.driver_data = None


def e1000_sw_init(adapter):
    adapter.rx_buffer_len = E1000_RXBUFFER_2048
    adapter.num_tx_queues = num_queues_mode
    adapter.num_rx_queues = num_queues_mode
    adapter.tx_ring.count = E1000_DEFAULT_TXD
    adapter.rx_ring.count = E1000_DEFAULT_RXD
    adapter.hw.max_frame_size = 1518
    adapter.hw.min_frame_size = 64
    return 0


def e1000_save_config_space(adapter, pdev):
    space = []
    for i in range(PCI_LEN):
        space.append(linux.pci_read_config_dword(pdev, (i * 4) % 256))
    adapter.config_space = space


def e1000_restore_config_space(adapter, pdev):
    if adapter.config_space is None:
        return
    for i in range(PCI_LEN):
        linux.pci_write_config_dword(pdev, (i * 4) % 256,
                                     adapter.config_space[i])


# ---------------------------------------------------------------------------
# Open / close -- the Figure 4 unwind chains
# ---------------------------------------------------------------------------

def e1000_open(netdev):
    """Bring the interface up.

    The original uses goto labels (err_req_irq, err_up, ...); here the
    same unwind order is expressed with early returns calling the
    cleanup functions in reverse acquisition order.
    """
    adapter = netdev.priv

    err = e1000_setup_all_tx_resources(adapter)
    if err:
        return err

    err = e1000_setup_all_rx_resources(adapter)
    if err:
        e1000_free_all_tx_resources(adapter)
        return err

    err = e1000_request_irq(adapter)
    if err:
        e1000_free_all_rx_resources(adapter)
        e1000_free_all_tx_resources(adapter)
        return err

    e1000_power_up_phy(adapter)

    err = e1000_up(adapter)
    if err:
        e1000_power_down_phy(adapter)
        e1000_free_irq(adapter)
        e1000_free_all_rx_resources(adapter)
        e1000_free_all_tx_resources(adapter)
        e1000_reset(adapter)
        return err

    return 0


def e1000_close(netdev):
    adapter = netdev.priv
    e1000_down(adapter)
    # NAPI must be gone (and the IRQ line unmasked) before free_irq:
    # free_irq does not reset the line's disable depth.
    e1000_napi_del(adapter._kstate)
    e1000_power_down_phy(adapter)
    e1000_free_irq(adapter)
    e1000_free_all_rx_resources(adapter)
    e1000_free_all_tx_resources(adapter)
    return 0


def e1000_request_irq(adapter):
    st = adapter._kstate
    err = linux.request_irq(st.pdev.irq, e1000_intr, DRV_NAME, st.netdev)
    if err:
        return err
    st.irq_requested = True
    err = e1000_request_extra_vectors(st)
    if err:
        e1000_free_irq(adapter)
        return err
    e1000_set_irq_affinity(st)
    return 0


def e1000_request_extra_vectors(st):
    """Request one vector per extra queue (irq + q, MSI-X style)."""
    irq0 = st.pdev.irq
    for q in range(1, e1000_num_queues()):
        def vector(_irq, dev_id, q=q):
            return e1000_intr_queue(dev_id, q)
        err = linux.request_irq(irq0 + q, vector, "%s-q%d" % (DRV_NAME, q),
                                st.netdev)
        if err:
            e1000_free_extra_vectors(st)
            return err
        st.extra_vectors.append(irq0 + q)
    return 0


def e1000_free_extra_vectors(st):
    for irq in st.extra_vectors:
        linux.free_irq(irq, st.netdev)
    del st.extra_vectors[:]


def e1000_set_irq_affinity(st):
    """Spread the per-queue vectors across CPUs (queue q -> q mod N).

    The NAPI context for queue q is homed on the same CPU, so the whole
    per-queue datapath -- hardirq, softirq poll, rx stack -- runs there.
    """
    ncpus = linux.num_online_cpus()
    if ncpus <= 1:
        return
    irq0 = st.pdev.irq
    for q in range(e1000_num_queues()):
        linux.irq_set_affinity(irq0 + q, q % ncpus)


def e1000_free_irq(adapter):
    st = adapter._kstate
    e1000_free_extra_vectors(st)
    if st.irq_requested:
        linux.free_irq(st.pdev.irq, st.netdev)
        st.irq_requested = False


def e1000_power_up_phy(adapter):
    e1000_hw.e1000_power_up_phy_hw(adapter.hw)


def e1000_power_down_phy(adapter):
    e1000_hw.e1000_power_down_phy_hw(adapter.hw)


# ---------------------------------------------------------------------------
# Resource setup / teardown
# ---------------------------------------------------------------------------

def e1000_setup_all_tx_resources(adapter):
    err = e1000_setup_tx_resources(adapter, adapter.tx_ring)
    if err:
        return err
    for _q in range(1, e1000_num_queues()):
        ring = e1000_tx_ring()
        ring.count = E1000_DEFAULT_TXD
        err = e1000_setup_tx_resources(adapter, ring)
        if err:
            e1000_free_all_tx_resources(adapter)
            return err
        adapter._kstate.extra_tx_rings.append(ring)
    return 0


def e1000_setup_tx_resources(adapter, tx_ring):
    size = tx_ring.count * E1000_TX_DESC_SIZE
    tx_ring.desc = linux.dma_alloc_coherent(size, owner=DRV_NAME)
    if tx_ring.desc is None:
        return -linux.ENOMEM
    tx_ring.buffer_region = linux.dma_alloc_coherent(
        tx_ring.count * E1000_RXBUFFER_2048, owner=DRV_NAME
    )
    if tx_ring.buffer_region is None:
        linux.dma_free_coherent(tx_ring.desc)
        tx_ring.desc = None
        return -linux.ENOMEM
    tx_ring.next_to_use = 0
    tx_ring.next_to_clean = 0
    return 0


def e1000_setup_all_rx_resources(adapter):
    err = e1000_setup_rx_resources(adapter, adapter.rx_ring)
    if err:
        return err
    for _q in range(1, e1000_num_queues()):
        ring = e1000_rx_ring()
        ring.count = E1000_DEFAULT_RXD
        err = e1000_setup_rx_resources(adapter, ring)
        if err:
            e1000_free_all_rx_resources(adapter)
            return err
        adapter._kstate.extra_rx_rings.append(ring)
    return 0


def e1000_setup_rx_resources(adapter, rx_ring):
    size = rx_ring.count * E1000_RX_DESC_SIZE
    rx_ring.desc = linux.dma_alloc_coherent(size, owner=DRV_NAME)
    if rx_ring.desc is None:
        return -linux.ENOMEM
    rx_ring.buffer_region = linux.dma_alloc_coherent(
        rx_ring.count * adapter.rx_buffer_len, owner=DRV_NAME
    )
    if rx_ring.buffer_region is None:
        linux.dma_free_coherent(rx_ring.desc)
        rx_ring.desc = None
        return -linux.ENOMEM
    rx_ring.next_to_use = 0
    rx_ring.next_to_clean = 0
    return 0


def e1000_free_all_tx_resources(adapter):
    e1000_free_tx_resources(adapter, adapter.tx_ring)
    extra = adapter._kstate.extra_tx_rings
    for ring in extra:
        e1000_free_tx_resources(adapter, ring)
    del extra[:]


def e1000_free_tx_resources(adapter, tx_ring):
    if tx_ring.desc is not None:
        linux.dma_free_coherent(tx_ring.desc)
        tx_ring.desc = None
    if tx_ring.buffer_region is not None:
        linux.dma_free_coherent(tx_ring.buffer_region)
        tx_ring.buffer_region = None


def e1000_free_all_rx_resources(adapter):
    e1000_free_rx_resources(adapter, adapter.rx_ring)
    extra = adapter._kstate.extra_rx_rings
    for ring in extra:
        e1000_free_rx_resources(adapter, ring)
    del extra[:]


def e1000_free_rx_resources(adapter, rx_ring):
    if rx_ring.desc is not None:
        linux.dma_free_coherent(rx_ring.desc)
        rx_ring.desc = None
    if rx_ring.buffer_region is not None:
        linux.dma_free_coherent(rx_ring.buffer_region)
        rx_ring.buffer_region = None


# ---------------------------------------------------------------------------
# Up / down / reset
# ---------------------------------------------------------------------------

def e1000_napi_up(netdev):
    """Create/enable the NAPI contexts (shared with the decaf nucleus).

    One context per queue; on an SMP kernel each is homed on the CPU
    its vector is affine to, so queue q's poll runs from CPU q mod N's
    softirq and the rx stack cost lands on that CPU.
    """
    if not napi_mode:
        return
    st = netdev.priv._kstate
    ncpus = linux.num_online_cpus()
    if st.napi is None:
        st.napi = linux.netif_napi_add(
            netdev, e1000_poll, weight=E1000_NAPI_WEIGHT,
            cpu=0 if ncpus > 1 else None)
    linux.napi_enable(st.napi)
    for q in range(1, e1000_num_queues()):
        if q - 1 >= len(st.extra_napis):
            napi = linux.netif_napi_add(
                netdev, e1000_poll, weight=E1000_NAPI_WEIGHT,
                irq=netdev.irq + q,
                cpu=(q % ncpus) if ncpus > 1 else None)
            napi.queue = q
            st.extra_napis.append(napi)
        linux.napi_enable(st.extra_napis[q - 1])


def e1000_napi_down(st):
    if st.napi is not None:
        linux.napi_disable(st.napi)
    for napi in st.extra_napis:
        linux.napi_disable(napi)


def e1000_napi_del(st):
    e1000_napi_down(st)
    st.napi = None
    del st.extra_napis[:]


def e1000_up(adapter):
    st = adapter._kstate
    e1000_configure(adapter)
    e1000_napi_up(st.netdev)
    E1000_WRITE_REG(adapter.hw, e1000_hw.IMS, e1000_hw.E1000_IMS_ENABLE_MASK)
    e1000_irq_enable_extra(adapter)
    linux.mod_timer(st.watchdog_timer, 2000)
    linux.netif_start_queue(st.netdev)
    return 0


def e1000_irq_enable_extra(adapter):
    for q in range(1, e1000_num_queues()):
        E1000_WRITE_REG(adapter.hw, e1000_hw.IMS + q * E1000_QUEUE_STRIDE,
                        e1000_hw.E1000_IMS_ENABLE_MASK)


def e1000_irq_disable_extra(adapter):
    for q in range(1, e1000_num_queues()):
        E1000_WRITE_REG(adapter.hw, e1000_hw.IMC + q * E1000_QUEUE_STRIDE,
                        0xFFFFFFFF)


def e1000_down(adapter):
    st = adapter._kstate
    E1000_WRITE_REG(adapter.hw, e1000_hw.IMC, 0xFFFFFFFF)
    e1000_irq_disable_extra(adapter)
    e1000_napi_down(st)
    linux.del_timer_sync(st.watchdog_timer)
    linux.netif_stop_queue(st.netdev)
    linux.netif_carrier_off(st.netdev)
    adapter.link_speed = 0
    adapter.link_duplex = 0
    e1000_reset(adapter)
    e1000_clean_all_tx_rings(adapter)
    e1000_clean_all_rx_rings(adapter)


def e1000_reset(adapter):
    E1000_WRITE_REG(adapter.hw, e1000_hw.PBA, 0x00000030)
    e1000_hw.e1000_reset_hw(adapter.hw)
    ret_val = e1000_hw.e1000_init_hw(adapter.hw)
    if ret_val:
        linux.printk("e1000: Hardware Error")
    e1000_hw.e1000_phy_get_info(adapter.hw)


def e1000_configure(adapter):
    e1000_set_multi(adapter._kstate.netdev)
    e1000_configure_tx(adapter)
    e1000_setup_rctl(adapter)
    e1000_configure_rx(adapter)
    e1000_alloc_rx_buffers(adapter, adapter.rx_ring)
    e1000_configure_extra_queues(adapter)


def e1000_configure_extra_queues(adapter):
    """Program the ring registers for queues >= 1 (strided layout).

    Shared with the decaf nucleus: these rings are kernel-side state,
    so the decaf driver's user half programs only queue 0 and the
    nucleus calls this from ``k_up`` for the rest.
    """
    hw = adapter.hw
    st = adapter._kstate
    for q in range(1, e1000_num_queues()):
        s = q * E1000_QUEUE_STRIDE
        tx_ring = st.extra_tx_rings[q - 1]
        E1000_WRITE_REG(hw, e1000_hw.TDBAL + s,
                        tx_ring.desc.dma_addr & 0xFFFFFFFF)
        E1000_WRITE_REG(hw, e1000_hw.TDBAH + s, tx_ring.desc.dma_addr >> 32)
        E1000_WRITE_REG(hw, e1000_hw.TDLEN + s,
                        tx_ring.count * E1000_TX_DESC_SIZE)
        E1000_WRITE_REG(hw, e1000_hw.TDH + s, 0)
        E1000_WRITE_REG(hw, e1000_hw.TDT + s, 0)
        tx_ring.tdh = 0
        tx_ring.tdt = 0
        rx_ring = st.extra_rx_rings[q - 1]
        E1000_WRITE_REG(hw, e1000_hw.RDBAL + s,
                        rx_ring.desc.dma_addr & 0xFFFFFFFF)
        E1000_WRITE_REG(hw, e1000_hw.RDBAH + s, rx_ring.desc.dma_addr >> 32)
        E1000_WRITE_REG(hw, e1000_hw.RDLEN + s,
                        rx_ring.count * E1000_RX_DESC_SIZE)
        E1000_WRITE_REG(hw, e1000_hw.RDH + s, 0)
        E1000_WRITE_REG(hw, e1000_hw.RDT + s, 0)
        rx_ring.rdh = 0
        rx_ring.rdt = 0
        if napi_mode:
            E1000_WRITE_REG(hw, e1000_hw.ITR + s,
                            1_000_000_000 // (4000 * 256))
        e1000_alloc_rx_buffers(adapter, rx_ring, queue=q)


def e1000_configure_tx(adapter):
    hw = adapter.hw
    tx_ring = adapter.tx_ring
    E1000_WRITE_REG(hw, e1000_hw.TDBAL, tx_ring.desc.dma_addr & 0xFFFFFFFF)
    E1000_WRITE_REG(hw, e1000_hw.TDBAH, tx_ring.desc.dma_addr >> 32)
    E1000_WRITE_REG(hw, e1000_hw.TDLEN, tx_ring.count * E1000_TX_DESC_SIZE)
    E1000_WRITE_REG(hw, e1000_hw.TDH, 0)
    E1000_WRITE_REG(hw, e1000_hw.TDT, 0)
    tx_ring.tdh = 0
    tx_ring.tdt = 0
    E1000_WRITE_REG(hw, e1000_hw.TIPG, 0x00602008)
    E1000_WRITE_REG(hw, e1000_hw.TCTL,
                    e1000_hw.E1000_TCTL_EN | e1000_hw.E1000_TCTL_PSP)


def e1000_setup_rctl(adapter):
    rctl = e1000_hw.E1000_RCTL_EN | e1000_hw.E1000_RCTL_BAM
    E1000_WRITE_REG(adapter.hw, e1000_hw.RCTL, rctl)


def e1000_configure_rx(adapter):
    hw = adapter.hw
    rx_ring = adapter.rx_ring
    E1000_WRITE_REG(hw, e1000_hw.RDBAL, rx_ring.desc.dma_addr & 0xFFFFFFFF)
    E1000_WRITE_REG(hw, e1000_hw.RDBAH, rx_ring.desc.dma_addr >> 32)
    E1000_WRITE_REG(hw, e1000_hw.RDLEN, rx_ring.count * E1000_RX_DESC_SIZE)
    E1000_WRITE_REG(hw, e1000_hw.RDH, 0)
    E1000_WRITE_REG(hw, e1000_hw.RDT, 0)
    rx_ring.rdh = 0
    rx_ring.rdt = 0
    if napi_mode:
        # Dynamic-conservative ITR, bulk-latency class: throttle to
        # 4000 ints/s (e1000_set_itr's bottom tier) so each softirq
        # poll drains a larger batch.  Units of 256 ns.
        E1000_WRITE_REG(hw, e1000_hw.ITR, 1_000_000_000 // (4000 * 256))


def e1000_alloc_rx_buffers(adapter, rx_ring, queue=0):
    """Point every descriptor at its slot in the buffer region."""
    buf_dma = rx_ring.buffer_region.dma_addr
    for i in range(rx_ring.count):
        offset = i * E1000_RX_DESC_SIZE
        _pystruct.pack_into("<QHHBBH", rx_ring.desc.data, offset,
                            buf_dma + i * adapter.rx_buffer_len,
                            0, 0, 0, 0, 0)
    rx_ring.next_to_use = rx_ring.count - 1
    E1000_WRITE_REG(adapter.hw, e1000_hw.RDT + queue * E1000_QUEUE_STRIDE,
                    rx_ring.count - 1)
    rx_ring.rdt = rx_ring.count - 1


def e1000_clean_all_tx_rings(adapter):
    adapter.tx_ring.next_to_use = 0
    adapter.tx_ring.next_to_clean = 0
    for ring in adapter._kstate.extra_tx_rings:
        ring.next_to_use = 0
        ring.next_to_clean = 0


def e1000_clean_all_rx_rings(adapter):
    adapter.rx_ring.next_to_use = 0
    adapter.rx_ring.next_to_clean = 0
    for ring in adapter._kstate.extra_rx_rings:
        ring.next_to_use = 0
        ring.next_to_clean = 0


# ---------------------------------------------------------------------------
# Transmit path (stays in the kernel)
# ---------------------------------------------------------------------------

def e1000_xmit_frame(skb, netdev):
    adapter = netdev.priv
    tx_ring = adapter.tx_ring
    tx_lock = adapter._kstate.tx_lock

    linux.spin_lock_irqsave(tx_lock)

    if e1000_desc_unused(tx_ring) < 2:
        linux.netif_stop_queue(netdev)
        adapter.restart_queue += 1
        linux.spin_unlock_irqrestore(tx_lock)
        return linux.NETDEV_TX_BUSY

    i = tx_ring.next_to_use
    buf_off = i * E1000_RXBUFFER_2048
    length = len(skb)
    tx_ring.buffer_region.data[buf_off:buf_off + length] = skb.data

    _pystruct.pack_into(
        "<QHBBBBH", tx_ring.desc.data, i * E1000_TX_DESC_SIZE,
        tx_ring.buffer_region.dma_addr + buf_off,
        length, 0,
        E1000_TXD_CMD_EOP | E1000_TXD_CMD_IFCS | E1000_TXD_CMD_RS,
        0, 0, 0,
    )

    tx_ring.next_to_use = (i + 1) % tx_ring.count
    E1000_WRITE_REG(adapter.hw, e1000_hw.TDT, tx_ring.next_to_use)
    tx_ring.tdt = tx_ring.next_to_use

    adapter.net_stats.tx_packets += 1
    adapter.net_stats.tx_bytes += length
    netdev.stats.tx_packets += 1
    netdev.stats.tx_bytes += length

    linux.spin_unlock_irqrestore(tx_lock)
    return linux.NETDEV_TX_OK


def e1000_desc_unused(ring):
    if ring.next_to_clean > ring.next_to_use:
        return ring.next_to_clean - ring.next_to_use - 1
    return ring.count + ring.next_to_clean - ring.next_to_use - 1


def e1000_clean_tx_irq(adapter, tx_ring):
    """Reclaim transmitted descriptors; wakes the queue if stopped."""
    netdev = adapter._kstate.netdev
    cleaned = 0
    i = tx_ring.next_to_clean
    while i != tx_ring.next_to_use:
        status = tx_ring.desc.data[i * E1000_TX_DESC_SIZE + 12]
        if not status & E1000_TXD_STAT_DD:
            break
        tx_ring.desc.data[i * E1000_TX_DESC_SIZE + 12] = 0
        i = (i + 1) % tx_ring.count
        cleaned += 1
    tx_ring.next_to_clean = i
    if cleaned and linux.netif_queue_stopped(netdev):
        linux.netif_wake_queue(netdev)
    return cleaned


# ---------------------------------------------------------------------------
# Receive path (stays in the kernel)
# ---------------------------------------------------------------------------

def e1000_clean_rx_irq(adapter, rx_ring, budget=None, queue=0):
    """Clean received descriptors; at most ``budget`` under NAPI.

    The per-packet-interrupt path (``budget is None``) copies each frame
    into a fresh skb and delivers through ``netif_rx``, exactly as the
    original driver.  The NAPI path copies into a pooled zero-copy skb
    and delivers through ``netif_receive_skb``.
    """
    netdev = adapter._kstate.netdev
    napi_path = budget is not None and napi_mode
    desc = rx_ring.desc.data
    buffers = memoryview(rx_ring.buffer_region.data)
    rx_buffer_len = adapter.rx_buffer_len
    alloc_skb = linux.napi_alloc_skb
    receive_skb = linux.netif_receive_skb
    rdt_reg = e1000_hw.RDT + queue * E1000_QUEUE_STRIDE
    cleaned = 0
    cleaned_bytes = 0
    i = rx_ring.next_to_clean
    while budget is None or cleaned < budget:
        base = i * E1000_RX_DESC_SIZE
        # Descriptor layout: addr(8) length(2) csum(2) status(1) ...
        status = desc[base + 12]
        if not status & E1000_RXD_STAT_DD:
            break
        length = desc[base + 8] | (desc[base + 9] << 8)
        buf_off = i * rx_buffer_len
        if napi_path:
            skb = alloc_skb(length)
            skb.data[0:length] = buffers[buf_off:buf_off + length]
            receive_skb(netdev, skb)
        else:
            frame = bytes(buffers[buf_off:buf_off + length])
            skb = linux.skb_from_data(frame)
            linux.netif_rx(netdev, skb)
        # Clear status, hand the descriptor back to hardware (the
        # device rewrites length/csum on the next use of this slot).
        desc[base + 12] = 0
        i = (i + 1) % rx_ring.count
        cleaned += 1
        cleaned_bytes += length
        # Return descriptors to the device in small batches.
        if cleaned % 16 == 0:
            rx_ring.rdt = (i - 1) % rx_ring.count
            E1000_WRITE_REG(adapter.hw, rdt_reg, rx_ring.rdt)
    rx_ring.next_to_clean = i
    if cleaned:
        adapter.net_stats.rx_packets += cleaned
        adapter.net_stats.rx_bytes += cleaned_bytes
        netdev.stats.rx_packets += cleaned
        netdev.stats.rx_bytes += cleaned_bytes
        rx_ring.rdt = (i - 1) % rx_ring.count
        E1000_WRITE_REG(adapter.hw, rdt_reg, rx_ring.rdt)
    return cleaned


# ---------------------------------------------------------------------------
# Interrupt handler (critical root)
# ---------------------------------------------------------------------------

def e1000_intr(irq, dev_id):
    netdev = dev_id
    adapter = netdev.priv
    hw = adapter.hw
    icr = E1000_READ_REG(hw, e1000_hw.ICR)
    if not icr:
        return linux.IRQ_NONE

    st = adapter._kstate
    if icr & e1000_hw.E1000_ICR_LSC:
        hw.get_link_status = 1
        linux.mod_timer(st.watchdog_timer, 1)

    work_causes = (e1000_hw.E1000_ICR_RXT0 | e1000_hw.E1000_ICR_RXDMT0
                   | e1000_hw.E1000_ICR_TXDW)
    if napi_mode and st.napi is not None and icr & work_causes:
        # NAPI: mask device interrupts and punt all ring work to the
        # softirq poll; e1000_poll re-enables on napi_complete.
        E1000_WRITE_REG(hw, e1000_hw.IMC, 0xFFFFFFFF)
        linux.napi_schedule(st.napi)
        return linux.IRQ_HANDLED

    if icr & (e1000_hw.E1000_ICR_RXT0 | e1000_hw.E1000_ICR_RXDMT0):
        e1000_clean_rx_irq(adapter, adapter.rx_ring)
    if icr & e1000_hw.E1000_ICR_TXDW:
        e1000_clean_tx_irq(adapter, adapter.tx_ring)
    return linux.IRQ_HANDLED


def e1000_intr_queue(netdev, q):
    """Per-queue vector (irq + q): reads queue q's ICR, runs its NAPI."""
    adapter = netdev.priv
    st = adapter._kstate
    hw = adapter.hw
    s = q * E1000_QUEUE_STRIDE
    icr = E1000_READ_REG(hw, e1000_hw.ICR + s)
    if not icr:
        return linux.IRQ_NONE
    if napi_mode and q - 1 < len(st.extra_napis):
        E1000_WRITE_REG(hw, e1000_hw.IMC + s, 0xFFFFFFFF)
        linux.napi_schedule(st.extra_napis[q - 1])
        return linux.IRQ_HANDLED
    if icr & (e1000_hw.E1000_ICR_RXT0 | e1000_hw.E1000_ICR_RXDMT0):
        e1000_clean_rx_irq(adapter, st.extra_rx_rings[q - 1], queue=q)
    if icr & e1000_hw.E1000_ICR_TXDW:
        e1000_clean_tx_irq(adapter, st.extra_tx_rings[q - 1])
    return linux.IRQ_HANDLED


def e1000_poll(napi, budget):
    """NAPI poll: drain both rings, re-enable interrupts when caught up."""
    adapter = napi.dev.priv
    q = napi.queue
    if q == 0:
        tx_ring = adapter.tx_ring
        rx_ring = adapter.rx_ring
    else:
        st = adapter._kstate
        tx_ring = st.extra_tx_rings[q - 1]
        rx_ring = st.extra_rx_rings[q - 1]
    e1000_clean_tx_irq(adapter, tx_ring)
    work_done = e1000_clean_rx_irq(adapter, rx_ring, budget, queue=q)
    if work_done < budget:
        linux.napi_complete(napi)
        # Re-enabling IMS re-fires immediately if causes latched in ICR
        # while we polled, so nothing is stranded in the ring.
        E1000_WRITE_REG(adapter.hw, e1000_hw.IMS + q * E1000_QUEUE_STRIDE,
                        e1000_hw.E1000_IMS_ENABLE_MASK)
    return work_done


# ---------------------------------------------------------------------------
# Watchdog (timer context in the legacy driver)
# ---------------------------------------------------------------------------

def e1000_watchdog(data):
    adapter = data
    st = adapter._kstate
    netdev = st.netdev
    hw = adapter.hw

    e1000_hw.e1000_check_for_link(hw)

    link = E1000_READ_REG(hw, e1000_hw.STATUS) & e1000_hw.E1000_STATUS_LU
    if link:
        if not linux.netif_carrier_ok(netdev):
            ret_val, speed, duplex = e1000_hw.e1000_get_speed_and_duplex(hw)
            adapter.link_speed = speed
            adapter.link_duplex = duplex
            linux.printk("e1000: %s NIC Link is Up %d Mbps %s"
                         % (netdev.name, speed,
                            "Full Duplex" if duplex else "Half Duplex"))
            linux.netif_carrier_on(netdev)
            linux.netif_wake_queue(netdev)
    else:
        if linux.netif_carrier_ok(netdev):
            adapter.link_speed = 0
            adapter.link_duplex = 0
            linux.printk("e1000: %s NIC Link is Down" % netdev.name)
            linux.netif_carrier_off(netdev)
            linux.netif_stop_queue(netdev)
        # SmartSpeed: retry-link workaround while the link is down.
        e1000_hw.e1000_smartspeed(hw)

    e1000_update_stats(adapter)
    e1000_hw.e1000_update_adaptive(hw)

    linux.mod_timer(st.watchdog_timer, 2000)


def e1000_update_stats(adapter):
    hw = adapter.hw
    # Reading the statistics block clears it on hardware.
    for i in range(8):
        E1000_READ_REG(hw, e1000_hw.CRCERRS + (i << 2))
    adapter.net_stats.collisions = 0


# ---------------------------------------------------------------------------
# Management path (moves to user level)
# ---------------------------------------------------------------------------

def e1000_get_stats(netdev):
    return netdev.stats


def e1000_set_multi(netdev):
    adapter = netdev.priv
    hw = adapter.hw
    e1000_hw.e1000_rar_set(hw, list(netdev.dev_addr), 0)
    rctl = E1000_READ_REG(hw, e1000_hw.RCTL)
    rctl |= e1000_hw.E1000_RCTL_BAM
    E1000_WRITE_REG(hw, e1000_hw.RCTL, rctl)
    return 0


def e1000_set_mac(netdev, addr):
    adapter = netdev.priv
    for i in range(6):
        adapter.hw.mac_addr[i] = addr[i]
    netdev.dev_addr = bytes(addr)
    e1000_hw.e1000_rar_set(adapter.hw, list(addr), 0)
    return 0


def e1000_change_mtu(netdev, new_mtu):
    adapter = netdev.priv
    if new_mtu < 68 or new_mtu > 16110:
        return -linux.EINVAL
    netdev.mtu = new_mtu
    adapter.hw.max_frame_size = new_mtu + 18
    if linux.netif_running(netdev):
        e1000_reinit_locked(adapter)
    return 0


def e1000_tx_timeout(netdev):
    adapter = netdev.priv
    adapter.tx_timeout_count += 1
    e1000_reinit_locked(adapter)


def e1000_reinit_locked(adapter):
    e1000_down(adapter)
    e1000_up(adapter)


# ---------------------------------------------------------------------------
# Power management (prime movable code, per the paper)
# ---------------------------------------------------------------------------

def e1000_suspend(pdev):
    netdev = pdev.driver_data
    if netdev is None:
        return -linux.ENODEV
    adapter = netdev.priv
    if linux.netif_running(netdev):
        e1000_down(adapter)
    e1000_save_config_space(adapter, pdev)
    # Return value historically unchecked on the suspend path.
    e1000_hw.e1000_power_down_phy_hw(adapter.hw)
    linux.pci_disable_device(pdev)
    return 0


def e1000_resume(pdev):
    netdev = pdev.driver_data
    if netdev is None:
        return -linux.ENODEV
    adapter = netdev.priv
    err = linux.pci_enable_device(pdev)
    if err:
        return err
    linux.pci_set_master(pdev)
    e1000_restore_config_space(adapter, pdev)
    err = e1000_hw.e1000_power_up_phy_hw(adapter.hw)
    if err:
        return -linux.EIO
    e1000_reset(adapter)
    if linux.netif_running(netdev):
        e1000_up(adapter)
    return 0


# ---------------------------------------------------------------------------
# Module glue
# ---------------------------------------------------------------------------

def e1000_init_module():
    return 0


def e1000_exit_module():
    return 0


class E1000PciGlue:
    name = DRV_NAME

    def probe(self, kernel, pdev):
        return e1000_probe(pdev)

    def remove(self, kernel, pdev):
        e1000_remove(pdev)

    def matches(self, func):
        from ...devices.e1000 import E1000_DEVICE_IDS

        return (func.vendor_id == E1000_VENDOR_ID
                and func.device_id in E1000_DEVICE_IDS)


def make_module(napi=True, num_queues=1):
    from ..modulebase import LegacyDriverModule
    from . import e1000_ethtool, e1000_param

    def init_fn():
        set_napi_mode(napi)
        set_num_queues(num_queues)
        return e1000_init_module()

    # e1000 spans several source files sharing one `linux` binding.
    return LegacyDriverModule(
        name=DRV_NAME,
        driver_module=__import__(__name__, fromlist=["*"]),
        extra_modules=(e1000_hw, e1000_param, e1000_ethtool),
        pci_glue=E1000PciGlue(),
        init_fn=init_fn,
        cleanup_fn=e1000_exit_module,
    )
