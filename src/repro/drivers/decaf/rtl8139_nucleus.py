"""8139too driver nucleus.

The kernel-resident half of the decaf 8139too driver.  The
performance-critical functions -- interrupt handler, transmit, receive
-- are the *same code* as the legacy driver (DriverSlicer leaves them
in place); this module adds what the slicer generates around them:

* XPC entry stubs for the driver-interface operations that moved to the
  decaf driver (open, close, rx_mode, stats, ...);
* kernel entry points the decaf driver calls back into (chip reset,
  ring allocation, irq setup);
* deferral of the link-watch timer to a work item so its body may run
  at user level (section 3.1.3).
"""

from ..legacy import rtl8139 as legacy
from ..legacy.rtl8139 import (
    DRV_NAME,
    RTL8139_DEVICE_ID,
    RTL8139_VENDOR_ID,
    rtl8139_private,
    rtl8139_stats,
)
from ..modulebase import DecafDriverModule
from ..linuxapi import LinuxApi
from .plumbing import DecafPlumbing
from .rtl8139_decaf import Rtl8139DecafDriver


class Rtl8139Nucleus:
    # Legacy modules whose ``linux`` global this nucleus binds.
    bound_modules = (legacy,)

    def __init__(self, kernel):
        self.kernel = kernel
        self.linux = LinuxApi(kernel)
        for module in self.bound_modules:
            module.linux = self.linux
        self.state = legacy.rtl8139_driver_state()
        self.plumbing = None  # created on probe (needs the irq line)
        self.decaf = None
        self.pdev = None
        self.link_work_timer = None
        self.link_poll_period_ns = 2_000_000_000  # fleet slots stretch this
        self.irq_requested = False
        self.pci_glue = _PciGlue(self)

    # -- module lifecycle ------------------------------------------------------

    def init(self):
        bound = self.kernel.pci.register_driver(self.pci_glue)
        if bound == 0:
            self.kernel.pci.unregister_driver(self.pci_glue)
            return -self.linux.ENODEV
        return 0

    def cleanup(self):
        self.kernel.pci.unregister_driver(self.pci_glue)

    # -- probe path: kernel stub -> decaf driver ---------------------------------

    def probe(self, pdev):
        self.pdev = pdev
        self.plumbing = DecafPlumbing(self.kernel, "8139too",
                                      irq_line=pdev.irq)
        self.decaf = Rtl8139DecafDriver(self.plumbing.decaf_rt, self)
        self.plumbing.decaf_rt.start()

        tp = rtl8139_private()
        tp.msg_enable = 7
        tp.stats = rtl8139_stats()
        tp._kstate = self.state
        self.state.tp = tp
        self.plumbing.channel.kernel_tracker.register(tp)
        self.plumbing.channel.kernel_tracker.register(tp.stats)

        ret = self.plumbing.upcall(
            self.decaf.init_one,
            args=[(tp, rtl8139_private)],
        )
        if ret:
            self.state.tp = None
        else:
            self.plumbing.record("probe")
        return ret

    def remove(self, pdev):
        if self.decaf is None:
            return
        self.plumbing.upcall(self.decaf.remove_one)
        self.decaf = None

    # -- netdev ops: stubs that transfer to user level -----------------------------

    def stub_open(self, dev):
        ret = self.plumbing.upcall(
            self.decaf.open, args=[(self.state.tp, rtl8139_private)]
        )
        if ret == 0:
            self.plumbing.record("open")
        return ret

    def stub_close(self, dev):
        ret = self.plumbing.upcall(
            self.decaf.close, args=[(self.state.tp, rtl8139_private)]
        )
        if ret == 0:
            self.plumbing.unrecord("open")
        return ret

    def stub_get_stats(self, dev):
        # Cheap accessor: served from the kernel copy, as the real
        # driver nucleus does for hot paths.
        return dev.stats

    def stub_set_rx_mode(self, dev):
        # rx_mode programming is reachable from the data path too
        # (rtl8139_hw_start); the kernel implementation is reused.
        return legacy.rtl8139_set_rx_mode(dev)

    def stub_set_mac_address(self, dev, addr):
        ret = self.plumbing.upcall(
            self.decaf.set_mac_address,
            args=[(self.state.tp, rtl8139_private)],
            extra=(list(addr),),
        )
        if ret == 0:
            # The netdev is kernel state; mirror what the legacy driver
            # does after programming IDR (the user half only sees tp).
            dev.dev_addr = bytes(addr)
            self.plumbing.record("set_mac", list(addr))
        return ret

    def stub_tx_timeout(self, dev):
        # Must run at high priority; stays kernel.
        return legacy.rtl8139_tx_timeout(dev)

    # -- deferred link watch: timer -> work item -> decaf driver ---------------------

    def start_link_watch(self):
        self.link_work_timer = self.plumbing.nuclear.defer_timer(
            self._link_watch_work, name="8139too-thread"
        )
        self.link_work_timer.mod_timer_after(self.link_poll_period_ns)

    def stop_link_watch(self):
        if self.link_work_timer is not None:
            self.link_work_timer.del_timer()
            self.link_work_timer = None

    def _link_watch_work(self, _data):
        if self.decaf is None or self.state.tp is None:
            return
        self.plumbing.upcall(
            self.decaf.thread, args=[(self.state.tp, rtl8139_private)]
        )
        if self.link_work_timer is not None:
            self.link_work_timer.mod_timer_after(self.link_poll_period_ns)

    # -- kernel entry points (downcalls from the decaf driver) -----------------------

    def k_init_board(self, tp):
        return legacy.rtl8139_init_board(self.pdev, tp)

    def k_read_mac(self, tp):
        return legacy.read_mac_address(tp)

    def k_chip_reset(self, tp):
        return legacy.rtl8139_chip_reset(tp)

    def k_register_netdev(self, tp):
        if self.state.netdev is not None:
            # Recovery replay: keep the registered netdev (and "eth0")
            # alive across the user-half restart; refresh probe output.
            dev = self.state.netdev
            dev.dev_addr = bytes(tp.mac_addr)
            dev.priv = tp
            dev.irq = tp.irq
            dev.base_addr = tp.ioaddr
            return 0
        dev = self.linux.alloc_etherdev("eth%d")
        dev.dev_addr = bytes(tp.mac_addr)
        dev.priv = tp
        dev.open = self.stub_open
        dev.stop = self.stub_close
        dev.hard_start_xmit = legacy.rtl8139_start_xmit
        dev.get_stats = self.stub_get_stats
        dev.set_multicast_list = self.stub_set_rx_mode
        dev.set_mac_address = self.stub_set_mac_address
        dev.tx_timeout = self.stub_tx_timeout
        dev.irq = tp.irq
        dev.base_addr = tp.ioaddr
        self.state.netdev = dev
        self.state.lock = self.linux.spin_lock_init("rtl8139")
        return self.linux.register_netdev(dev)

    def k_unregister_netdev(self):
        if self.state.netdev is not None:
            self.linux.unregister_netdev(self.state.netdev)
            self.state.netdev = None
        self.linux.pci_release_regions(self.pdev)
        self.linux.pci_disable_device(self.pdev)
        return 0

    def k_request_irq(self, tp):
        ret = self.linux.request_irq(
            tp.irq, legacy.rtl8139_interrupt, DRV_NAME, self.state.netdev
        )
        if ret == 0:
            self.irq_requested = True
        return ret

    def k_free_irq(self, tp):
        # NAPI must be gone (line unmasked) before free_irq: free_irq
        # does not reset the line's disable depth.
        legacy.rtl8139_napi_del(self.state)
        self.linux.free_irq(tp.irq, self.state.netdev)
        self.irq_requested = False
        return 0

    def k_alloc_rings(self):
        st = self.state
        st.rx_ring_dma = self.linux.dma_alloc_coherent(
            legacy.RX_BUF_LEN + 16, owner=DRV_NAME
        )
        st.tx_bufs_dma = self.linux.dma_alloc_coherent(
            legacy.TX_BUF_SIZE * legacy.NUM_TX_DESC, owner=DRV_NAME
        )
        if st.rx_ring_dma is None or st.tx_bufs_dma is None:
            legacy.rtl8139_free_rings(st)
            return -self.linux.ENOMEM
        return 0

    def k_free_rings(self):
        legacy.rtl8139_free_rings(self.state)
        return 0

    def k_hw_start(self, tp):
        return legacy.rtl8139_hw_start(self.state.netdev)

    def k_netif_stop(self):
        self.linux.netif_stop_queue(self.state.netdev)
        return 0

    def k_check_media(self, tp):
        return 1 if legacy.rtl8139_check_media(self.state.netdev, tp) else 0

    # -- supervised recovery ------------------------------------------------------

    def fault_quiesce(self):
        """Kernel-side quiesce after a user-half failure (no upcalls).

        Undoes what the dead driver's open/probe set up on the kernel
        side -- link watch, queue, irq, rings, PCI claim -- leaving the
        netdev registered for the replayed probe to reuse.  Returns the
        number of in-flight TX packets discarded.
        """
        self.stop_link_watch()
        tp = self.state.tp
        if tp is None:
            return 0
        lost = 0
        if self.irq_requested:
            lost = max(0, tp.cur_tx - tp.dirty_tx)
            dev = self.state.netdev
            if dev is not None:
                self.linux.netif_stop_queue(dev)
                self.linux.netif_carrier_off(dev)
            self.k_free_irq(tp)
            legacy.rtl8139_free_rings(self.state)
        self.linux.pci_release_regions(self.pdev)
        self.linux.pci_disable_device(self.pdev)
        return lost

    def rebuild_user_half(self):
        self.decaf = Rtl8139DecafDriver(self.plumbing.decaf_rt, self)

    def replay_op(self, op, args):
        if op == "probe":
            return self.plumbing.upcall(
                self.decaf.init_one,
                args=[(self.state.tp, rtl8139_private)],
            )
        if op == "open":
            return self.stub_open(self.state.netdev)
        if op == "set_mac":
            return self.stub_set_mac_address(self.state.netdev, args[0])
        return 0


class _PciGlue:
    name = DRV_NAME
    id_table = ((RTL8139_VENDOR_ID, RTL8139_DEVICE_ID),)

    def __init__(self, nucleus):
        self.nucleus = nucleus

    def probe(self, kernel, pdev):
        return self.nucleus.probe(pdev)

    def remove(self, kernel, pdev):
        self.nucleus.remove(pdev)

    def matches(self, func):
        return (func.vendor_id, func.device_id) in self.id_table


def make_module(napi=True):
    def setup(kernel):
        legacy.set_napi_mode(napi)
        return Rtl8139Nucleus(kernel)

    return DecafDriverModule(DRV_NAME, setup)
