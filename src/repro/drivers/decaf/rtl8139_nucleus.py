"""8139too driver nucleus.

The kernel-resident half of the decaf 8139too driver.  The
performance-critical functions -- interrupt handler, transmit, receive
-- are the *same code* as the legacy driver (DriverSlicer leaves them
in place); this module adds what the slicer generates around them:

* the netdev ops, which call up to the driver-interface operations that
  moved to the decaf driver (open, close, set_mac_address) or stay in
  the kernel (rx_mode, stats, tx_timeout);
* kernel entry points the decaf driver calls back into (chip reset,
  ring allocation, irq setup);
* the body of the link watch, whose timer the nuclear runtime defers
  to a work item so the body may call up to user level (section 3.1.3).
"""

from ..legacy import rtl8139 as legacy
from ..legacy.rtl8139 import DRV_NAME, rtl8139_private, rtl8139_stats
from ..modulebase import DecafDriverModule
from .plumbing import RECORD, DecafPlumbing, unrecord, xpc_stubs
from .rtl8139_decaf import Rtl8139DecafDriver


@xpc_stubs
class Rtl8139Nucleus:
    def __init__(self, kernel):
        self.kernel = kernel
        self.linux = legacy.linux
        self.state = legacy.rtl8139_driver_state()
        self.plumbing = None  # created on probe (needs the irq line)
        self.decaf = None
        self.pdev = None
        self.link_watch = None
        self.irq_requested = False

    # -- probe path: kernel stub -> decaf driver ---------------------------------

    def probe(self, pdev):
        self.pdev = pdev
        self.plumbing = DecafPlumbing(self.kernel, "8139too",
                                      irq_line=pdev.irq, nucleus=self)
        self.link_watch = self.plumbing.nuclear.defer_timer(
            self._link_watch, 2_000_000_000, "8139too-thread")
        self.rebuild_user_half()
        self.plumbing.decaf_rt.start()

        tp = rtl8139_private()
        tp.msg_enable = 7
        tp.stats = rtl8139_stats()
        tp._kstate = self.state
        self.state.tp = tp
        self.plumbing.channel.kernel_tracker.register(tp)
        self.plumbing.channel.kernel_tracker.register(tp.stats)

        ret = self.plumbing.up.init_one(tp)
        if ret:
            self.state.tp = None
        return ret

    def remove(self, pdev):
        if self.decaf is None:
            return
        self.plumbing.up.remove_one()
        self.decaf = None

    # -- netdev ops -------------------------------------------------------------------

    UPCALLS = {
        "init_one": RECORD,
        "remove_one": None,
        "open": RECORD,
        "close": unrecord("open"),
        "set_mac_address": None,  # recorded by set_mac_address below
        "thread": None,
    }

    def open(self, dev):
        return self.plumbing.up.open(self.state.tp)

    def stop(self, dev):
        return self.plumbing.up.close(self.state.tp)

    def get_stats(self, dev):
        # Cheap accessor: served from the kernel copy, as the real
        # driver nucleus does for hot paths.
        return dev.stats

    def set_rx_mode(self, dev):
        # rx_mode programming is reachable from the data path too
        # (rtl8139_hw_start); the kernel implementation is reused.
        return legacy.rtl8139_set_rx_mode(dev)

    def set_mac_address(self, dev, addr):
        ret = self.plumbing.up.set_mac_address(self.state.tp, list(addr))
        if ret == 0:
            # The netdev is kernel state; mirror what the legacy driver
            # does after programming IDR (the user half only sees tp).
            # Replay mirrors it again, so this op is the replay entry.
            dev.dev_addr = bytes(addr)
            self.plumbing.record(self.set_mac_address, dev, list(addr))
        return ret

    def tx_timeout(self, dev):
        # Must run at high priority; stays kernel.
        return legacy.rtl8139_tx_timeout(dev)

    # -- link watch: the nuclear runtime defers its timer to a work item ----
    #
    # Armed by k_hw_start and cancelled by k_free_irq, in the order
    # rtl8139_open/rtl8139_close start and stop the legacy thread.

    def _link_watch(self):
        if self.decaf is None or self.state.tp is None:
            return False
        self.plumbing.up.thread(self.state.tp)
        return True

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
        dev.open = self.open
        dev.stop = self.stop
        dev.hard_start_xmit = legacy.rtl8139_start_xmit
        dev.get_stats = self.get_stats
        dev.set_multicast_list = self.set_rx_mode
        dev.set_mac_address = self.set_mac_address
        dev.tx_timeout = self.tx_timeout
        dev.irq = tp.irq
        dev.base_addr = tp.ioaddr
        self.state.netdev = self.pdev.driver_data = dev
        self.state.lock = self.linux.spin_lock_init("rtl8139")
        return self.linux.register_netdev(dev)

    def k_unregister_netdev(self):
        if self.state.netdev is not None:
            self.linux.unregister_netdev(self.state.netdev)
            self.state.netdev = self.pdev.driver_data = None
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
        self.link_watch.stop()
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
        ret = legacy.rtl8139_hw_start(self.state.netdev)
        self.link_watch.start()
        return ret

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
        self.link_watch.stop()
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
        self.decaf = Rtl8139DecafDriver(self.plumbing.decaf_rt,
                                        self.plumbing.down)


def make_module(napi=True):
    def init_fn():
        legacy.set_napi_mode(napi)
        return 0

    return DecafDriverModule(DRV_NAME, legacy, legacy.Rtl8139PciGlue(),
                             Rtl8139Nucleus, init_fn=init_fn)
