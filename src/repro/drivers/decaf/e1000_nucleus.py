"""E1000 driver nucleus.

Kernel-resident half of the decaf E1000: the interrupt handler,
transmit path and ring cleaning are the legacy functions unchanged;
this module provides the netdev ops that call up to the interface
operations that moved to Java, the kernel entry points the decaf
driver downcalls, and the body of the watchdog, which the nuclear
runtime defers (timer -> work item -> upcall, section 3.1.3).

The four ethtool diagnostic functions with the interrupt data race
remain here, served directly from the kernel (section 5).
"""

from ...core.combolock import ComboLock
from ..legacy import e1000_ethtool as legacy_ethtool
from ..legacy import e1000_hw as hw_defs
from ..legacy import e1000_main as legacy
from ..legacy.e1000_main import DRV_NAME, e1000_adapter
from .e1000_decaf import E1000DecafDriver
from .e1000_lib import E1000DriverLibrary
from .plumbing import RECORD, Nucleus, unrecord, xpc_stubs


@xpc_stubs
class E1000Nucleus(Nucleus):
    LEGACY = legacy
    STATE = legacy.e1000_state
    POLL = (2_000_000_000, "e1000-watchdog")

    def __init__(self, kernel, options=None):
        super().__init__(kernel, options)
        self.library = None
        self.adapter = None
        self.netdev = None
        self.adapter_lock = None
        self.watchdog_skips = 0
        self.irq_requested = False

    # -- probe ----------------------------------------------------------------------

    def new_user_half(self):
        if self.adapter_lock is None:
            # Cross-domain synchronization for adapter state (section
            # 3.1.3), kept across user-half restarts: a combolock --
            # spinlock when only kernel code holds it, semaphore when
            # the decaf driver does.
            self.adapter_lock = ComboLock(self.kernel, self.domains,
                                          "e1000-adapter")
        self.library = E1000DriverLibrary(self.kernel, self.channel,
                                          napi=legacy.napi_mode)
        return E1000DecafDriver(self.decaf_rt, self.down,
                                self.adapter_lock, self.library)

    def setup(self, pdev):
        adapter = e1000_adapter()
        adapter._kstate = self.state
        self.adapter = adapter
        self.state.pdev = pdev
        self.state.tx_lock = self.linux.spin_lock_init("e1000-tx")
        self.channel.kernel_tracker.register(adapter)

        ret = self.up.init_one(adapter, self.options)
        if ret:
            self.adapter = None
        return ret

    def teardown(self, pdev):
        self.up.remove_one(self.adapter)

    # -- netdev ops (kernel -> decaf) ------------------------------------------------

    UPCALLS = {
        "init_one": RECORD,
        "remove_one": None,
        "open": RECORD,
        "close": unrecord("open"),
        "set_multi": RECORD,
        "set_mac": RECORD,
        "change_mtu": None,  # recorded by change_mtu below
        "tx_timeout": None,
        "suspend": None,
        "resume": None,
    }

    def open(self, dev):
        return self.up.open(self.adapter)

    def stop(self, dev):
        return self.up.close(self.adapter)

    def set_multi(self, dev):
        return self.up.set_multi(self.adapter)

    def set_mac(self, dev, addr):
        return self.up.set_mac(self.adapter, list(addr))

    def change_mtu(self, dev, new_mtu):
        # Whether the adapter is up is kernel state the user half cannot
        # read; it rides up with the call so a running adapter is
        # reinitialized with the new frame size (as the legacy driver
        # does on netif_running).  It is read from the open's irq, not
        # the netdev: replay runs this op with the netdev still up but
        # before (or without) the replayed open, where a reinit fails.
        ret = self.up.change_mtu(
            self.adapter, new_mtu, 1 if self.irq_requested else 0)
        if ret == 0:
            self.replay_log.record(self.change_mtu, dev, new_mtu)
        return ret

    def tx_timeout(self, dev):
        return self.up.tx_timeout(self.adapter)

    def get_stats(self, dev):
        return dev.stats

    # -- watchdog body: the nuclear runtime defers its timer to a work item ----

    def poll_body(self):
        if self.decaf is None or self.adapter is None:
            return False
        # If the decaf driver holds the adapter combolock (a reinit in
        # progress), this kernel thread would have to sleep on the
        # semaphore; defer to the next tick instead.  The decaf
        # watchdog acquires the lock itself, in user (semaphore) mode.
        if self.adapter_lock.held:
            self.watchdog_skips += 1
        else:
            # The watchdog kick is a one-way notification: queue it
            # (coalescing with any still-pending kick) and flush the
            # batch here, in process context, as one crossing.
            self.channel.defer(self.decaf.watchdog,
                               args=[(self.adapter, e1000_adapter)])
            self.nuclear.flush_notifications()
        return True

    def k_stop_watchdog(self):
        self.poll.stop()
        return 0

    # -- kernel entry points (decaf -> kernel) ----------------------------------------------

    def k_pci_setup(self, adapter):
        err = self.linux.pci_enable_device(self.pdev)
        if err:
            return err
        err = self.linux.pci_request_regions(self.pdev, DRV_NAME)
        if err:
            self.linux.pci_disable_device(self.pdev)
            return err
        self.linux.pci_set_master(self.pdev)
        adapter.hw.hw_addr = self.linux.pci_resource_start(self.pdev, 0)
        adapter.hw.device_id = self.pdev.device_id
        adapter.hw.vendor_id = self.pdev.vendor_id
        adapter.hw.revision_id = self.pdev.revision
        adapter.hw.subsystem_id = self.pdev.subsystem_device
        adapter.hw.subsystem_vendor_id = self.pdev.subsystem_vendor
        adapter.tx_ring.count = 256
        adapter.rx_ring.count = 256
        return 0

    def k_pci_teardown(self):
        self.linux.pci_release_regions(self.pdev)
        self.linux.pci_disable_device(self.pdev)
        return 0

    def k_save_config_space(self, adapter):
        legacy.e1000_save_config_space(adapter, self.pdev)
        return 0

    def k_read_config_dword(self, offset):
        return self.linux.pci_read_config_dword(self.pdev, offset)

    def k_write_config_dword(self, offset, value):
        self.linux.pci_write_config_dword(self.pdev, offset, value)
        return 0

    def k_pci_enable(self):
        err = self.linux.pci_enable_device(self.pdev)
        if err:
            return err
        self.linux.pci_set_master(self.pdev)
        return 0

    def k_pci_disable(self):
        self.linux.pci_disable_device(self.pdev)
        return 0

    def k_netif_running(self):
        if self.netdev is None:
            return 0
        return 1 if self.linux.netif_running(self.netdev) else 0

    def k_register_netdev(self, adapter):
        if self.netdev is not None:
            # Recovery replay: the kernel-facing netdev survives the
            # user-half restart so applications keep their references
            # and "eth0" its identity; just refresh what probe set.
            dev = self.netdev
            dev.dev_addr = bytes(adapter.hw.mac_addr)
            dev.priv = adapter
            dev.base_addr = adapter.hw.hw_addr
            self.state.netdev = dev
            return 0
        dev = self.linux.alloc_etherdev("eth%d")
        dev.dev_addr = bytes(adapter.hw.mac_addr)
        dev.priv = adapter
        dev.open = self.open
        dev.stop = self.stop
        dev.hard_start_xmit = legacy.e1000_xmit_frame
        dev.get_stats = self.get_stats
        dev.set_multicast_list = self.set_multi
        dev.set_mac_address = self.set_mac
        dev.change_mtu = self.change_mtu
        dev.tx_timeout = self.tx_timeout
        dev.irq = self.pdev.irq
        dev.base_addr = adapter.hw.hw_addr
        self.netdev = self.pdev.driver_data = dev
        self.state.netdev = dev
        return self.linux.register_netdev(dev)

    def k_unregister_netdev(self):
        if self.netdev is not None:
            self.linux.unregister_netdev(self.netdev)
            self.netdev = self.pdev.driver_data = None
            self.state.netdev = None
        return 0

    def k_setup_tx_resources(self, adapter):
        # All queues: queue 0 into the marshaled adapter, extra queues
        # into kernel-side state (state.extra_tx_rings) so the XPC
        # wire format is independent of the queue count.
        return legacy.e1000_setup_all_tx_resources(adapter)

    def k_setup_rx_resources(self, adapter):
        return legacy.e1000_setup_all_rx_resources(adapter)

    def k_free_tx_resources(self, adapter):
        legacy.e1000_free_all_tx_resources(adapter)
        return 0

    def k_free_rx_resources(self, adapter):
        legacy.e1000_free_all_rx_resources(adapter)
        return 0

    def k_request_irq(self):
        err = self.linux.request_irq(self.pdev.irq, legacy.e1000_intr,
                                     DRV_NAME, self.netdev)
        if err:
            return err
        self.irq_requested = True
        err = legacy.e1000_request_extra_vectors(self.state)
        if err:
            self.linux.free_irq(self.pdev.irq, self.netdev)
            self.irq_requested = False
            return err
        legacy.e1000_set_irq_affinity(self.state)
        return 0

    def k_free_irq(self):
        if self.irq_requested:
            # NAPI must be gone (line unmasked) before free_irq: free_irq
            # does not reset the line's disable depth.
            legacy.e1000_napi_del(self.state)
            legacy.e1000_free_extra_vectors(self.state)
            self.linux.free_irq(self.pdev.irq, self.netdev)
            self.irq_requested = False
        return 0

    def k_up(self, adapter):
        hw = adapter.hw
        # The datapath (interrupt handler, poll, rings) is the legacy
        # code unchanged, so NAPI bring-up is shared with it too.  The
        # user half programs queue 0's registers itself; the extra
        # queues are kernel-side state, configured here.
        legacy.e1000_configure_extra_queues(adapter)
        legacy.e1000_napi_up(self.netdev)
        self.kernel.io.writel(hw_defs.E1000_IMS_ENABLE_MASK,
                              hw.hw_addr + hw_defs.IMS)
        legacy.e1000_irq_enable_extra(adapter)
        self.poll.start()
        self.linux.netif_start_queue(self.netdev)
        return 0

    def k_down(self, adapter):
        hw = adapter.hw
        self.kernel.io.writel(0xFFFFFFFF, hw.hw_addr + hw_defs.IMC)
        legacy.e1000_irq_disable_extra(adapter)
        legacy.e1000_napi_down(self.state)
        self.k_stop_watchdog()
        self.linux.netif_stop_queue(self.netdev)
        self.linux.netif_carrier_off(self.netdev)
        legacy.e1000_clean_all_tx_rings(adapter)
        legacy.e1000_clean_all_rx_rings(adapter)
        return 0

    def k_carrier_ok(self):
        return 1 if self.linux.netif_carrier_ok(self.netdev) else 0

    def k_carrier_on(self):
        self.linux.netif_carrier_on(self.netdev)
        self.linux.netif_wake_queue(self.netdev)
        return 0

    def k_carrier_off(self):
        self.linux.netif_carrier_off(self.netdev)
        self.linux.netif_stop_queue(self.netdev)
        return 0

    def k_set_netdev_mac(self, addr):
        self.netdev.dev_addr = bytes(addr)
        # Keep the kernel-side adapter twin in sync: later upcalls
        # marshal it out, and a stale hw.mac_addr would make set_multi
        # re-program the old address into RAR0.
        if self.adapter is not None:
            self.adapter.hw.mac_addr = list(addr)
        return 0

    def k_set_netdev_mtu(self, mtu):
        self.netdev.mtu = mtu
        return 0

    # -- supervised recovery ------------------------------------------------------------

    def fault_quiesce(self):
        """Silence the device after a user-half failure; kernel side only.

        Runs the kernel-side teardown entry points (``k_down`` and the
        frees) directly, never crossing to user level (the half that
        would answer is dead).  The netdev stays registered -- its
        identity is preserved across recovery.  Returns the number of
        in-flight TX packets discarded.
        """
        self.k_stop_watchdog()
        adapter = self.adapter
        if adapter is None:
            return 0
        lost = 0
        if self.irq_requested:
            tx = adapter.tx_ring
            lost = (tx.next_to_use - tx.next_to_clean) % tx.count
            self.k_down(adapter)
            self.k_free_irq()
            self.k_free_tx_resources(adapter)
            self.k_free_rx_resources(adapter)
        self.k_pci_teardown()
        return lost

    def reclaim(self):
        """After :meth:`fault_quiesce`, for a dead user half: the netdev."""
        self.k_unregister_netdev()

    # -- diagnostics that stay in the kernel (section 5's data race) ------------------------

    def diag_test(self):
        return legacy_ethtool.e1000_diag_test(self.netdev)

