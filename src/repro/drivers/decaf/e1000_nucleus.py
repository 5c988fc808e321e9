"""E1000 driver nucleus.

Kernel-resident half of the decaf E1000: the interrupt handler,
transmit path and ring cleaning are the legacy functions unchanged;
this module provides the XPC stubs for the interface operations that
moved to Java, the kernel entry points the decaf driver downcalls, and
the watchdog-timer deferral (timer -> work item -> upcall) of section
3.1.3.

The four ethtool diagnostic functions with the interrupt data race
remain here, served directly from the kernel (section 5).
"""

from ..legacy import e1000_ethtool as legacy_ethtool
from ..legacy import e1000_hw as hw_defs
from ..legacy import e1000_main as legacy
from ..legacy.e1000_main import E1000_VENDOR_ID, e1000_adapter
from ..linuxapi import LinuxApi
from ..modulebase import DecafDriverModule
from .e1000_decaf import E1000DecafDriver
from .e1000_lib import E1000DriverLibrary
from .plumbing import DecafPlumbing

DRV_NAME = "e1000"


class E1000Nucleus:
    # Legacy modules whose ``linux`` global this nucleus binds.
    bound_modules = (legacy, hw_defs, legacy_ethtool)

    def __init__(self, kernel):
        self.kernel = kernel
        self.linux = LinuxApi(kernel)
        for module in self.bound_modules:
            module.linux = self.linux
        self.state = legacy.e1000_state()
        self.plumbing = None
        self.decaf = None
        self.library = None
        self.pdev = None
        self.adapter = None
        self.netdev = None
        self.watchdog_timer = None
        self.watchdog_period_ns = 2_000_000_000  # fleet slots stretch this
        self.irq_requested = False
        self.module_options = None
        self.pci_glue = _PciGlue(self)

    # -- module lifecycle ---------------------------------------------------------

    def init(self):
        bound = self.kernel.pci.register_driver(self.pci_glue)
        if bound == 0:
            self.kernel.pci.unregister_driver(self.pci_glue)
            return -self.linux.ENODEV
        return 0

    def cleanup(self):
        self.kernel.pci.unregister_driver(self.pci_glue)

    # -- probe ----------------------------------------------------------------------

    def probe(self, pdev):
        self.pdev = pdev
        self.plumbing = DecafPlumbing(self.kernel, "e1000",
                                      irq_line=pdev.irq)
        self.library = E1000DriverLibrary(self.kernel, self.plumbing.channel,
                                          napi=legacy.napi_mode)
        self.decaf = E1000DecafDriver(self.plumbing.decaf_rt, self,
                                      self.library)
        self.plumbing.decaf_rt.start()

        adapter = e1000_adapter()
        adapter._kstate = self.state
        self.adapter = adapter
        self.state.pdev = pdev
        self.state.tx_lock = self.linux.spin_lock_init("e1000-tx")
        self.plumbing.channel.kernel_tracker.register(adapter)

        # Cross-domain synchronization for adapter state (section
        # 3.1.3): a combolock -- spinlock when only kernel code holds
        # it, semaphore when the decaf driver does.
        from ...core.combolock import ComboLock

        self.adapter_lock = ComboLock(self.kernel, self.plumbing.domains,
                                      "e1000-adapter")
        self.watchdog_skips = 0

        ret = self.plumbing.upcall(
            self.decaf.init_one,
            args=[(adapter, e1000_adapter)],
            extra=(self.module_options,),
        )
        if ret:
            self.adapter = None
        else:
            self.plumbing.record("probe")
        return ret

    def remove(self, pdev):
        if self.decaf is None or self.adapter is None:
            return
        self.plumbing.upcall(
            self.decaf.remove_one, args=[(self.adapter, e1000_adapter)]
        )
        self.adapter = None
        self.decaf = None

    # -- netdev op stubs (kernel -> decaf) ----------------------------------------------

    def stub_open(self, dev):
        ret = self.plumbing.upcall(
            self.decaf.open, args=[(self.adapter, e1000_adapter)]
        )
        if ret == 0:
            self.plumbing.record("open")
        return ret

    def stub_close(self, dev):
        ret = self.plumbing.upcall(
            self.decaf.close, args=[(self.adapter, e1000_adapter)]
        )
        if ret == 0:
            self.plumbing.unrecord("open")
        return ret

    def stub_set_multi(self, dev):
        ret = self.plumbing.upcall(
            self.decaf.set_multi, args=[(self.adapter, e1000_adapter)]
        )
        if ret == 0:
            self.plumbing.record("set_multi")
        return ret

    def stub_set_mac(self, dev, addr):
        ret = self.plumbing.upcall(
            self.decaf.set_mac, args=[(self.adapter, e1000_adapter)],
            extra=(list(addr),),
        )
        if ret == 0:
            self.plumbing.record("set_mac", list(addr))
        return ret

    def stub_change_mtu(self, dev, new_mtu):
        # netif_running is kernel state the user half cannot read; it
        # rides up with the call so a running adapter is reinitialized
        # with the new frame size (as the legacy driver does).
        ret = self.plumbing.upcall(
            self.decaf.change_mtu, args=[(self.adapter, e1000_adapter)],
            extra=(new_mtu, 1 if dev.netif_running() else 0),
        )
        if ret == 0:
            self.plumbing.record("change_mtu", new_mtu)
        return ret

    def stub_tx_timeout(self, dev):
        return self.plumbing.upcall(
            self.decaf.tx_timeout, args=[(self.adapter, e1000_adapter)]
        )

    def stub_get_stats(self, dev):
        return dev.stats

    # -- watchdog: timer deferred to a work item, body in the decaf driver ----------------

    def start_watchdog(self):
        if self.watchdog_timer is None:
            self.watchdog_timer = self.plumbing.nuclear.defer_timer(
                self._watchdog_work, name="e1000-watchdog"
            )
        self.watchdog_timer.mod_timer_after(self.watchdog_period_ns)

    def _watchdog_work(self, _data):
        if self.decaf is None or self.adapter is None:
            return
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
            self.plumbing.notify(
                self.decaf.watchdog,
                args=[(self.adapter, e1000_adapter)],
            )
            self.plumbing.flush_notifications()
        if self.watchdog_timer is not None:
            self.watchdog_timer.mod_timer_after(self.watchdog_period_ns)

    def k_stop_watchdog(self):
        if self.watchdog_timer is not None:
            self.watchdog_timer.del_timer()
            self.watchdog_timer = None
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

    # -- power-management stubs (pm core -> decaf driver) --------------------------

    def stub_suspend(self):
        return self.plumbing.upcall(
            self.decaf.suspend, args=[(self.adapter, e1000_adapter)]
        )

    def stub_resume(self):
        return self.plumbing.upcall(
            self.decaf.resume, args=[(self.adapter, e1000_adapter)]
        )

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
        dev.open = self.stub_open
        dev.stop = self.stub_close
        dev.hard_start_xmit = legacy.e1000_xmit_frame
        dev.get_stats = self.stub_get_stats
        dev.set_multicast_list = self.stub_set_multi
        dev.set_mac_address = self.stub_set_mac
        dev.change_mtu = self.stub_change_mtu
        dev.tx_timeout = self.stub_tx_timeout
        dev.irq = self.pdev.irq
        dev.base_addr = adapter.hw.hw_addr
        self.netdev = dev
        self.state.netdev = dev
        return self.linux.register_netdev(dev)

    def k_unregister_netdev(self):
        if self.netdev is not None:
            self.linux.unregister_netdev(self.netdev)
            self.netdev = None
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
        self.start_watchdog()
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

        Mirrors ``k_down`` plus resource teardown, but never crosses to
        user level (the half that would answer is dead).  The netdev
        stays registered -- its identity is preserved across recovery.
        Returns the number of in-flight TX packets discarded.
        """
        self.k_stop_watchdog()
        adapter = self.adapter
        if adapter is None:
            return 0
        lost = 0
        if self.irq_requested:
            hw = adapter.hw
            tx = adapter.tx_ring
            lost = (tx.next_to_use - tx.next_to_clean) % tx.count
            self.kernel.io.writel(0xFFFFFFFF, hw.hw_addr + hw_defs.IMC)
            legacy.e1000_irq_disable_extra(adapter)
            legacy.e1000_napi_down(self.state)
            self.linux.netif_stop_queue(self.netdev)
            self.linux.netif_carrier_off(self.netdev)
            legacy.e1000_clean_all_tx_rings(adapter)
            legacy.e1000_clean_all_rx_rings(adapter)
            self.k_free_irq()
            legacy.e1000_free_all_tx_resources(adapter)
            legacy.e1000_free_all_rx_resources(adapter)
        self.k_pci_teardown()
        return lost

    def rebuild_user_half(self):
        """Fresh user-level instances bound to the restarted runtime."""
        self.library = E1000DriverLibrary(self.kernel, self.plumbing.channel,
                                          napi=legacy.napi_mode)
        self.decaf = E1000DecafDriver(self.plumbing.decaf_rt, self,
                                      self.library)

    def replay_op(self, op, args):
        if op == "probe":
            ret = self.plumbing.upcall(
                self.decaf.init_one,
                args=[(self.adapter, e1000_adapter)],
                extra=(self.module_options,),
            )
            return ret
        if op == "open":
            return self.stub_open(self.netdev)
        if op == "set_multi":
            return self.stub_set_multi(self.netdev)
        if op == "set_mac":
            return self.stub_set_mac(self.netdev, args[0])
        if op == "change_mtu":
            return self.stub_change_mtu(self.netdev, args[0])
        return 0

    # -- diagnostics that stay in the kernel (section 5's data race) ------------------------

    def diag_test(self):
        return legacy_ethtool.e1000_diag_test(self.netdev)


class _PciGlue:
    name = DRV_NAME

    def __init__(self, nucleus):
        self.nucleus = nucleus

    def probe(self, kernel, pdev):
        return self.nucleus.probe(pdev)

    def remove(self, kernel, pdev):
        self.nucleus.remove(pdev)

    def matches(self, func):
        from ...devices.e1000 import E1000_DEVICE_IDS

        return (func.vendor_id == E1000_VENDOR_ID
                and func.device_id in E1000_DEVICE_IDS)


def make_module(options=None, napi=True, num_queues=1):
    def setup(kernel):
        legacy.set_napi_mode(napi)
        legacy.set_num_queues(num_queues)
        nucleus = E1000Nucleus(kernel)
        nucleus.module_options = options
        return nucleus

    return DecafDriverModule(DRV_NAME, setup)
