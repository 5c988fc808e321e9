"""E1000 decaf driver: the user-level half in managed style.

The 236-functions-to-Java conversion of the paper's case study, scaled
to our driver: probe/open/close/watchdog and the management interface
run here, written with classes and checked exceptions.  ``open`` is
literally Figure 4: nested try blocks whose handlers release exactly
the resources acquired so far, re-throwing upward.
"""

from . import e1000_param_decaf as param
from .e1000_hw_decaf import E1000Hw
from .exceptions import (
    ConfigException,
    DriverException,
    E1000HWException,
    EepromException,
    HardwareException,
    ResourceException,
)


class E1000DecafDriver:
    def __init__(self, rt, down, adapter_lock, library):
        self.rt = rt
        self.down = down  # downcall stubs: the kernel entry points
        self.adapter_lock = adapter_lock
        self.library = library
        self.hw = None  # E1000Hw bound to the adapter twin at probe
        self.watchdog_runs = 0

    def _lib(self, func, adapter):
        """Call into the driver library across the language boundary."""
        ret = self.rt.channel.direct_call(func, adapter)
        if isinstance(ret, int) and ret < 0:
            raise HardwareException("driver library call failed", errno=ret)
        return ret

    # -- probe: converted from e1000_probe -----------------------------------------

    def init_one(self, adapter, options=None):
        self.down.k_pci_setup(adapter, exc=ResourceException)
        try:
            self.hw = E1000Hw(adapter.hw, self.rt)
            adapter.msg_enable = 7
            adapter.rx_buffer_len = 2048
            adapter.hw.fc = 0xFF
            adapter.hw.autoneg = 1
            adapter.hw.wait_autoneg_complete = 0

            param.check_options(adapter, options)

            self.hw.set_mac_type()
            self.hw.set_media_type()
            self.hw.get_bus_info()

            self.hw.reset_hw()
            self.hw.validate_eeprom_checksum()
            self.hw.read_mac_addr()

            self.save_config_space(adapter)
            self.down.k_register_netdev(adapter, exc=ResourceException)
            try:
                self.reset(adapter)
            except DriverException:
                self.down.k_unregister_netdev()
                raise
        except DriverException:
            self.down.k_pci_teardown()
            raise
        return 0

    def save_config_space(self, adapter):
        """Snapshot PCI config space, one dword per kernel call.

        User-level code reaches config space only through the kernel,
        so this is a downcall per dword -- the kind of chatty
        initialization interface behind the paper's crossing counts.
        """
        space = []
        for i in range(64):  # PCI_LEN
            space.append(self.down.k_read_config_dword((i * 4) % 256))
        adapter.config_space = space

    def remove_one(self, adapter):
        self.down.k_stop_watchdog()
        self.down.k_unregister_netdev()
        self.down.k_pci_teardown()
        return 0

    # -- open: Figure 4, verbatim structure ------------------------------------------

    def open(self, adapter):
        try:
            # allocate transmit descriptors
            self.setup_all_tx_resources(adapter)
            try:
                # allocate receive descriptors
                self.setup_all_rx_resources(adapter)
                try:
                    self.request_irq(adapter)
                    self.power_up_phy(adapter)
                    self.bring_up(adapter)
                except E1000HWException:
                    self.free_all_rx_resources(adapter)
                    raise
            except DriverException:
                self.free_all_tx_resources(adapter)
                raise
        except DriverException:
            self.reset(adapter)
            raise
        return 0

    def close(self, adapter):
        self.bring_down(adapter)
        self.power_down_phy(adapter)
        self.free_irq(adapter)
        self.free_all_rx_resources(adapter)
        self.free_all_tx_resources(adapter)
        return 0

    # -- resources ----------------------------------------------------------------------

    def setup_all_tx_resources(self, adapter):
        self.down.k_setup_tx_resources(adapter, exc=ResourceException)

    def setup_all_rx_resources(self, adapter):
        self.down.k_setup_rx_resources(adapter, exc=ResourceException)

    def free_all_tx_resources(self, adapter):
        self.down.k_free_tx_resources(adapter)

    def free_all_rx_resources(self, adapter):
        self.down.k_free_rx_resources(adapter)

    def request_irq(self, adapter):
        self.down.k_request_irq(exc=E1000HWException)

    def free_irq(self, adapter):
        self.down.k_free_irq()

    def power_up_phy(self, adapter):
        self.hw.power_up_phy()

    def power_down_phy(self, adapter):
        try:
            self.hw.power_down_phy()
        except E1000HWException:
            pass  # powering down a dead PHY is not fatal on close

    # -- up/down/reset ---------------------------------------------------------------------

    def bring_up(self, adapter):
        self.set_multi(adapter)
        self._lib(self.library.configure_tx, adapter)
        self._lib(self.library.setup_rctl, adapter)
        self._lib(self.library.configure_rx, adapter)
        self._lib(self.library.alloc_rx_buffers, adapter)
        self.down.k_up(adapter, exc=E1000HWException)

    def bring_down(self, adapter):
        self.down.k_down(adapter)
        adapter.link_speed = 0
        adapter.link_duplex = 0
        self.reset(adapter)

    def reset(self, adapter):
        self.hw.write_reg(0x01000, 0x00000030)  # PBA
        self.hw.reset_hw()
        self.hw.init_hw()
        self.hw.phy_get_info()

    def reinit_locked(self, adapter):
        # The adapter combolock, acquired from user mode: a semaphore
        # (section 3.1.3).  Kernel-side users (the deferred watchdog)
        # see it held and defer rather than spin.
        with self.adapter_lock:
            self.bring_down(adapter)
            self.open_after_reinit(adapter)

    def open_after_reinit(self, adapter):
        self.bring_up(adapter)

    # -- management interface ----------------------------------------------------------------

    def set_multi(self, adapter):
        self.hw.rar_set(list(adapter.hw.mac_addr), 0)
        rctl = self.hw.read_reg(0x00100)
        self.hw.write_reg(0x00100, rctl | 0x00008000)  # BAM
        return 0

    def set_mac(self, adapter, addr):
        if len(addr) != 6:
            raise ConfigException("MAC must be 6 bytes")
        adapter.hw.mac_addr = list(addr)
        if self.hw is not None and self.hw.hw is not adapter.hw:
            # self.hw was bound to the twin marshaled at probe time;
            # later upcalls see fresh twins.  Without this sync the
            # reinit path (init_hw -> init_rx_addrs) re-programs the
            # stale pre-set_mac address into RAL0.
            self.hw.hw.mac_addr = list(addr)
        self.hw.rar_set(list(addr), 0)
        self.down.k_set_netdev_mac(bytes(addr))
        return 0

    def change_mtu(self, adapter, new_mtu, running=0):
        if new_mtu < 68 or new_mtu > 16110:
            raise ConfigException("MTU %d out of range" % new_mtu)
        adapter.hw.max_frame_size = new_mtu + 18
        self.down.k_set_netdev_mtu(new_mtu)
        if running:
            self.reinit_locked(adapter)
        return 0

    def tx_timeout(self, adapter):
        adapter.tx_timeout_count += 1
        self.reinit_locked(adapter)
        return 0

    # -- ethtool-style operations (moved to Java) ------------------------------------------------

    def get_drvinfo(self, adapter):
        return {
            "driver": "e1000",
            "version": "7.0.33-k2-decaf",
            "fw_version": "N/A",
        }

    def get_settings(self, adapter):
        return {
            "speed": adapter.link_speed,
            "duplex": adapter.link_duplex,
            "autoneg": adapter.hw.autoneg,
        }

    def set_settings(self, adapter, autoneg):
        adapter.hw.autoneg = 1 if autoneg else 0
        return 0

    def get_eeprom(self, adapter, offset, words):
        return self.hw.read_eeprom(offset, words)

    def set_eeprom(self, adapter, offset, data):
        self.hw.write_eeprom(offset, data)
        self.hw.update_eeprom_checksum()
        return 0

    def get_ringparam(self, adapter):
        return {
            "tx_pending": adapter.tx_ring.count,
            "rx_pending": adapter.rx_ring.count,
        }

    def set_pauseparam(self, adapter, rx_pause, tx_pause):
        if rx_pause and tx_pause:
            adapter.hw.fc = 3
        elif rx_pause:
            adapter.hw.fc = 1
        elif tx_pause:
            adapter.hw.fc = 2
        else:
            adapter.hw.fc = 0
        self.hw.force_mac_fc()
        return 0

    # -- power management: prime movable code, now fully at user level ----------------------------

    def suspend(self, adapter):
        """Converted e1000_suspend: runs entirely in the decaf driver."""
        running = self.down.k_netif_running()
        if running:
            self.bring_down(adapter)
        self.save_config_space(adapter)
        try:
            self.hw.power_down_phy()
        except E1000HWException:
            pass  # best-effort, as the original's unchecked call was
        self.down.k_pci_disable()
        return 0

    def resume(self, adapter):
        self.down.k_pci_enable(exc=ResourceException)
        self.restore_config_space(adapter)
        self.hw.power_up_phy()
        self.reset(adapter)
        running = self.down.k_netif_running()
        if running:
            self.bring_up(adapter)
        return 0

    def restore_config_space(self, adapter):
        if adapter.config_space is None:
            raise ConfigException("no saved config space to restore")
        for i, value in enumerate(adapter.config_space):
            self.down.k_write_config_dword((i * 4) % 256, value)

    # -- watchdog: runs in the decaf driver via deferred work (section 3.1.3) ---------------------

    def watchdog(self, adapter):
        self.watchdog_runs += 1
        with self.adapter_lock:
            return self._watchdog_body(adapter)

    def _watchdog_body(self, adapter):
        try:
            self.hw.check_for_link()
        except E1000HWException:
            return 0  # transient PHY trouble; retry on the next tick

        link_up = bool(self.hw.read_reg(0x00008) & 0x2)  # STATUS.LU
        carrier = self.down.k_carrier_ok()
        if link_up and not carrier:
            speed, duplex = self.hw.get_speed_and_duplex()
            adapter.link_speed = speed
            adapter.link_duplex = duplex
            self.down.k_carrier_on()
        elif not link_up and carrier:
            adapter.link_speed = 0
            adapter.link_duplex = 0
            self.down.k_carrier_off()
        return 0
