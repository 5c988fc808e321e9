"""8139too decaf driver: the user-level half, in managed style.

The functions DriverSlicer moved out of the kernel, rewritten the way
the paper's case study rewrites E1000 code: a class instead of free
functions, checked exceptions instead of integer error codes, and
cleanup expressed with nested handlers (Figure 4) instead of goto
chains.  Hardware is touched only through the decaf runtime's helper
routines; kernel-only operations go through ``down``, the downcall
stubs for the kernel entry points.
"""

from .exceptions import (
    ConfigException,
    DriverException,
    HardwareException,
    ResourceException,
)

# Register constants are part of the driver headers, shared by both
# halves of the split (the paper's split keeps definitions in both
# source trees).
from ..legacy.rtl8139 import (
    BMSR,
    CONFIG1,
    CR,
    IDR0,
    IMR,
    MSR,
    MSR_LINKB,
)


class Rtl8139DecafDriver:
    """User-level 8139too logic."""

    def __init__(self, rt, down):
        self.rt = rt          # decaf runtime (helpers: port I/O, sleep)
        self.down = down      # downcall stubs: the kernel entry points
        self.have_thread = False

    # -- probe: converted from rtl8139_init_one ---------------------------------

    def init_one(self, tp):
        """Bring up the board.  Raises on failure (Fig. 4 style)."""
        tp.msg_enable = 7
        tp.tx_flag = 0

        self.down.k_init_board(tp, exc=HardwareException)
        try:
            self.down.k_read_mac(tp, exc=HardwareException)
            try:
                self.down.k_register_netdev(tp, exc=ResourceException)
            except DriverException:
                raise
        except DriverException:
            self.down.k_unregister_netdev()
            raise
        return 0

    def remove_one(self):
        self.down.k_unregister_netdev()
        return 0

    # -- open/close: converted from rtl8139_open / rtl8139_close ------------------

    def open(self, tp):
        self.down.k_request_irq(tp, exc=ResourceException)
        try:
            self.down.k_alloc_rings(exc=ResourceException)
            try:
                tp.tx_flag = 0
                tp.cur_rx = 0
                tp.cur_tx = 0
                tp.dirty_tx = 0
                # The kernel arms the link watch as part of hw_start.
                self.down.k_hw_start(tp, exc=HardwareException)
                self.start_thread(tp)
            except DriverException:
                self.down.k_free_rings()
                raise
        except DriverException:
            self.down.k_free_irq(tp)
            raise
        return 0

    def close(self, tp):
        self.down.k_netif_stop()
        # Halt the chip before tearing anything down (as the legacy
        # close does): masked interrupts, rx/tx engines stopped --
        # otherwise the device can keep DMAing into freed rings.
        self.rt.outw(0, tp.ioaddr + IMR)
        self.rt.outb(0, tp.ioaddr + CR)
        self.stop_thread(tp)
        # ... and k_free_irq cancels the link watch.
        self.down.k_free_irq(tp)
        tp.cur_tx = 0
        tp.dirty_tx = 0
        self.down.k_free_rings()
        return 0

    # -- management: converted user-level functions ---------------------------------

    def set_mac_address(self, tp, addr):
        if len(addr) != 6:
            raise ConfigException("MAC address must be 6 bytes")
        for i, byte in enumerate(addr):
            self.rt.outb(byte, tp.ioaddr + IDR0 + i)
        tp.mac_addr = list(addr)
        return 0

    def get_media_status(self, tp):
        """Read link state directly from user level (mapped I/O)."""
        msr = self.rt.inb(tp.ioaddr + MSR)
        return 0 if msr & MSR_LINKB else 1

    def get_basic_mode_status(self, tp):
        return self.rt.inw(tp.ioaddr + BMSR)

    def read_config1(self, tp):
        return self.rt.inb(tp.ioaddr + CONFIG1)

    # -- the link-watch thread body (runs at user level via deferred work) -----------

    def thread(self, tp):
        """Converted rtl8139_thread: media check every two seconds."""
        if not self.have_thread:
            return 0
        self.down.k_check_media(tp)
        return 0

    def start_thread(self, tp):
        self.have_thread = True
        tp.have_thread = 1

    def stop_thread(self, tp):
        self.have_thread = False
        tp.have_thread = 0
