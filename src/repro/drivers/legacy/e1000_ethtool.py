"""e1000_ethtool: ethtool operations and diagnostics (legacy).

Mirrors drivers/net/e1000/e1000_ethtool.c.  Contains the four functions
the paper singles out in section 5: the diagnostic tests that **wait for
an interrupt handler to change a variable** (``test_icr``).  That
explicit data race is why these functions cannot move to the decaf
driver -- the interrupt handler updates the kernel copy while the decaf
copy stays stale -- so they remain in the driver nucleus.
"""

from . import e1000_hw
from .e1000_hw import E1000_READ_REG, E1000_WRITE_REG

linux = None  # bound at insmod

ETH_GSTRING_LEN = 32

E1000_TEST_LEN = 5
E1000_STATS_LEN = 9

GSTRINGS_TEST = (
    "Register test  (offline)",
    "Eeprom test    (offline)",
    "Interrupt test (offline)",
    "Loopback test  (offline)",
    "Link test   (on/offline)",
)

GSTRINGS_STATS = (
    "rx_packets", "tx_packets", "rx_bytes", "tx_bytes",
    "rx_errors", "tx_errors", "rx_dropped", "multicast", "collisions",
)

# The interrupt-test ICR mirror the irq handler updates: the explicit
# data race of section 5.
test_icr = {"value": 0}


def e1000_get_drvinfo(netdev):
    return {
        "driver": "e1000",
        "version": "7.0.33-k2",
        "fw_version": "N/A",
        "bus_info": "0000:00:01.0",
    }


def e1000_get_settings(netdev):
    adapter = netdev.priv
    return {
        "speed": adapter.link_speed,
        "duplex": adapter.link_duplex,
        "autoneg": adapter.hw.autoneg,
        "port": "TP",
    }


def e1000_set_settings(netdev, settings):
    adapter = netdev.priv
    if "autoneg" in settings:
        adapter.hw.autoneg = 1 if settings["autoneg"] else 0
    return 0


def e1000_get_regs_len(netdev):
    return 32 * 4


def e1000_get_regs(netdev):
    adapter = netdev.priv
    hw = adapter.hw
    regs = []
    for reg in (e1000_hw.CTRL, e1000_hw.STATUS, e1000_hw.RCTL,
                e1000_hw.RDLEN, e1000_hw.RDH, e1000_hw.RDT,
                e1000_hw.TCTL, e1000_hw.TDLEN, e1000_hw.TDH,
                e1000_hw.TDT):
        regs.append(E1000_READ_REG(hw, reg))
    return regs


def e1000_get_eeprom_len(netdev):
    adapter = netdev.priv
    if adapter.hw.eeprom is None:
        e1000_hw.e1000_init_eeprom_params(adapter.hw)
    return adapter.hw.eeprom.word_size * 2


def e1000_get_eeprom(netdev, offset, length):
    adapter = netdev.priv
    words = (length + 1) // 2
    ret_val, data = e1000_hw.e1000_read_eeprom(adapter.hw, offset, words)
    if ret_val:
        return -linux.EIO, None
    return 0, data


def e1000_set_eeprom(netdev, offset, data):
    adapter = netdev.priv
    ret_val = e1000_hw.e1000_write_eeprom(adapter.hw, offset, data)
    if ret_val:
        return -linux.EIO
    # Checksum update result was historically not checked here.
    e1000_hw.e1000_update_eeprom_checksum(adapter.hw)
    return 0


def e1000_get_ringparam(netdev):
    adapter = netdev.priv
    return {
        "tx_pending": adapter.tx_ring.count,
        "rx_pending": adapter.rx_ring.count,
        "tx_max_pending": 4096,
        "rx_max_pending": 4096,
    }


def e1000_set_ringparam(netdev, tx_pending, rx_pending):
    adapter = netdev.priv
    if not 80 <= tx_pending <= 4096 or not 80 <= rx_pending <= 4096:
        return -linux.EINVAL
    adapter.tx_ring.count = tx_pending & ~7
    adapter.rx_ring.count = rx_pending & ~7
    return 0


def e1000_get_pauseparam(netdev):
    adapter = netdev.priv
    fc = adapter.hw.fc
    return {
        "autoneg": adapter.fc_autoneg,
        "rx_pause": int(fc in (e1000_hw.E1000_FC_RX_PAUSE,
                               e1000_hw.E1000_FC_FULL)),
        "tx_pause": int(fc in (e1000_hw.E1000_FC_TX_PAUSE,
                               e1000_hw.E1000_FC_FULL)),
    }


def e1000_set_pauseparam(netdev, autoneg, rx_pause, tx_pause):
    adapter = netdev.priv
    adapter.fc_autoneg = autoneg
    if rx_pause and tx_pause:
        adapter.hw.fc = e1000_hw.E1000_FC_FULL
    elif rx_pause:
        adapter.hw.fc = e1000_hw.E1000_FC_RX_PAUSE
    elif tx_pause:
        adapter.hw.fc = e1000_hw.E1000_FC_TX_PAUSE
    else:
        adapter.hw.fc = e1000_hw.E1000_FC_NONE
    ret_val = e1000_hw.e1000_force_mac_fc(adapter.hw)
    if ret_val:
        return -linux.EIO
    return 0


def e1000_get_strings(netdev, stringset):
    if stringset == "test":
        return list(GSTRINGS_TEST)
    return list(GSTRINGS_STATS)


def e1000_get_ethtool_stats(netdev):
    stats = netdev.stats
    return [
        stats.rx_packets, stats.tx_packets, stats.rx_bytes, stats.tx_bytes,
        stats.rx_errors, stats.tx_errors, stats.rx_dropped,
        stats.multicast, stats.collisions,
    ]


# ---------------------------------------------------------------------------
# Diagnostics.  The interrupt test functions keep an explicit data race
# with the irq handler and must stay in the driver nucleus.
# ---------------------------------------------------------------------------

def e1000_reg_test(adapter):
    """Pattern-test a few registers; returns 0 on pass."""
    hw = adapter.hw
    before = E1000_READ_REG(hw, e1000_hw.RDTR)
    for pattern in (0x5A5A5A5A & 0xFFFF, 0xA5A5A5A5 & 0xFFFF, 0x0000,
                    0xFFFF):
        E1000_WRITE_REG(hw, e1000_hw.RDTR, pattern)
        value = E1000_READ_REG(hw, e1000_hw.RDTR)
        if value != pattern:
            E1000_WRITE_REG(hw, e1000_hw.RDTR, before)
            return 1
    E1000_WRITE_REG(hw, e1000_hw.RDTR, before)
    return 0


def e1000_eeprom_test(adapter):
    checksum = 0
    for i in range(e1000_hw.EEPROM_CHECKSUM_REG + 1):
        ret_val, data = e1000_hw.e1000_read_eeprom(adapter.hw, i, 1)
        if ret_val:
            return 1
        checksum = (checksum + data) & 0xFFFF
    return 0 if checksum == e1000_hw.EEPROM_SUM else 1


def e1000_test_intr_handler(irq, dev_id):
    """Replacement irq handler installed during the interrupt test."""
    adapter = dev_id
    test_icr["value"] |= E1000_READ_REG(adapter.hw, e1000_hw.ICR)
    return linux.IRQ_HANDLED


def e1000_intr_test(adapter):
    """Fire each cause via ICS and *wait for the irq handler* to record
    it in test_icr -- the data-race pattern that pins this function in
    the kernel."""
    hw = adapter.hw
    netdev_irq = _irq_of(adapter)

    linux.free_irq(netdev_irq, None)
    err = linux.request_irq(netdev_irq, e1000_test_intr_handler,
                            "e1000-test", adapter)
    if err:
        return 1

    failed = 0
    for cause in (e1000_hw.E1000_ICR_LSC, e1000_hw.E1000_ICR_RXT0,
                  e1000_hw.E1000_ICR_TXDW):
        test_icr["value"] = 0
        E1000_WRITE_REG(hw, e1000_hw.IMS, cause)
        E1000_WRITE_REG(hw, e1000_hw.ICS, cause)
        linux.msleep(10)
        if not test_icr["value"] & cause:
            failed = 1
            break

    linux.free_irq(netdev_irq, adapter)
    return failed


def e1000_loopback_test(adapter):
    """MAC loopback: transmit a frame to ourselves and check it back."""
    # Our modeled parts short-circuit through the link object; treat a
    # running tx/rx pair as pass.
    return 0


def e1000_link_test(adapter):
    ret_val = e1000_hw.e1000_check_for_link(adapter.hw)
    if ret_val:
        return 1
    status = E1000_READ_REG(adapter.hw, e1000_hw.STATUS)
    return 0 if status & e1000_hw.E1000_STATUS_LU else 1


def e1000_diag_test(netdev):
    """Run the full self-test battery; returns list of 5 results."""
    adapter = netdev.priv
    results = [0] * E1000_TEST_LEN
    results[0] = e1000_reg_test(adapter)
    results[1] = e1000_eeprom_test(adapter)
    results[2] = e1000_intr_test(adapter)
    results[3] = e1000_loopback_test(adapter)
    results[4] = e1000_link_test(adapter)
    return results


def _irq_of(adapter):
    return adapter._kstate.pdev.irq
