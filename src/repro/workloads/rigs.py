"""Test rigs: kernel + device + driver, native or decaf.

A rig is a :class:`repro.family.DeviceInstance` on a fresh kernel: one
simulated machine with one device and its driver.  ``decaf=True``
loads the split driver; ``decaf=False`` the legacy kernel-only driver.
The builders below keep the per-family keyword arguments; the device
and module glue lives in :mod:`repro.family`.
"""

from ..family import FAMILIES, DeviceInstance as Rig  # noqa: F401


def make_8139too_rig(decaf=False, irq_mode="napi", nr_cpus=1,
                     rx_coalesce_ns=0, health=False):
    """``irq_mode="napi"`` (default) polls RX under a softirq budget;
    ``irq_mode="irq"`` keeps the seed per-packet interrupt path.
    ``rx_coalesce_ns`` opens the device's interrupt-coalescing window."""
    return FAMILIES["8139too"].rig(decaf, nr_cpus, health, irq_mode=irq_mode,
                                   rx_coalesce_ns=rx_coalesce_ns)


def make_e1000_rig(decaf=False, options=None, irq_mode="napi", nr_cpus=1,
                   num_queues=1, rx_pending_cap=256, health=False):
    """``irq_mode="napi"`` (default) polls RX under a softirq budget;
    ``irq_mode="irq"`` keeps the seed per-packet interrupt path and
    disables the device's ITR window so every cause fires an IRQ.
    ``num_queues`` > 1 enables the multi-queue datapath: the device
    RSS-steers flows across that many RX/TX queue pairs, and the driver
    runs one NAPI context per queue, spread across the ``nr_cpus``
    virtual CPUs by per-vector IRQ affinity."""
    return FAMILIES["e1000"].rig(decaf, nr_cpus, health, options=options,
                                 irq_mode=irq_mode, num_queues=num_queues,
                                 rx_pending_cap=rx_pending_cap)


def make_ens1371_rig(decaf=False, nr_cpus=1, health=False):
    return FAMILIES["ens1371"].rig(decaf, nr_cpus, health)


def make_uhci_rig(decaf=False, nr_cpus=1, health=False):
    return FAMILIES["uhci_hcd"].rig(decaf, nr_cpus, health)


def make_psmouse_rig(decaf=False, nr_cpus=1, health=False):
    return FAMILIES["psmouse"].rig(decaf, nr_cpus, health)
