"""Per-driver slicing configuration.

The paper's DriverSlicer takes "type signatures for critical root
functions" as input; :class:`SliceConfig` is that input plus the small
amount of guidance our ast-based analysis needs (parameter-name type
hints for the field-access analysis, and the decaf-driver classes the
decaf-source analysis reads).

``DRIVER_CONFIGS`` holds the configuration for the five converted
drivers, including the reasons each root must stay in the kernel --
these feed the partition report.
"""


class SliceConfig:
    def __init__(self, name, module_names, critical_roots, root_reasons=None,
                 interface_ops=(), pinned_kernel=(), type_hints=None,
                 extra_access=(), kernel_owned=(), decaf_classes=()):
        self.name = name
        self.module_names = tuple(module_names)
        self.critical_roots = tuple(critical_roots)
        self.root_reasons = dict(root_reasons or {})
        self.interface_ops = tuple(interface_ops)
        self.pinned_kernel = tuple(pinned_kernel)
        self.type_hints = dict(type_hints or {})
        # DECAF_XVAR-style additions: (struct_name, field_name, "R"/"W"/"RW")
        self.extra_access = tuple(extra_access)
        # Kernel-owned resource handles: (struct_name, field_name) pairs
        # excluded from user->kernel marshaling even when the access
        # analysis sees a write (legacy probe code in the user slice).
        # A compromised user half must not be able to redirect the
        # kernel's MMIO/IO base, irq line, or DMA base.
        self.kernel_owned = tuple(kernel_owned)
        # Decaf-driver classes ("module.Class" under repro.drivers.decaf)
        # whose source the decaf analysis reads: fields only the managed
        # code touches are found there instead of via DECAF_XVAR marks.
        self.decaf_classes = tuple(decaf_classes)

    def load_modules(self):
        import importlib

        return [
            importlib.import_module("repro.drivers.legacy." + name)
            for name in self.module_names
        ]

    def load_decaf_classes(self):
        import importlib

        classes = []
        for path in self.decaf_classes:
            module_name, class_name = path.rsplit(".", 1)
            module = importlib.import_module(
                "repro.drivers.decaf." + module_name)
            classes.append(getattr(module, class_name))
        return classes


DRIVER_CONFIGS = {
    "8139too": SliceConfig(
        name="8139too",
        module_names=("rtl8139",),
        critical_roots=("rtl8139_interrupt", "rtl8139_start_xmit"),
        root_reasons={
            "rtl8139_interrupt": "interrupt handler (high priority)",
            "rtl8139_start_xmit": "data path (low latency, spinlock held)",
        },
        interface_ops=(
            "rtl8139_open", "rtl8139_close", "rtl8139_get_stats",
            "rtl8139_set_rx_mode", "rtl8139_set_mac_address",
            "rtl8139_init_one", "rtl8139_remove_one", "rtl8139_thread",
        ),
        type_hints={
            "tp": "rtl8139_private",
            "dev": None,  # opaque net_device
        },
        kernel_owned=(
            ("rtl8139_private", "ioaddr"),
            ("rtl8139_private", "irq"),
        ),
        decaf_classes=("rtl8139_decaf.Rtl8139DecafDriver",),
    ),
    "e1000": SliceConfig(
        name="e1000",
        module_names=("e1000_main", "e1000_hw", "e1000_param",
                      "e1000_ethtool"),
        critical_roots=("e1000_intr", "e1000_xmit_frame"),
        root_reasons={
            "e1000_intr": "interrupt handler (high priority)",
            "e1000_xmit_frame": "data path (low latency, spinlock held)",
        },
        interface_ops=(
            "e1000_probe", "e1000_remove", "e1000_open", "e1000_close",
            "e1000_set_multi", "e1000_set_mac", "e1000_change_mtu",
            "e1000_get_stats", "e1000_tx_timeout", "e1000_watchdog",
            "e1000_get_drvinfo", "e1000_get_settings", "e1000_set_settings",
            "e1000_get_regs", "e1000_get_eeprom", "e1000_set_eeprom",
            "e1000_get_ringparam", "e1000_set_ringparam",
            "e1000_get_pauseparam", "e1000_set_pauseparam",
            "e1000_get_strings", "e1000_get_ethtool_stats",
            "e1000_diag_test",
        ),
        # The four ethtool diag functions with the interrupt-handler data
        # race (section 5) and their helpers stay in the kernel.
        pinned_kernel=(
            "e1000_intr_test", "e1000_test_intr_handler",
            "e1000_reg_test", "e1000_loopback_test",
        ),
        type_hints={
            "adapter": "e1000_adapter",
            "hw": "e1000_hw",
            "tx_ring": "e1000_tx_ring",
            "rx_ring": "e1000_rx_ring",
            "phy_info": "e1000_phy_info",
            "eeprom": "e1000_eeprom_info",
        },
        kernel_owned=(
            ("e1000_hw", "hw_addr"),
        ),
        decaf_classes=("e1000_decaf.E1000DecafDriver",),
    ),
    "ens1371": SliceConfig(
        name="ens1371",
        module_names=("ens1371",),
        critical_roots=(
            "snd_ens1371_interrupt",
            # prepare/trigger/pointer are invoked by the sound library
            # under its lock -- a spinlock in the stock kernel.  With the
            # paper's mutex modification, prepare and trigger could move;
            # the stock configuration pins them.
            "snd_ens1371_playback_pointer",
        ),
        root_reasons={
            "snd_ens1371_interrupt": "interrupt handler (high priority)",
            "snd_ens1371_playback_pointer":
                "called from snd_pcm_period_elapsed in irq context",
        },
        interface_ops=(
            "snd_ens1371_probe", "snd_ens1371_remove",
            "snd_ens1371_playback_open", "snd_ens1371_playback_close",
            "snd_ens1371_playback_hw_params",
            "snd_ens1371_playback_prepare",
            "snd_ens1371_playback_trigger",
        ),
        type_hints={
            "ensoniq_": "ensoniq",
        },
        kernel_owned=(
            ("ensoniq", "port"),
            ("ensoniq", "irq"),
        ),
        decaf_classes=("ens1371_decaf.Ens1371DecafDriver",),
    ),
    "uhci_hcd": SliceConfig(
        name="uhci_hcd",
        module_names=("uhci_hcd",),
        critical_roots=(
            "uhci_irq", "uhci_urb_enqueue", "uhci_urb_dequeue",
        ),
        root_reasons={
            "uhci_irq": "interrupt handler (high priority)",
            "uhci_urb_enqueue": "data path; called with HCD lock held",
            "uhci_urb_dequeue": "data path; called with HCD lock held",
        },
        interface_ops=(
            "uhci_pci_probe", "uhci_pci_remove", "uhci_hub_status_data",
        ),
        type_hints={
            "uhci": "uhci_hcd_state",
        },
        kernel_owned=(
            ("uhci_hcd_state", "io_addr"),
            ("uhci_hcd_state", "irq"),
            ("uhci_hcd_state", "fl_dma"),
        ),
        decaf_classes=("uhci_decaf.UhciDecafDriver",),
    ),
    "psmouse": SliceConfig(
        name="psmouse",
        module_names=("psmouse",),
        critical_roots=("psmouse_interrupt",),
        root_reasons={
            "psmouse_interrupt": "serio byte handler (hardirq context)",
        },
        interface_ops=(
            "psmouse_connect", "psmouse_disconnect",
            "psmouse_extensions", "psmouse_initialize",
            "psmouse_activate", "psmouse_deactivate",
        ),
        type_hints={
            "psmouse": "psmouse_struct",
        },
        decaf_classes=("psmouse_decaf.PsmouseDecafDriver",),
    ),
}
