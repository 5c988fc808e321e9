"""E1000 evolution: the 2.6.18.1 -> 2.6.27 patch series (Table 4).

The paper applied all 320 E1000 patches between those kernels to the
split driver, in two batches (before/after 2.6.22), and classified the
changed lines: 4690 in the decaf driver, 381 in the driver nucleus, 23
touching the marshaled user/kernel interface.

We reproduce the *mechanics* with a synthetic patch series whose
distribution matches the real one (drawn deterministically from the
per-kernel-release E1000 changelog shape):

* most patches touch management logic that lives in the decaf driver;
* a few touch the interrupt/transmit path in the nucleus;
* a handful add or remove fields of shared structures -- and those are
  applied *for real*: the struct type is extended, a ``DECAF_XVAR``
  access is recorded, and the marshaling plan regenerated, verifying
  that the new field actually crosses the boundary afterwards (and did
  not before), which is the regeneration workflow of section 3.2.4.
"""

import importlib
import random
from dataclasses import dataclass, field

from ..core.cstruct import CStruct, U16, U32
from ..core.marshal import FieldAccess, MarshalPlan, TO_USER
from ..slicer.accessanalysis import build_marshal_plan


@dataclass
class Patch:
    number: int
    title: str
    target: str          # "decaf" | "nucleus" | "interface"
    lines_changed: int
    batch: int           # 1 = before 2.6.22, 2 = after
    new_field: tuple = None  # (struct_name, field_name, ctype, mode)


@dataclass
class EvolutionReport:
    patches_applied: int = 0
    decaf_lines: int = 0
    nucleus_lines: int = 0
    interface_lines: int = 0
    interface_patches: int = 0
    annotations_added: int = 0
    regenerations: int = 0
    new_fields: list = field(default_factory=list)

    def table4_rows(self):
        return {
            "Driver nucleus": self.nucleus_lines,
            "Decaf driver": self.decaf_lines,
            "User/kernel interface": self.interface_lines,
        }


# Real E1000 change themes between 2.6.18 and 2.6.27, used as titles.
_DECAF_THEMES = (
    "cleanup: use netdev_priv", "add 82571 watchdog tweak",
    "ethtool: report permanent address", "fix smartspeed logic",
    "rework set_multi filtering", "parameter validation cleanup",
    "update copyright and version strings", "led blink api update",
    "suspend/resume rework", "wake-on-lan configuration",
    "refactor phy info reporting", "eeprom dump formatting",
    "remove dead 82542 code", "consolidate reset paths",
    "mii ioctl support", "statistics accounting fixes",
)
_NUCLEUS_THEMES = (
    "tx ring: avoid unnecessary writeback", "irq: handle shared line",
    "fix rx ring wraparound", "xmit: drop oversized frames earlier",
    "interrupt moderation tuning",
)
_INTERFACE_FIELDS = (
    ("e1000_adapter", "rx_csum", "U32", "RW"),
    ("e1000_adapter", "wol", "U32", "RW"),
    ("e1000_adapter", "smart_power_down", "U16", "RW"),
    ("e1000_hw", "phy_spd_default", "U16", "R"),
    ("e1000_adapter", "tx_itr", "U32", "RW"),
    ("e1000_adapter", "rx_itr", "U32", "RW"),
    ("e1000_hw", "bus_type", "U16", "R"),
    ("e1000_adapter", "itr_setting", "U32", "RW"),
)

TOTAL_PATCHES = 320
TARGET_DECAF_LINES = 4690
TARGET_NUCLEUS_LINES = 381
TARGET_INTERFACE_LINES = 23


def build_e1000_patch_series(seed=2627):
    """Deterministically generate the 320-patch series."""
    rng = random.Random(seed)
    patches = []
    n_interface = len(_INTERFACE_FIELDS)
    n_nucleus = 28
    n_decaf = TOTAL_PATCHES - n_interface - n_nucleus

    # Interface patches: spread through the series.
    interface_positions = sorted(
        rng.sample(range(20, TOTAL_PATCHES - 5), n_interface)
    )
    nucleus_positions = set(
        rng.sample(
            [i for i in range(TOTAL_PATCHES) if i not in interface_positions],
            n_nucleus,
        )
    )

    decaf_budget = TARGET_DECAF_LINES
    nucleus_budget = TARGET_NUCLEUS_LINES
    decaf_remaining = n_decaf
    nucleus_remaining = n_nucleus
    iface_iter = iter(_INTERFACE_FIELDS)
    iface_pos = set(interface_positions)

    for i in range(TOTAL_PATCHES):
        batch = 1 if i < TOTAL_PATCHES // 2 else 2
        if i in iface_pos:
            struct_name, field_name, ctype, mode = next(iface_iter)
            lines = max(1, TARGET_INTERFACE_LINES // n_interface)
            patches.append(Patch(
                number=i + 1,
                title="add %s.%s" % (struct_name, field_name),
                target="interface",
                lines_changed=lines,
                batch=batch,
                new_field=(struct_name, field_name, ctype, mode),
            ))
        elif i in nucleus_positions:
            mean = nucleus_budget / max(1, nucleus_remaining)
            lines = max(1, int(rng.gauss(mean, mean / 3)))
            lines = min(lines, nucleus_budget - (nucleus_remaining - 1))
            nucleus_budget -= lines
            nucleus_remaining -= 1
            patches.append(Patch(
                number=i + 1,
                title=rng.choice(_NUCLEUS_THEMES),
                target="nucleus",
                lines_changed=lines,
                batch=batch,
            ))
        else:
            mean = decaf_budget / max(1, decaf_remaining)
            lines = max(1, int(rng.gauss(mean, mean / 2)))
            lines = min(lines, decaf_budget - (decaf_remaining - 1))
            decaf_budget -= lines
            decaf_remaining -= 1
            patches.append(Patch(
                number=i + 1,
                title=rng.choice(_DECAF_THEMES),
                target="decaf",
                lines_changed=lines,
                batch=batch,
            ))
    return patches


_CTYPES = {"U16": U16, "U32": U32}
_extended_counter = [0]


def extend_struct(struct_cls, field_name, ctype_name):
    """Apply an interface patch for real: a new struct version with the
    added field, as re-running DriverSlicer on the patched source
    produces.  Returns the new struct class."""
    _extended_counter[0] += 1
    fields = [(f.name, f.ctype) + f.annotations for f in struct_cls.fields()]
    fields.append((field_name, _CTYPES[ctype_name]))
    new_cls = type(
        "%s_v%d" % (struct_cls.__name__, _extended_counter[0]),
        (CStruct,),
        {"FIELDS": fields, "__module__": struct_cls.__module__},
    )
    return new_cls


def apply_patch_series(patches, base_plan_accesses=None, batches=(1, 2)):
    """Apply the series; returns (EvolutionReport, final MarshalPlan).

    Interface patches extend the real struct types and merge a
    DECAF_XVAR access into the marshaling plan, regenerating it --
    verifying each new field is marshaled afterwards.
    """
    from ..core.cstruct import StructRegistry
    from ..family import FAMILIES

    # The structs the series extends are the e1000 driver's; importing
    # it registers them, whatever the caller imported before.
    importlib.import_module(FAMILIES["e1000"].legacy)
    report = EvolutionReport()
    accesses = dict(base_plan_accesses or {})
    extra = []
    struct_versions = {}

    for patch in patches:
        if patch.batch not in batches:
            continue
        report.patches_applied += 1
        if patch.target == "decaf":
            report.decaf_lines += patch.lines_changed
        elif patch.target == "nucleus":
            report.nucleus_lines += patch.lines_changed
        else:
            report.interface_lines += patch.lines_changed
            report.interface_patches += 1
            struct_name, field_name, ctype_name, mode = patch.new_field
            base = struct_versions.get(struct_name,
                                       StructRegistry.get(struct_name))
            new_cls = extend_struct(base, field_name, ctype_name)
            struct_versions[struct_name] = new_cls
            extra.append((new_cls.__name__, field_name, mode))
            # Every pre-existing access set applies to the new version.
            for prior_struct, prior_field, prior_mode in list(extra):
                if prior_struct.startswith(struct_name):
                    extra.append((new_cls.__name__, prior_field, prior_mode))
            report.annotations_added += 1
            report.regenerations += 1
            report.new_fields.append((new_cls, field_name, mode))

    plan = build_marshal_plan(accesses, extra)
    return report, plan
