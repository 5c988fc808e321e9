"""Per-slot driver module cloning.

The drivers mirror their C originals: one module-level ``_state``
struct, one ``linux`` binding, free functions closing over both.  That
is faithful to a 2.6.18 driver -- and it makes every driver a
singleton, which a fleet kernel cannot live with.

Rather than rewrite five drivers into classes (and lose the
C-idiomatic shape the conversion tables measure), the fleet execs a
*fresh module namespace* per device slot from the driver's compiled
code object.  Code objects are compiled once and shared; each clone
pays only for its own function/class objects and module dict.  While a
clone set is being exec'd, ``sys.modules`` (and the parent package
attribute) temporarily point intra-family imports -- a decaf nucleus'
``from ..legacy import rtl8139 as legacy`` -- at the slot's private
legacy clone, then are restored, so the rest of the process never sees
the clones.

Each family names the modules holding per-instance driver state
(:meth:`repro.family.DeviceFamily.clone_set`): a module-level
``_state`` or a ``legacy`` binding that must resolve to the slot's
clone.  Stateless helpers (e1000_hw/param/ethtool, the decaf user
halves, plumbing, cstruct) are shared: their globals are constants,
classes and a ``linux`` handle every slot of one kernel binds
identically.

Freed clone sets are pooled per family: probe/remove/re-probe churn
reuses namespaces instead of growing the heap monotonically.
"""

import importlib
import sys
import types

from ..family import FAMILIES

_CODE_CACHE = {}


def _code_for(name):
    if name not in _CODE_CACHE:
        module = importlib.import_module(name)
        path = module.__file__
        with open(path) as fh:
            source = fh.read()
        _CODE_CACHE[name] = (compile(source, path, "exec"), path)
    return _CODE_CACHE[name]


def _reregister_original_structs(original):
    """Keep the global CStruct registry pointing at the originals.

    Exec'ing a clone re-runs its class statements, and CStructMeta
    registers every struct name globally (last writer wins).  Marshal
    plans and type ids are name-keyed, so which twin the registry holds
    never changes wire behaviour -- but process-global state should
    stay canonical once the clone exec is done.
    """
    from ..core.cstruct import CStruct, StructRegistry

    for value in vars(original).values():
        if (isinstance(value, type) and issubclass(value, CStruct)
                and value is not CStruct
                and getattr(value, "_fields", None)):
            StructRegistry.register(value)


def clone_module_set(names):
    """Exec fresh namespaces for ``names`` (dependency order).

    Returns {dotted name: module clone}.  Imports *between* members of
    the set resolve to the clones; everything else resolves normally.
    """
    clones = {}
    saved_modules = {}
    saved_attrs = {}
    # Import every original before any clone shadows it in sys.modules:
    # an original first imported inside the window below would bind its
    # intra-family imports to this slot's clones for good.
    codes = [_code_for(name) for name in names]
    try:
        for name, (code, path) in zip(names, codes):
            original = sys.modules[name]
            clone = types.ModuleType(name)
            clone.__package__ = original.__package__
            clone.__file__ = path
            pkg_name, _, attr = name.rpartition(".")
            package = sys.modules[pkg_name]
            if name not in saved_modules:
                saved_modules[name] = original
                saved_attrs[name] = getattr(package, attr)
            sys.modules[name] = clone
            setattr(package, attr, clone)
            exec(code, clone.__dict__)
            _reregister_original_structs(original)
            clones[name] = clone
    finally:
        for name, module in saved_modules.items():
            sys.modules[name] = module
        for name, value in saved_attrs.items():
            pkg_name, _, attr = name.rpartition(".")
            setattr(sys.modules[pkg_name], attr, value)
    return clones


class ClonePool:
    """Per-(family, decaf) free lists of clone sets.

    ``acquire`` hands out a pooled namespace set when one is free --
    re-probe churn then costs a ``_state.__init__()`` reset instead of
    a fresh exec -- and builds a new one otherwise.
    """

    def __init__(self):
        self._free = {}
        self.builds = 0
        self.reuses = 0

    def acquire(self, family, decaf):
        key = (family, bool(decaf))
        free = self._free.get(key)
        if free:
            self.reuses += 1
            return free.pop()
        self.builds += 1
        return clone_module_set(FAMILIES[family].clone_set(decaf))

    def release(self, family, decaf, clones):
        self._free.setdefault((family, bool(decaf)), []).append(clones)

    def stats(self):
        return {"builds": self.builds, "reuses": self.reuses,
                "pooled": sum(len(v) for v in self._free.values())}
