"""Marshal-plan codec caches stay bounded by the program's struct classes.

``slice_plan()`` keeps one :class:`MarshalPlan` per driver for the life
of the process, and its caches are keyed by struct class.  That is
bounded only because a fleet creates no struct classes: every slot's
module binds the one shared driver module, whose classes live as long
as the process.  These tests hold the class population and the plan
caches flat across fleets, and pin the invalidation rules on plain
plans.
"""

import gc

from repro.core import CStruct, FieldAccess, MarshalPlan, Struct, U32
from repro.core.cstruct import CStructMeta, StructRegistry
from repro.core.marshal import OP_EMBED, TO_KERNEL, TO_USER
from repro.drivers.decaf.plumbing import slice_plan
from repro.fleet import FleetHarness, FleetSpec

FLEETS = 4
DECAF_DRIVERS = ("e1000", "8139too", "ens1371", "uhci_hcd", "psmouse")


def _live_struct_classes():
    out, stack = [], [CStruct]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.FIELDS:
                out.append(sub)
    return out


def _cache_sizes():
    return {name: (len(slice_plan(name)._field_cache),
                   len(slice_plan(name)._op_cache),
                   len(slice_plan(name)._delta_cache))
            for name in DECAF_DRIVERS}


def _run_fleet():
    spec = FleetSpec(n_devices=10, decaf_fraction=0.5, duration_ms=12,
                     fault_period_ms=4, seed=5)
    harness = FleetHarness(spec)
    harness.build()
    harness.run()
    assert harness.faults_fired() > 0
    harness.teardown()


def test_fleet_creates_no_struct_classes_and_plan_caches_stay_flat():
    # The first fleet imports every driver; count from after it.
    _run_fleet()
    gc.collect()
    before = set(_live_struct_classes())
    sizes = [_cache_sizes()]
    for _ in range(FLEETS):
        _run_fleet()
        assert not set(_live_struct_classes()) - before
        sizes.append(_cache_sizes())
    assert all(s == sizes[0] for s in sizes), sizes


# -- plan-level rules ----------------------------------------------------------


class life_inner(CStruct):
    FIELDS = [("x", U32), ("y", U32)]


class life_outer(CStruct):
    FIELDS = [("a", U32), ("inner", Struct(life_inner)), ("b", U32)]


def _twin(original, fields=None):
    """A same-named class, the way a patched driver struct is rebuilt
    (``repro.evolution.patches``); the registry keeps the original."""
    twin = CStructMeta(original.__name__, (CStruct,),
                       {"FIELDS": fields or original.FIELDS})
    StructRegistry.register(original)
    return twin


def _nested_class(ops):
    return [op[2] for op in ops if op[0] == OP_EMBED]


def test_clones_never_share_compiled_programs():
    inner_twin = _twin(life_inner)
    outer_twin = _twin(life_outer, [("a", U32),
                                    ("inner", Struct(inner_twin)),
                                    ("b", U32)])
    plan = MarshalPlan()
    ops = plan.compiled_ops_for(life_outer, TO_USER)
    twin_ops = plan.compiled_ops_for(outer_twin, TO_USER)
    assert ops is not twin_ops
    assert _nested_class(ops) == [life_inner]
    assert _nested_class(twin_ops) == [inner_twin]


def test_set_access_and_pin_invalidate_cached_entries():
    plan = MarshalPlan()
    twin = _twin(life_inner)
    for cls in (life_inner, twin):
        assert [f.name for f in plan.fields_for(cls, TO_KERNEL)] == \
            ["x", "y"]

    plan.set_access("life_inner", FieldAccess(reads={"x", "y"},
                                              writes={"y"}))
    for cls in (life_inner, twin):
        assert [f.name for f in plan.fields_for(cls, TO_USER)] == \
            ["x", "y"]
        assert [f.name for f in plan.fields_for(cls, TO_KERNEL)] == ["y"]

    for cls in (life_inner, twin):
        assert [entry[1] for entry in
                plan.delta_program_for(cls, TO_KERNEL)] == ["y"]

    plan.pin("life_inner", "y")
    for cls in (life_inner, twin):
        assert plan.fields_for(cls, TO_KERNEL) == ()
        assert plan.compiled_ops_for(cls, TO_KERNEL) == ()
        assert plan.delta_program_for(cls, TO_KERNEL) == ()
        assert [f.name for f in plan.fields_for(cls, TO_USER)] == \
            ["x", "y"]
