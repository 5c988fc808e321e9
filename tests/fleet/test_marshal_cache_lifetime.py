"""Marshal-plan codec caches must die with the clone classes they serve.

``slice_plan()`` keeps one :class:`MarshalPlan` per driver for the life
of the process, while every fleet slot execs its own clone of each
driver struct class.  A cache keyed by the class itself pinned every
fleet's clones (with their fields, ctypes, compiled op programs and
delta programs) forever.  Entries are now keyed by ``id(struct_cls)``
and evicted by a weak reference when the class is collected; these
tests hold the caches and the clone classes flat across fleets and pin
the eviction and invalidation rules on plain plans.
"""

import gc
import importlib
import weakref

from repro.core import CStruct, FieldAccess, MarshalPlan, Struct, U32
from repro.core.cstruct import CStructMeta, StructRegistry
from repro.core.marshal import OP_EMBED, TO_KERNEL, TO_USER
from repro.drivers.decaf.plumbing import slice_plan
from repro.family import FAMILIES
from repro.fleet import FleetHarness, FleetSpec

FLEETS = 4
DECAF_DRIVERS = ("e1000", "8139too", "ens1371", "uhci_hcd", "psmouse")


def _collect():
    # An evicted entry can hold the last reference to a nested clone
    # class, which then needs a further pass of the cycle collector.
    while gc.collect():
        pass


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


def _run_fleet(before):
    """Run one fleet and tear it down; weakrefs to its clone classes."""
    spec = FleetSpec(n_devices=10, decaf_fraction=0.5, duration_ms=12,
                     fault_period_ms=4, seed=5)
    harness = FleetHarness(spec)
    harness.build()
    harness.run()
    assert harness.faults_fired() > 0
    clones = [cls for cls in _live_struct_classes()
              if id(cls) not in before]
    registered = set(map(id, StructRegistry.all_structs().values()))
    assert not [cls for cls in clones if id(cls) in registered]
    refs = [weakref.ref(cls) for cls in clones]
    harness.teardown()
    return refs


def test_fleet_clone_classes_and_plan_caches_stay_flat():
    # Import every original a fleet clones, so that the snapshot holds
    # the originals and only the clones count as new.
    for family in FAMILIES.values():
        for decaf in (False, True):
            for name in family.clone_set(decaf):
                importlib.import_module(name)
    for name in DECAF_DRIVERS:
        slice_plan(name)
    _collect()
    before = {id(cls) for cls in _live_struct_classes()}

    sizes = []
    for _ in range(FLEETS):
        refs = _run_fleet(before)
        assert refs, "the fleet built no clone struct classes"
        _collect()
        # Every clone class dies with its fleet, the latest one too.
        # The shared helper modules keep the last kernel bound until
        # the next insmod rebinds them, but no clone class hangs off it.
        assert not [ref() for ref in refs if ref() is not None]
        sizes.append(_cache_sizes())
    assert all(s == sizes[0] for s in sizes), sizes


# -- plan-level rules ----------------------------------------------------------


class life_inner(CStruct):
    FIELDS = [("x", U32), ("y", U32)]


class life_outer(CStruct):
    FIELDS = [("a", U32), ("inner", Struct(life_inner)), ("b", U32)]


def _twin(original, fields=None):
    """A same-named clone of ``original``, the way a fleet slot's exec
    makes one; the registry keeps pointing at the original."""
    twin = CStructMeta(original.__name__, (CStruct,),
                       {"FIELDS": fields or original.FIELDS})
    StructRegistry.register(original)
    return twin


def _nested_class(ops):
    return [op[2] for op in ops if op[0] == OP_EMBED]


def test_entry_is_evicted_when_its_class_dies():
    plan = MarshalPlan()
    twin = _twin(life_inner)
    plan.compiled_ops_for(twin, TO_USER)
    plan.compiled_ops_for(twin, TO_KERNEL)
    plan.compiled_ops_for(life_inner, TO_USER)
    plan.delta_program_for(twin, TO_KERNEL)
    plan.delta_program_for(life_inner, TO_USER)
    assert len(plan._field_cache) == len(plan._op_cache) == 3
    assert len(plan._delta_cache) == 2
    # A plan made after the class was first cached is evicted too.
    late = MarshalPlan()
    late.fields_for(twin, TO_USER)
    del twin
    _collect()
    assert list(plan._field_cache) == [(id(life_inner), TO_USER)]
    assert list(plan._op_cache) == [(id(life_inner), TO_USER)]
    assert list(plan._delta_cache) == [(id(life_inner), TO_USER)]
    assert not late._field_cache


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


def test_set_access_and_pin_invalidate_id_keyed_entries():
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

    # Entries rebuilt after an invalidation still die with the class.
    del twin, cls
    _collect()
    assert {key[0] for key in plan._field_cache} == {id(life_inner)}
    assert {key[0] for key in plan._op_cache} == {id(life_inner)}
    assert {key[0] for key in plan._delta_cache} == {id(life_inner)}
