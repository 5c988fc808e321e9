"""Property-based round-trip tests for every registered CStruct codec.

Two properties over randomized instances of every struct the legacy
drivers register:

* **Byte identity**: encode -> decode -> encode reproduces the original
  wire bytes exactly.  The re-encode runs against a tracker-backed
  context (like the XPC channel's user side), so the decoded twin
  translates back to the identity it arrived under -- the ``xlate_j_to_c``
  direction of Fig. 2.

* **Delta reconstruction**: decoding a twin, marking it clean, dirtying
  a random subset of scalar/string fields, and delta-marshaling it back
  into the original object leaves the two graphs equal -- the delta wire
  carries enough to reconstruct the mutation, and nothing it carries
  corrupts the rest.

A second family of properties runs over hypothesis-generated layouts
holding every field kind the compiled codec has a typed op for (scalar
runs with sub-word clamps, null, opaque, exp, ref, embedded, string and
inline array): the compiled op programs and the per-field oracle
(:mod:`tests.core.marshal_oracle`) must agree byte for byte on full and
delta wires and decode to identical graphs.

Randomness is seed-driven (hypothesis supplies the seed) so failures
shrink to a small integer and replay deterministically.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Importing the legacy driver modules registers their structs.
import repro.drivers.legacy.e1000_main  # noqa: F401
import repro.drivers.legacy.ens1371  # noqa: F401
import repro.drivers.legacy.psmouse  # noqa: F401
import repro.drivers.legacy.rtl8139  # noqa: F401
import repro.drivers.legacy.uhci_hcd  # noqa: F401
from repro.core.cstruct import (
    I8,
    I16,
    I32,
    I64,
    U8,
    U16,
    U32,
    U64,
    Array,
    CStruct,
    CStructMeta,
    Exp,
    Null,
    Opaque,
    Ptr,
    Str,
    Struct,
    StructRegistry,
)
from repro.core.marshal import (
    FieldAccess,
    MarshalCodec,
    MarshalPlan,
    TO_KERNEL,
    TO_USER,
    TransferContext,
    TypeRegistry,
)
from tests.core.marshal_oracle import PerFieldCodec

STRUCTS = [cls for _, cls in sorted(StructRegistry.all_structs().items())]
STRUCT_IDS = [cls.__name__ for cls in STRUCTS]

ALPHA = "abcdefghijklmnopqrstuvwxyz0123456789_"


def _is_ref_ptr(field):
    """Pointer field that marshals an object graph (not opaque/exp/null)."""
    return (
        isinstance(field.ctype, Ptr)
        and field.annotation(Opaque) is None
        and field.annotation(Exp) is None
        and field.annotation(Null) is None
    )


class EchoCtx(TransferContext):
    """The channel's tracker pair folded into one context.

    Decode remembers wire-identity -> twin; re-encoding the twin maps it
    back to the identity it arrived under, exactly how the user-side
    object tracker keeps kernel addresses canonical across round trips.
    """

    def __init__(self):
        self.by_identity = {}
        self.by_twin = {}

    def resolve(self, identity, struct_cls, type_id):
        obj = self.by_identity.get(identity)
        if obj is not None:
            return obj, False
        obj = struct_cls()
        self.by_identity[identity] = obj
        self.by_twin[id(obj)] = identity
        return obj, True

    def register(self, identity, struct_cls, type_id, obj):
        self.by_identity.setdefault(identity, obj)
        self.by_twin.setdefault(id(obj), identity)

    def identity_of(self, obj):
        return self.by_twin.get(id(obj), obj.c_addr)

    def handle_of(self, obj):
        if obj is None:
            return 0
        if isinstance(obj, int):
            return obj
        return id(obj)

    def object_of(self, handle):
        return handle


class GraphCtx(TransferContext):
    """Resolve wire identities against an existing object graph.

    The kernel tracker's address aliasing reduced to a dict: a delta
    decoded with this context lands in the original objects rather than
    allocating twins.
    """

    def __init__(self, roots):
        self.objects = {}
        self._visited = set()
        for root in roots:
            self._index(root)

    def _index(self, obj):
        # Visited by object, not address: an embedded first member
        # shares its parent's address (the parent keeps the entry) but
        # its own pointers still lead to further objects.
        if obj is None or id(obj) in self._visited:
            return
        self._visited.add(id(obj))
        self.objects.setdefault(obj.c_addr, obj)
        for field in obj.fields():
            if isinstance(field.ctype, Struct) or _is_ref_ptr(field):
                self._index(getattr(obj, field.name))

    def resolve(self, identity, struct_cls, type_id):
        return self.objects[identity], False

    def handle_of(self, obj):
        if obj is None:
            return 0
        if isinstance(obj, int):
            return obj
        return id(obj)

    def object_of(self, handle):
        return handle


def fill_random(obj, rng, depth=0):
    """Randomize every field of ``obj`` in place (recursing into graphs)."""
    for field in obj.fields():
        ct = field.ctype
        if isinstance(ct, Struct):
            fill_random(getattr(obj, field.name), rng, depth)
        elif isinstance(ct, Str):
            n = rng.randrange(ct.length + 1)
            setattr(
                obj, field.name,
                "".join(rng.choice(ALPHA) for _ in range(n)),
            )
        elif isinstance(ct, Array):
            setattr(
                obj, field.name,
                [ct.elem.clamp(rng.getrandbits(64)) for _ in range(ct.length)],
            )
        elif isinstance(ct, Ptr):
            if field.annotation(Null) is not None:
                setattr(obj, field.name, None)
            elif field.annotation(Opaque) is not None:
                setattr(obj, field.name, rng.getrandbits(32))
            elif field.annotation(Exp) is not None:
                if rng.random() < 0.3:
                    setattr(obj, field.name, None)
                else:
                    setattr(
                        obj, field.name,
                        [rng.getrandbits(32)
                         for _ in range(rng.randrange(4))],
                    )
            elif depth >= 2 or rng.random() < 0.5:
                setattr(obj, field.name, None)
            else:
                child = ct.resolve()()
                fill_random(child, rng, depth + 1)
                setattr(obj, field.name, child)
        else:
            setattr(obj, field.name, ct.clamp(rng.getrandbits(64)))


def clear_graph_dirty(obj, seen=None):
    if seen is None:
        seen = set()
    if obj is None or id(obj) in seen:
        return
    seen.add(id(obj))
    obj.clear_dirty()
    for field in obj.fields():
        if isinstance(field.ctype, Struct) or _is_ref_ptr(field):
            clear_graph_dirty(getattr(obj, field.name), seen)


def assert_graphs_equal(a, b, seen=None):
    if seen is None:
        seen = set()
    assert (a is None) == (b is None)
    if a is None or (id(a), id(b)) in seen:
        return
    seen.add((id(a), id(b)))
    assert type(a) is type(b)
    for field in a.fields():
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(field.ctype, Struct) or _is_ref_ptr(field):
            assert_graphs_equal(va, vb, seen)
        elif (isinstance(field.ctype, Ptr)
                and field.annotation(Null) is not None):
            pass  # dropped at the boundary by design
        else:
            assert va == vb, "%s.%s: %r != %r" % (
                type(a).__name__, field.name, va, vb)


@pytest.mark.parametrize("codec_cls", [MarshalCodec, PerFieldCodec],
                         ids=["compiled", "interp"])
@pytest.mark.parametrize("struct_cls", STRUCTS, ids=STRUCT_IDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_encode_decode_encode_byte_identical(struct_cls, codec_cls, seed):
    rng = random.Random(seed)
    obj = struct_cls()
    fill_random(obj, rng)
    # An empty plan marshals every field in both directions, so the
    # property covers the full codec for each struct.
    codec = codec_cls(MarshalPlan())
    ctx = EchoCtx()
    wire1 = codec.encode(obj, struct_cls, TO_USER, ctx=ctx)
    twin = codec.decode(wire1, struct_cls, TO_USER, ctx=ctx)
    wire2 = codec.encode(twin, struct_cls, TO_USER, ctx=ctx)
    assert bytes(wire2) == bytes(wire1)


@pytest.mark.parametrize("struct_cls", STRUCTS, ids=STRUCT_IDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_delta_of_random_dirty_subset_reconstructs(struct_cls, seed):
    rng = random.Random(seed)
    obj = struct_cls()
    fill_random(obj, rng)
    codec = MarshalCodec(MarshalPlan())
    echo = EchoCtx()
    wire = codec.encode(obj, struct_cls, TO_USER, ctx=echo)
    twin = codec.decode(wire, struct_cls, TO_USER, ctx=echo)

    # The channel marks twins clean after each transfer; mimic that,
    # then dirty a random subset of scalar/string fields.
    clear_graph_dirty(twin)
    mutable = [
        f for f in struct_cls.fields()
        if isinstance(f.ctype, Str)
        or not isinstance(f.ctype, (Struct, Ptr, Array, Str))
    ]
    subset = (rng.sample(mutable, rng.randrange(len(mutable) + 1))
              if mutable else [])
    for f in subset:
        if isinstance(f.ctype, Str):
            n = rng.randrange(f.ctype.length + 1)
            setattr(twin, f.name,
                    "".join(rng.choice(ALPHA) for _ in range(n)))
        else:
            setattr(twin, f.name, f.ctype.clamp(rng.getrandbits(64)))

    delta = codec.encode(twin, struct_cls, TO_USER, ctx=echo, delta=True)
    back = codec.decode(delta, struct_cls, TO_USER, ctx=GraphCtx([obj]),
                        delta=True)
    assert back is obj  # identity resolved to the original, not a twin
    assert_graphs_equal(obj, twin)


def test_registry_covers_all_five_drivers():
    """The parametrization above spans every driver family's structs."""
    names = set(STRUCT_IDS)
    assert {"e1000_adapter", "rtl8139_private", "ensoniq",
            "psmouse_struct", "uhci_hcd_state"} <= names
    assert len(names) >= 12


# -- every field kind, compiled vs the per-field oracle ----------------------

SCALARS = (U8, U16, U32, U64, I8, I16, I32, I64)
KINDS = ("scalar", "null", "opaque", "exp", "ref", "embed", "str", "array")
_layout_ids = iter(range(1 << 30))


def _field_spec(kind, index, draw, inner):
    name = "%s_%d" % (kind, index)
    if kind == "scalar":
        return (name, draw(st.sampled_from(SCALARS)))
    if kind == "null":
        return (name, Ptr(None), Null())
    if kind == "opaque":
        return (name, Ptr(None), Opaque())
    if kind == "exp":
        return (name, Ptr(U32), Exp("ETH_ALEN"))
    if kind == "ref":
        return (name, Ptr(None))
    if kind == "embed":
        return (name, Struct(inner))
    if kind == "str":
        return (name, Str(draw(st.integers(0, 9))))
    return (name, Array(draw(st.sampled_from(SCALARS)),
                        draw(st.integers(1, 5))))


@st.composite
def layouts(draw):
    """A (outer, inner) pair of fresh struct classes.

    ``outer`` holds every kind at least once, in drawn order (so the
    embedded struct is sometimes the first member, aliasing its parent's
    address); its pointers refer back to ``outer`` itself, so object
    graphs built on it have back-references and cycles.  ``inner`` is
    embedded and carries its own scalar run, string, opaque handle and
    reference to ``outer``.  Both classes are unregistered again by
    :func:`_unregister`.
    """
    uid = next(_layout_ids)
    inner_fields = [("i_a", draw(st.sampled_from(SCALARS))),
                    ("i_b", U8), ("i_label", Str(5)),
                    ("i_opq", Ptr(None), Opaque()),
                    ("i_back", Ptr(None))]
    inner = CStructMeta("kinds_inner_%d" % uid, (CStruct,),
                        {"FIELDS": inner_fields})
    kinds = list(draw(st.permutations(KINDS)))
    kinds += draw(st.lists(st.sampled_from(KINDS), max_size=6))
    kinds = draw(st.permutations(kinds))
    fields = [_field_spec(kind, i, draw, inner)
              for i, kind in enumerate(kinds)]
    outer = CStructMeta("kinds_outer_%d" % uid, (CStruct,),
                        {"FIELDS": fields})
    for cls in (inner, outer):
        for field in cls.fields():
            if isinstance(field.ctype, Ptr) and field.ctype.target is None:
                field.ctype.target = outer
    return outer, inner


def _unregister(*classes):
    for cls in classes:
        if StructRegistry._structs.get(cls.__name__) is cls:
            del StructRegistry._structs[cls.__name__]


def _scalar_value(ct, rng, wild):
    if wild and rng.random() < 0.2:
        # Out of range or missing: the encoder must clamp exactly as
        # the per-field oracle does.
        return rng.choice([None, -1, 1 << 70, rng.getrandbits(40)])
    return ct.clamp(rng.getrandbits(64))


def _exp_value(rng, wild):
    if wild and rng.random() < 0.2:
        return rng.choice([-1, 1 << 40, True])  # masked to a u32
    return rng.getrandbits(32)


def _fill(obj, nodes, rng, wild):
    for field in obj.fields():
        ct = field.ctype
        if isinstance(ct, Struct):
            _fill(getattr(obj, field.name), nodes, rng, wild)
        elif isinstance(ct, Str):
            setattr(obj, field.name, "".join(
                rng.choice(ALPHA) for _ in range(rng.randrange(ct.length + 1))))
        elif isinstance(ct, Array):
            n = rng.randrange(ct.length + 2)  # short, exact and long
            setattr(obj, field.name,
                    [_scalar_value(ct.elem, rng, False) for _ in range(n)])
        elif isinstance(ct, Ptr):
            if field.annotation(Null) is not None:
                setattr(obj, field.name, None)
            elif field.annotation(Opaque) is not None:
                setattr(obj, field.name, rng.getrandbits(48))
            elif field.annotation(Exp) is not None:
                setattr(obj, field.name, None if rng.random() < 0.25 else
                        [_exp_value(rng, wild)
                         for _ in range(rng.randrange(6))])
            else:
                setattr(obj, field.name, rng.choice(nodes + [None]))
        else:
            setattr(obj, field.name, _scalar_value(ct, rng, wild))


def _graph(outer, rng, wild=False):
    nodes = [outer() for _ in range(rng.randrange(1, 4))]
    for node in nodes:
        _fill(node, nodes, rng, wild)
    return nodes[0]


def _random_plan(outer, rng):
    plan = MarshalPlan()
    if rng.random() < 0.5:
        names = [f.name for f in outer.fields()]
        plan.set_access(outer.__name__, FieldAccess(
            reads=rng.sample(names, rng.randrange(len(names) + 1)),
            writes=rng.sample(names, rng.randrange(len(names) + 1))))
    return plan


def _codecs(plan):
    type_ids = TypeRegistry()
    return [MarshalCodec(plan, type_ids=type_ids),
            PerFieldCodec(plan, type_ids=type_ids)]


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), seed=st.integers(0, 2**32 - 1),
       direction=st.sampled_from([TO_USER, TO_KERNEL]))
def test_all_kinds_compiled_matches_baseline_full(layout, seed, direction):
    outer, inner = layout
    try:
        rng = random.Random(seed)
        root = _graph(outer, rng, wild=True)
        compiled, baseline = _codecs(_random_plan(outer, rng))
        wires = [codec.encode(root, outer, direction, ctx=EchoCtx())
                 for codec in (compiled, baseline)]
        assert wires[0] == wires[1]
        twins = [codec.decode(wires[0], outer, direction)
                 for codec in (compiled, baseline)]
        assert_graphs_equal(twins[0], twins[1])
        assert [type(o) for o in compiled.last_decoded_objects] == \
            [type(o) for o in baseline.last_decoded_objects]
    finally:
        _unregister(outer, inner)


def _mutate(twin, rng):
    """Write a random subset of the twin graph's fields, the way a
    callee would between a forward transfer and its return trip."""
    nodes = []

    def collect(obj):
        if obj is None or any(obj is n for n in nodes):
            return
        nodes.append(obj)
        for field in obj.fields():
            if isinstance(field.ctype, Struct) or _is_ref_ptr(field):
                collect(getattr(obj, field.name))

    collect(twin)
    for obj in nodes:
        for field in obj.fields():
            if rng.random() < 0.6:
                continue
            ct = field.ctype
            if isinstance(ct, Struct):
                continue  # reached through collect()
            if isinstance(ct, Str):
                setattr(obj, field.name, "".join(
                    rng.choice(ALPHA) for _ in range(ct.length)))
            elif isinstance(ct, Array):
                # In place: no attribute write is observed.
                getattr(obj, field.name)[0] = ct.elem.clamp(
                    rng.getrandbits(64))
            elif isinstance(ct, Ptr):
                if field.annotation(Opaque) is not None:
                    setattr(obj, field.name, rng.getrandbits(32))
                elif field.annotation(Exp) is not None:
                    setattr(obj, field.name, [rng.getrandbits(32)])
                elif field.annotation(Null) is None:
                    target = rng.choice(nodes + [None])
                    if target is None or isinstance(target, ct.resolve()):
                        setattr(obj, field.name, target)
            else:
                setattr(obj, field.name, ct.clamp(rng.getrandbits(64)))


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), seed=st.integers(0, 2**32 - 1))
def test_all_kinds_delta_matches_baseline_and_reconstructs(layout, seed):
    outer, inner = layout
    try:
        rng = random.Random(seed)
        root = _graph(outer, rng)
        compiled, baseline = _codecs(MarshalPlan())
        echo = EchoCtx()
        twin = compiled.decode(
            compiled.encode(root, outer, TO_USER, ctx=echo), outer, TO_USER,
            ctx=echo)
        clear_graph_dirty(twin)
        _mutate(twin, rng)
        deltas = [codec.encode(twin, outer, TO_USER, ctx=echo, delta=True)
                  for codec in (compiled, baseline)]
        assert deltas[0] == deltas[1]
        back = [codec.decode(deltas[0], outer, TO_USER,
                             ctx=GraphCtx([root]), delta=True)
                for codec in (compiled, baseline)]
        assert back[0] is root and back[1] is root
        assert_graphs_equal(root, twin)
    finally:
        _unregister(outer, inner)
