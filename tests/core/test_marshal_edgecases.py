"""Marshaling edge cases: backrefs, dedup, registries, compiled codecs.

Exercises the corners of the fast path: circular and diamond-shaped
graphs (TAG_BACKREF), shared-seen deduplication across the parameters
of one call, type-registry scoping, plan caching, and byte-identity of
the compiled codec against the uncached per-field baseline.
"""

from repro.core import (
    CStruct,
    FieldAccess,
    I32,
    MarshalCodec,
    MarshalPlan,
    Opaque,
    Ptr,
    Str,
    Struct,
    TypeRegistry,
    U8,
    U16,
    U32,
    U64,
)
from repro.core.cstruct import Array, Exp
from repro.core.marshal import (
    OP_ARRAY,
    OP_EMBED,
    OP_EXP,
    OP_OPAQUE,
    OP_PACK,
    OP_REF,
    OP_STR,
    TO_KERNEL,
    TO_USER,
    compile_field_ops,
    pack_format_for,
)


class me_node(CStruct):
    FIELDS = [("value", I32), ("next", Ptr("me_node"))]


class me_pair(CStruct):
    FIELDS = [("left", Ptr(me_node)), ("right", Ptr(me_node)), ("tag", U32)]


class me_inner(CStruct):
    FIELDS = [("count", U32)]


class me_rich(CStruct):
    FIELDS = [
        ("a", U32),
        ("b", I32),
        ("c", U8),
        ("d", U16),
        ("wide", U64),
        ("label", Str(12)),
        ("arr", Array(U16, 4)),
        ("inner", Struct(me_inner)),
        ("node", Ptr(me_node)),
        ("secret", Ptr("me_rich"), Opaque()),
        ("exp_arr", Ptr(U32), Exp("ETH_ALEN")),
    ]


def _registry_codec(plan=None, compiled=True):
    return MarshalCodec(plan, type_ids=TypeRegistry(), compiled=compiled)


class TestBackrefs:
    def test_circular_list_of_three(self):
        a, b, c = me_node(value=1), me_node(value=2), me_node(value=3)
        a.next, b.next, c.next = b, c, a
        codec = _registry_codec()
        out = codec.decode(codec.encode(a, me_node, TO_USER),
                           me_node, TO_USER)
        assert out.next.value == 2
        assert out.next.next.value == 3
        assert out.next.next.next is out      # closed the cycle
        assert codec.backrefs == 1

    def test_diamond_within_one_argument(self):
        shared = me_node(value=7)
        p = me_pair(left=shared, right=shared, tag=1)
        codec = _registry_codec()
        out = codec.decode(codec.encode(p, me_pair, TO_USER),
                           me_pair, TO_USER)
        assert out.left is out.right
        assert codec.backrefs == 1

    def test_same_struct_passed_twice_dedups(self):
        """encode_args shares the seen-table: the second occurrence of
        the same object is one backref, not a second copy."""
        obj = me_rich(a=1, wide=2, label="dup")
        codec = _registry_codec()
        twice, _n2 = codec.encode_args(
            [(obj, me_rich), (obj, me_rich)], TO_USER
        )
        once, _n1 = codec.encode_args([(obj, me_rich)], TO_USER)
        # The duplicate costs tag + index, not another payload.
        assert len(twice) == len(once) + 8
        out1, out2 = codec.decode_args(twice, [me_rich, me_rich], TO_USER)
        assert out1 is out2

    def test_backref_shared_across_different_parameters(self):
        shared = me_node(value=9)
        p1 = me_pair(left=shared, tag=1)
        p2 = me_pair(right=shared, tag=2)
        codec = _registry_codec()
        data, _n = codec.encode_args([(p1, me_pair), (p2, me_pair)], TO_USER)
        out1, out2 = codec.decode_args(data, [me_pair, me_pair], TO_USER)
        assert out1.left is out2.right


class TestTypeRegistry:
    def test_registries_are_independent(self):
        r1, r2 = TypeRegistry(), TypeRegistry()
        assert r1.id_of(me_node) == 1
        assert r2.id_of(me_pair) == 1   # numbering restarts per registry
        assert r1.id_of(me_pair) == 2
        assert r1.struct_for(2) is me_pair
        assert r2.struct_for(1) is me_pair

    def test_reset(self):
        reg = TypeRegistry()
        reg.id_of(me_node)
        reg.id_of(me_pair)
        assert len(reg) == 2
        reg.reset()
        assert len(reg) == 0
        assert reg.id_of(me_pair) == 1

    def test_channel_owns_private_registry(self, kernel):
        from repro.core import DomainManager, Xpc, XpcChannel

        ch1 = XpcChannel(Xpc(kernel), DomainManager())
        ch2 = XpcChannel(Xpc(kernel), DomainManager())
        assert ch1.type_ids is not ch2.type_ids
        assert ch1.codec.type_ids is ch1.type_ids
        # Different registration orders cannot collide across channels.
        assert ch1.type_ids.id_of(me_node) == 1
        assert ch2.type_ids.id_of(me_pair) == 1


class TestPlanCache:
    def test_cached_matches_uncached(self):
        plan = MarshalPlan()
        plan.set_access("me_rich", FieldAccess(reads={"a", "label"},
                                               writes={"b"}))
        for direction in (TO_USER, TO_KERNEL):
            cached = plan.fields_for(me_rich, direction)
            uncached = plan.uncached_fields_for(me_rich, direction)
            assert [f.name for f in cached] == [f.name for f in uncached]

    def test_fields_for_is_cached(self):
        plan = MarshalPlan()
        assert plan.fields_for(me_rich, TO_USER) is \
            plan.fields_for(me_rich, TO_USER)
        assert plan.compiled_ops_for(me_rich, TO_USER) is \
            plan.compiled_ops_for(me_rich, TO_USER)

    def test_set_access_invalidates_cache(self):
        plan = MarshalPlan()
        assert len(plan.fields_for(me_rich, TO_USER)) == len(me_rich.fields())
        plan.set_access("me_rich", FieldAccess(reads={"a"}))
        assert [f.name for f in plan.fields_for(me_rich, TO_USER)] == ["a"]
        ops = plan.compiled_ops_for(me_rich, TO_USER)
        assert len(ops) == 1 and ops[0][0] == OP_PACK


class TestCompiledOps:
    def test_scalar_runs_collapse(self):
        ops = compile_field_ops(me_rich.fields())
        # a,b,c,d,wide form one packed run; the rest are typed ops.
        assert ops[0][0] == OP_PACK
        assert ops[0][1] == ("a", "b", "c", "d", "wide")
        # Encode packs the u8/u16 slots zero-extended; decode reads only
        # their low bytes (the clamp).  Same wire as "<IiIIQ".
        assert ops[0][3].format == "<IiB3xH2xQ"
        assert ops[0][4].format == "<IiB3xH2xQ"
        assert [(op[0], op[1]) for op in ops[1:]] == [
            (OP_STR, "label"), (OP_ARRAY, "arr"), (OP_EMBED, "inner"),
            (OP_REF, "node"), (OP_OPAQUE, "secret"), (OP_EXP, "exp_arr"),
        ]

    def test_pack_format_report(self):
        assert pack_format_for(me_rich.fields()) == "<IiIIQ"

    def test_compiled_and_baseline_wire_identical(self):
        obj = me_rich(a=1, b=-2, c=250, d=40000, wide=2**50,
                      label="bytes", arr=[1, 2, 3, 4], exp_arr=[5, 6])
        obj.inner.count = 3
        obj.node = me_node(value=4, next=me_node(value=5))
        for accesses in (
            None,
            FieldAccess(reads={"a", "wide", "inner", "node"},
                        writes={"b", "label"}),
        ):
            plan = MarshalPlan()
            if accesses is not None:
                plan.set_access("me_rich", accesses)
            registry = TypeRegistry()
            fast = MarshalCodec(plan, type_ids=registry)
            slow = MarshalCodec(plan, type_ids=registry, compiled=False)
            for direction in (TO_USER, TO_KERNEL):
                assert fast.encode(obj, me_rich, direction) == \
                    slow.encode(obj, me_rich, direction), direction

    def test_baseline_decodes_compiled_bytes(self):
        obj = me_rich(a=9, b=-9, wide=77, label="x")
        registry = TypeRegistry()
        fast = MarshalCodec(type_ids=registry)
        slow = MarshalCodec(type_ids=registry, compiled=False)
        out = slow.decode(fast.encode(obj, me_rich, TO_USER),
                          me_rich, TO_USER)
        assert (out.a, out.b, out.wide, out.label) == (9, -9, 77, "x")

    def test_encode_args_field_count_is_per_call(self):
        """The (data, nfields) pair counts this call only -- repeated
        calls return the same count, not a running total."""
        obj = me_rich(a=1)
        codec = _registry_codec()
        _d1, n1 = codec.encode_args([(obj, me_rich)], TO_USER)
        _d2, n2 = codec.encode_args([(obj, me_rich)], TO_USER)
        assert n1 == n2 > 0
        assert codec.fields_marshaled == n1 + n2  # lifetime stat still grows
