"""Hostile-payload regression tests for the marshaling boundary.

The wire a kernel-side decode consumes comes from the *user* half of a
split driver -- after a compromise, every word of it is attacker
-controlled (the adversarial-XPC mode in ``repro.explore.adversary``
replays exactly these corruptions live).  Each test here encodes a valid
payload, forges one aspect of it, and asserts the decoder fails with a
checked :class:`MarshalError` -- never an IndexError, struct.error, or a
multi-gigabyte allocation.  These fail if any of the bounds checks in
``repro.core.marshal`` are reverted.

The pinning tests cover the kernel-owned field defense: resource handles
(``e1000_hw.hw_addr`` etc.) are excluded from the user->kernel field
lists entirely, so a poisoned twin value cannot even be *addressed* on
the wire, full copy or delta.
"""

import pytest

from repro.core import (
    Array,
    CStruct,
    Exp,
    FieldAccess,
    MarshalCodec,
    MarshalError,
    Opaque,
    Ptr,
    Str,
    U8,
    U16,
    U32,
    U64,
)
from repro.core.marshal import (
    MarshalPlan,
    TAG_ARRAY,
    TAG_BACKREF,
    TAG_NULL,
    TAG_OBJ,
    TAG_OPAQUE,
    TO_KERNEL,
    TO_USER,
    XdrBuffer,
)

# Wire layout of a top-level object record (see marshal.py):
#   u32 tag, u64 identity, u32 type_id, payload...
_HDR = 4 + 8 + 4


class h_scalars(CStruct):
    FIELDS = [("a", U32), ("b", U64), ("c", U8)]


class h_str(CStruct):
    FIELDS = [("label", Str(16))]


class h_exp(CStruct):
    FIELDS = [("count", U32), ("vals", Ptr(U32), Exp("count"))]


class h_mix(CStruct):
    FIELDS = [
        ("a", U32),
        ("label", Str(8)),
        ("opq", Ptr("h_mix"), Opaque()),
        ("next", Ptr("h_mix")),
    ]


class h_opq(CStruct):
    FIELDS = [("opq", Ptr("h_opq"), Opaque())]


class h_arr(CStruct):
    FIELDS = [("arr", Array(U16, 3))]


def _encode(obj, cls, delta=False):
    codec = MarshalCodec(MarshalPlan())
    wire = bytes(codec.encode(obj, cls, TO_USER, delta=delta))
    return codec, wire


def _decoder(encoder, compiled):
    """A second codec sharing ``encoder``'s type ids, as the two ends of
    a channel do."""
    return MarshalCodec(MarshalPlan(), type_ids=encoder.type_ids,
                        compiled=compiled)


def _patch(wire, offset, word):
    buf = XdrBuffer()
    buf.put_u32(word)
    return wire[:offset] + bytes(buf.data) + wire[offset + 4:]


class TestTruncation:
    def test_every_truncation_is_a_checked_underrun(self):
        obj = h_mix(a=7, label="hey", opq=0x1234, next=h_mix(a=9))
        codec, wire = _encode(obj, h_mix)
        for cut in range(len(wire)):
            with pytest.raises(MarshalError):
                codec.decode(wire[:cut], h_mix, TO_USER)

    def test_cut_object_header_keeps_the_word_by_word_message(self):
        # Every object record's u64 identity + u32 type id header, cut
        # anywhere inside: the error names the word that ran short.
        inner = h_mix(a=9)
        codec, wire = _encode(h_mix(a=7, label="hey", next=inner), h_mix)
        inner_len = len(codec.encode(inner, h_mix, TO_USER))
        for start in (0, len(wire) - inner_len):
            assert wire[start:start + 4] == TAG_OBJ.to_bytes(4, "little")
            for cut in range(start + 4, start + _HDR):
                if cut < start + 12:
                    need, at = 8, start + 4
                else:
                    need, at = 4, start + 12
                with pytest.raises(MarshalError) as info:
                    codec.decode(wire[:cut], h_mix, TO_USER)
                assert str(info.value) == (
                    "wire underrun: need %d bytes at offset %d of %d"
                    % (need, at, cut))

    def test_every_truncation_of_a_delta_is_a_checked_underrun(self):
        obj = h_mix(a=7, label="hey", next=h_mix(a=9))
        codec, wire = _encode(obj, h_mix, delta=True)
        for cut in range(len(wire)):
            with pytest.raises(MarshalError, match="wire underrun"):
                codec.decode(wire[:cut], h_mix, TO_USER, delta=True)

    def test_empty_wire(self):
        codec = MarshalCodec(MarshalPlan())
        with pytest.raises(MarshalError):
            codec.decode(b"", h_scalars, TO_USER)


class TestForgedLengths:
    def test_forged_exp_array_length_fails_fast(self):
        # Payload: count u32 @_HDR, then TAG_ARRAY @+4, length @+8.
        codec, wire = _encode(h_exp(count=2, vals=[1, 2]), h_exp)
        forged = _patch(wire, _HDR + 8, 0xFFFFFFFF)
        # Must raise before allocating a 4 GiB list one u32 at a time.
        with pytest.raises(MarshalError):
            codec.decode(forged, h_exp, TO_USER)

    def test_forged_string_length_fails_fast(self):
        codec, wire = _encode(h_str(label="abcd"), h_str)
        forged = _patch(wire, _HDR, 0xFFFFFFFF)  # string length word
        with pytest.raises(MarshalError):
            codec.decode(forged, h_str, TO_USER)

    def test_invalid_utf8_string_is_checked(self):
        codec, wire = _encode(h_str(label="abcd"), h_str)
        # Stomp the 4 string payload bytes (after the length word).
        forged = wire[:_HDR + 4] + b"\xff\xff\xff\xff" + wire[_HDR + 8:]
        with pytest.raises(MarshalError, match="utf-8"):
            codec.decode(forged, h_str, TO_USER)


class TestForgedStructure:
    def test_bad_backref_index(self):
        codec = MarshalCodec(MarshalPlan())
        buf = XdrBuffer()
        buf.put_u32(TAG_BACKREF)
        buf.put_u32(7)  # nothing decoded yet: any index is out of range
        with pytest.raises(MarshalError, match="backref"):
            codec.decode(bytes(buf.data), h_scalars, TO_USER)

    def test_unknown_type_id(self):
        codec = MarshalCodec(MarshalPlan())
        buf = XdrBuffer()
        buf.put_u32(TAG_OBJ)
        buf.put_u64(0x4000_0000)
        buf.put_u32(999_999)
        with pytest.raises(MarshalError, match="type id"):
            codec.decode(bytes(buf.data), h_scalars, TO_USER)

    def test_argument_count_mismatch(self):
        codec = MarshalCodec(MarshalPlan())
        wire, _nfields = codec.encode_args([(h_scalars(), h_scalars)],
                                           TO_USER)
        with pytest.raises(MarshalError, match="argument count"):
            codec.decode_args(bytes(wire), [h_scalars, h_scalars], TO_USER)


@pytest.mark.parametrize("compiled", [True, False],
                         ids=["compiled", "interp"])
class TestTypedDecodeOps:
    """The compiled codec decodes an opaque record as one 12-byte
    unpack and an array as one unpack; both still validate first."""

    def test_truncated_opaque_record(self, compiled):
        encoder, wire = _encode(h_opq(opq=0x1234), h_opq)
        assert len(wire) == _HDR + 12  # tag word + u64 handle
        codec = _decoder(encoder, compiled)
        for cut in range(_HDR, _HDR + 12):
            with pytest.raises(MarshalError):
                codec.decode(wire[:cut], h_opq, TO_USER)

    @pytest.mark.parametrize("tag", [TAG_NULL, TAG_OBJ, TAG_ARRAY, 0xFFFF])
    def test_wrong_opaque_tag(self, compiled, tag):
        encoder, wire = _encode(h_opq(opq=0x1234), h_opq)
        wire = _patch(wire, _HDR, tag)
        codec = _decoder(encoder, compiled)
        with pytest.raises(MarshalError, match="opaque"):
            codec.decode(wire, h_opq, TO_USER)
        # A short record with a wrong tag names the tag, like the
        # word-by-word read does.
        with pytest.raises(MarshalError, match="opaque"):
            codec.decode(wire[:_HDR + 8], h_opq, TO_USER)

    @pytest.mark.parametrize("length", [3, 4, 0x4000_0000, 0xFFFFFFFF])
    def test_forged_exp_length(self, compiled, length):
        # Payload: count u32 @_HDR, then TAG_ARRAY @+4, length @+8.
        encoder, wire = _encode(h_exp(count=2, vals=[1, 2]), h_exp)
        forged = _patch(wire, _HDR + 8, length)
        codec = _decoder(encoder, compiled)
        with pytest.raises(MarshalError, match="underrun"):
            codec.decode(forged, h_exp, TO_USER)

    def test_wrong_exp_tag(self, compiled):
        encoder, wire = _encode(h_exp(count=2, vals=[1, 2]), h_exp)
        wire = _patch(wire, _HDR + 4, TAG_OPAQUE)
        codec = _decoder(encoder, compiled)
        with pytest.raises(MarshalError, match="array tag"):
            codec.decode(wire, h_exp, TO_USER)

    def test_truncated_inline_array(self, compiled):
        encoder, wire = _encode(h_arr(arr=[1, 2, 3]), h_arr)
        codec = _decoder(encoder, compiled)
        assert codec.decode(wire, h_arr, TO_USER).arr == [1, 2, 3]
        for cut in range(_HDR, len(wire)):
            with pytest.raises(MarshalError):
                codec.decode(wire[:cut], h_arr, TO_USER)


class TestForgedDelta:
    def test_forged_delta_count_is_rejected(self):
        # Fresh instances are fully dirty: the delta carries all fields.
        codec, wire = _encode(h_scalars(a=1, b=2, c=3), h_scalars,
                              delta=True)
        forged = _patch(wire, _HDR, 50_000)  # delta field count word
        with pytest.raises(MarshalError, match="delta field count"):
            codec.decode(forged, h_scalars, TO_USER, delta=True)

    def test_forged_delta_index_is_rejected(self):
        codec, wire = _encode(h_scalars(a=1, b=2, c=3), h_scalars,
                              delta=True)
        forged = _patch(wire, _HDR + 4, 99)  # first field-index word
        with pytest.raises(MarshalError, match="delta field index"):
            codec.decode(forged, h_scalars, TO_USER, delta=True)


class TestKernelOwnedPinning:
    def test_pinned_field_dropped_from_to_kernel_lists(self):
        plan = MarshalPlan()
        plan.set_access(
            "h_scalars", FieldAccess(reads=("a", "b"), writes=("a", "b")))
        plan.pin("h_scalars", "b")
        to_kernel = [f.name for f in plan.fields_for(h_scalars, TO_KERNEL)]
        to_user = [f.name for f in plan.fields_for(h_scalars, TO_USER)]
        # Liveness says "b" marshals both ways; the pin overrides the
        # user->kernel direction only.
        assert to_kernel == ["a"]
        assert "b" in to_user

    def test_poisoned_pinned_field_never_reaches_kernel_object(self):
        plan = MarshalPlan()
        plan.set_access(
            "h_scalars", FieldAccess(reads=("a", "b"), writes=("a", "b")))
        plan.pin("h_scalars", "b")
        codec = MarshalCodec(plan)
        kernel_obj = h_scalars(a=1, b=0xF0000000)

        twin = codec.decode(
            bytes(codec.encode(kernel_obj, h_scalars, TO_USER)),
            h_scalars, TO_USER)
        twin.b = 0xFFFFFFFF  # compromised user half stomps the handle
        twin.a = 42

        class _Resolve:
            def resolve(self, identity, struct_cls, type_id):
                return kernel_obj, False

            def register(self, *a):
                pass

        for delta in (False, True):
            wire = bytes(codec.encode(twin, h_scalars, TO_KERNEL,
                                      delta=delta))
            codec.decode(wire, h_scalars, TO_KERNEL, ctx=_Resolve(),
                         delta=delta)
        assert kernel_obj.a == 42  # live data still flows back
        assert kernel_obj.b == 0xF0000000  # the handle did not budge

    def test_e1000_slice_plan_pins_hw_addr(self):
        from repro.drivers.decaf.plumbing import slice_plan
        from repro.drivers.legacy.e1000_hw import e1000_hw

        plan = slice_plan("e1000")
        access = plan.access_for(e1000_hw)
        # The slicer's liveness analysis sees legacy probe code write
        # hw_addr, so without the pin it would marshal user->kernel.
        assert "hw_addr" in access.writes
        names = [f.name for f in plan.fields_for(e1000_hw, TO_KERNEL)]
        assert "hw_addr" not in names
        assert "hw_addr" in [
            f.name for f in plan.fields_for(e1000_hw, TO_USER)]
