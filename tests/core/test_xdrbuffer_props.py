"""Property-based tests for the XDR wire buffer and codec internals.

The scalar word helpers are the per-field oracle's
(:mod:`tests.core.marshal_oracle`).
"""

from hypothesis import given, settings, strategies as st

from repro.core import I16, I32, I64, U8, U16, U32, U64
from repro.core.marshal import XdrBuffer
from tests.core.marshal_oracle import get_scalar, put_scalar

SCALARS = {
    "u8": (U8, st.integers(0, 2**8 - 1)),
    "u16": (U16, st.integers(0, 2**16 - 1)),
    "u32": (U32, st.integers(0, 2**32 - 1)),
    "u64": (U64, st.integers(0, 2**64 - 1)),
    "i16": (I16, st.integers(-(2**15), 2**15 - 1)),
    "i32": (I32, st.integers(-(2**31), 2**31 - 1)),
    "i64": (I64, st.integers(-(2**63), 2**63 - 1)),
}

scalar_item = st.sampled_from(sorted(SCALARS)).flatmap(
    lambda key: st.tuples(st.just(key), SCALARS[key][1])
)


class TestXdrBufferProperties:
    @given(items=st.lists(scalar_item, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_scalar_sequences_roundtrip(self, items):
        buf = XdrBuffer()
        for key, value in items:
            put_scalar(buf, SCALARS[key][0], value)
        out = XdrBuffer(bytes(buf.data))
        for key, value in items:
            assert get_scalar(out, SCALARS[key][0]) == value

    @given(blobs=st.lists(st.binary(max_size=40), max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_bytes_roundtrip_with_alignment(self, blobs):
        buf = XdrBuffer()
        for blob in blobs:
            buf.put_bytes(blob)
        assert len(buf.data) % 4 == 0  # XDR alignment invariant
        out = XdrBuffer(bytes(buf.data))
        for blob in blobs:
            assert out.get_bytes() == blob

    @given(mixed=st.lists(
        st.one_of(
            st.tuples(st.just("u32"), st.integers(0, 2**32 - 1)),
            st.tuples(st.just("bytes"), st.binary(max_size=16)),
        ), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_mixed_sequences(self, mixed):
        buf = XdrBuffer()
        for kind, value in mixed:
            if kind == "u32":
                buf.put_u32(value)
            else:
                buf.put_bytes(value)
        out = XdrBuffer(bytes(buf.data))
        for kind, value in mixed:
            if kind == "u32":
                assert out.get_u32() == value
            else:
                assert out.get_bytes() == value

    @given(value=st.integers(-(2**70), 2**70))
    @settings(max_examples=50, deadline=None)
    def test_clamping_is_idempotent(self, value):
        for ctype, _strategy in SCALARS.values():
            clamped = ctype.clamp(value)
            assert ctype.clamp(clamped) == clamped

    @given(value=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_u64_wider_than_u32(self, value):
        buf = XdrBuffer()
        put_scalar(buf, U64, value)
        assert len(buf.data) == 8
        buf2 = XdrBuffer()
        put_scalar(buf2, U32, value)
        assert len(buf2.data) == 4
