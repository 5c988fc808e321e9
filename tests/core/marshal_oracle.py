"""The per-field marshaling codec: the oracle the compiled codec is
checked against.

:class:`PerFieldCodec` marshals a full-copy payload one field at a time:
it re-derives each struct's field list from the plan's access sets on
every object and encodes each field from its C type and annotations,
with the word-at-a-time :class:`~repro.core.marshal.XdrBuffer` helpers
below.  It shares nothing with the compiled op programs of
:mod:`repro.core.marshal` beyond the object-record framing, so the two
agreeing byte for byte -- and decoding each other's wires to equal
graphs -- is evidence that the op programs implement the wire format
rather than merely agree with themselves.  Delta (return-trip)
payloads have one implementation, the compiled one, which this class
inherits.

Used by the codec round-trip properties, the marshal edge-case and
hostile-payload tests, and the XPC microbenchmark's uncached baseline.
"""

import struct

from repro.core.cstruct import Array, Exp, Null, Opaque, Ptr, Str, Struct
from repro.core.marshal import (
    TAG_NULL,
    TAG_OPAQUE,
    TO_KERNEL,
    TO_USER,
    MarshalCodec,
    MarshalError,
    _decode_str,
)

_U64 = struct.Struct("<Q")
_WORD = {(4, False): struct.Struct("<I"), (4, True): struct.Struct("<i"),
         (8, False): _U64, (8, True): struct.Struct("<q")}


def put_u64(buf, value):
    buf.data += _U64.pack(value & 0xFFFFFFFFFFFFFFFF)


def _word(ctype):
    # XDR promotes everything below 4 bytes to 4 ("hyper" is 8).
    return _WORD[(8 if ctype.size == 8 else 4, ctype.signed)]


def put_scalar(buf, ctype, value):
    buf.data += _word(ctype).pack(ctype.clamp(int(value)))


def get_scalar(buf, ctype):
    word = _word(ctype)
    buf.need(word.size)
    value = word.unpack_from(buf.data, buf.pos)[0]
    buf.pos += word.size
    return ctype.clamp(value)


def uncached_fields(plan, struct_cls, direction):
    """The fields of ``struct_cls`` crossing in ``direction``, derived
    afresh from the plan's access sets and pins."""
    access = plan.access_for(struct_cls)
    if access is None:
        fields = list(struct_cls.fields())
    else:
        wanted = access.all if direction == TO_USER else access.writes
        fields = [f for f in struct_cls.fields() if f.name in wanted]
    if direction == TO_KERNEL:
        pinned = plan.pinned_for(struct_cls)
        fields = [f for f in fields if f.name not in pinned]
    return fields


class PerFieldCodec(MarshalCodec):
    """:class:`MarshalCodec` with full-copy payloads marshaled field by
    field (see the module docstring)."""

    def _encode_payload(self, buf, obj, struct_cls, identity, direction, ctx,
                        seen, delta):
        if delta:
            super()._encode_payload(buf, obj, struct_cls, identity,
                                    direction, ctx, seen, delta)
            return
        self.objects_marshaled += 1
        for field in uncached_fields(self.plan, struct_cls, direction):
            self.fields_marshaled += 1
            self._call_fields += 1
            self._encode_field(buf, field, getattr(obj, field.name),
                               identity, direction, ctx, seen)

    def _encode_field(self, buf, field, value, parent_identity, direction,
                      ctx, seen):
        ctype = field.ctype
        if isinstance(ctype, Ptr):
            if field.annotation(Null) is not None:
                buf.put_u32(TAG_NULL)
            elif field.annotation(Opaque) is not None:
                buf.put_u32(TAG_OPAQUE)
                put_u64(buf, ctx.handle_of(value))
            elif field.annotation(Exp) is not None:
                self._encode_exp_array(buf, value)
            else:
                target = ctype.resolve()
                if value is not None and not isinstance(value, target):
                    raise MarshalError(
                        "field %s: expected %s, got %r"
                        % (field.name, target.__name__, type(value).__name__)
                    )
                self._encode_ref(buf, value, target, direction, ctx, seen,
                                 False)
        elif isinstance(ctype, Struct):
            # Embedded: part of the parent record, encoded inline; its
            # wire identity is parent + offset (its C address).
            child_identity = parent_identity + field.offset
            self._encode_payload(buf, value, ctype.struct_cls,
                                 child_identity, direction, ctx, seen, False)
            seen.setdefault(child_identity, len(seen))
        elif isinstance(ctype, Str):
            buf.put_bytes(str(value or "").encode("utf-8")[:ctype.length])
        elif isinstance(ctype, Array):
            for i in range(ctype.length):
                elem = value[i] if value is not None and i < len(value) else 0
                put_scalar(buf, ctype.elem, elem)
        else:
            put_scalar(buf, ctype, value or 0)

    def _decode_payload(self, buf, obj, struct_cls, identity, direction, ctx,
                        seen, delta):
        if delta:
            super()._decode_payload(buf, obj, struct_cls, identity,
                                    direction, ctx, seen, delta)
            return
        for field in uncached_fields(self.plan, struct_cls, direction):
            self._decode_field(buf, obj, field, identity, direction, ctx,
                               seen)

    def _decode_field(self, buf, obj, field, parent_identity, direction, ctx,
                      seen):
        ctype = field.ctype
        name = field.name
        if isinstance(ctype, Ptr):
            if field.annotation(Null) is not None:
                if buf.get_u32() != TAG_NULL:
                    raise MarshalError("null-annotated field carried data")
                setattr(obj, name, None)
            elif field.annotation(Opaque) is not None:
                if buf.get_u32() != TAG_OPAQUE:
                    raise MarshalError("expected opaque handle")
                setattr(obj, name, ctx.object_of(buf.get_u64()))
            elif field.annotation(Exp) is not None:
                setattr(obj, name, self._decode_exp_array(buf))
            else:
                setattr(obj, name, self._decode_ref(
                    buf, ctype.resolve(), direction, ctx, seen, False))
        elif isinstance(ctype, Struct):
            child = getattr(obj, name)
            child_identity = parent_identity + field.offset
            ctx.register(child_identity, ctype.struct_cls,
                         self.type_ids.id_of(ctype.struct_cls), child)
            self._decode_payload(buf, child, ctype.struct_cls,
                                 child_identity, direction, ctx, seen, False)
            seen.add(child_identity, child)
        elif isinstance(ctype, Str):
            setattr(obj, name, _decode_str(buf, name))
        elif isinstance(ctype, Array):
            setattr(obj, name,
                    [get_scalar(buf, ctype.elem) for _ in range(ctype.length)])
        else:
            setattr(obj, name, get_scalar(buf, ctype))
