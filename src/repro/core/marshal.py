"""XDR-style marshaling between domains.

DriverSlicer emits, and this module executes, the paper's marshaling
scheme (sections 2.3, 3.2.2-3.2.3):

* **Selective-field copy**: only the fields the target domain actually
  accesses are transferred.  A :class:`MarshalPlan` carries per-struct
  :class:`FieldAccess` sets (reads / writes, i.e. the ``DECAF_RVAR`` /
  ``DECAF_WVAR`` / ``DECAF_RWVAR`` annotations); kernel->user transfers
  copy ``reads | writes``, user->kernel transfers copy only ``writes``.
* **Recursive data structures**: every object is recorded while being
  marshaled; encountering it again emits a back-reference, so circular
  lists and diamond shapes marshal once (section 3.2.3).  This extends
  across all parameters of one call via a shared encode context.
* **Object identity**: unmarshaling consults the destination object
  tracker before allocating, updating existing objects in place.
* **Opaque pointers**: kernel-private pointers cross as integer handles
  and are restored to the original kernel object when passed back.

Data genuinely flows through a byte buffer (4-byte-aligned XDR wire
format), so the byte counts the XPC layer charges are real.

Two fast-path mechanisms sit on top of the scheme (both produce
byte-identical wire data to the baseline):

* **Compiled codecs**: the per-(struct, direction) field list is cached
  on the plan and compiled into a program of typed ops: maximal runs of
  scalar fields become one precompiled :class:`struct.Struct`
  pack/unpack, every other field one op per kind (``OP_*``).
  ``MarshalCodec(compiled=False)`` keeps the uncached per-field
  baseline callable for the ablation benchmarks.
* **Delta marshaling**: :class:`~repro.core.cstruct.CStruct` instances
  track attribute writes; a *return* trip encoded with ``delta=True``
  carries only fields actually mutated since the forward transfer
  (wire format per object: field count, then ``(field index, payload)``
  pairs indexed into the plan's field list), chosen by a cached
  per-(struct, direction) inclusion program.
"""

import functools
import struct as _struct

from .cstruct import Array, CONSTANTS, Exp, Null, Opaque, Ptr, Str, Struct

TAG_NULL = 0
TAG_OBJ = 1
TAG_BACKREF = 2
TAG_OPAQUE = 3
TAG_ARRAY = 4

TO_USER = "to_user"
TO_KERNEL = "to_kernel"

_U32 = _struct.Struct("<I")
_U64 = _struct.Struct("<Q")
_I32 = _struct.Struct("<i")
_I64 = _struct.Struct("<q")


class MarshalError(Exception):
    pass


class FieldAccess:
    """Which fields of one struct a user-level domain reads/writes."""

    def __init__(self, reads=(), writes=()):
        self.reads = set(reads)
        self.writes = set(writes)

    @property
    def all(self):
        return self.reads | self.writes

    def add_read(self, name):
        self.reads.add(name)

    def add_write(self, name):
        self.writes.add(name)

    def merged(self, other):
        return FieldAccess(self.reads | other.reads, self.writes | other.writes)

    def __repr__(self):
        return "FieldAccess(reads=%r, writes=%r)" % (
            sorted(self.reads), sorted(self.writes)
        )


# -- compiled field programs ---------------------------------------------------
#
# A program is a tuple of ops, one per field kind.  Every op but OP_PACK
# is ``(kind, name, *extra)``; the codec dispatches on ``kind``
# instead of re-deriving the kind from the field's ctype and annotations
# on every crossing.

OP_PACK = 0    # a run of plain scalar fields packed with one struct.Struct
OP_NULL = 1    # pointer dropped at the boundary: always TAG_NULL
OP_OPAQUE = 2  # kernel-private pointer: TAG_OPAQUE + u64 handle as one <IQ
OP_EXP = 3     # exp-length u32 array: TAG_ARRAY, length, elements
OP_REF = 4     # pointer to a struct graph: object record or back-reference
               # (extra: the Ptr ctype, resolved at use time)
OP_EMBED = 5   # embedded struct, encoded inline (extra: struct_cls, offset)
OP_STR = 6     # fixed-size char array as XDR opaque bytes (extra: length)
OP_ARRAY = 7   # inline scalar array (extra: length, packer, unpacker,
               # elem, whether encode must clamp)

_OPAQUE_REC = _struct.Struct("<IQ")
# Object record header: TAG_OBJ, u64 identity, u32 type id.  Encode
# writes all three words with one pack; decode reads the identity and
# type id (after the tag) with one unpack when the whole header is there.
_OBJ_HDR = _struct.Struct("<IQI")
_ID_TYPE = _struct.Struct("<QI")
_NULL_WORD = _U32.pack(TAG_NULL)

# Delta inclusion rules (one per field; see MarshalPlan.delta_program_for).
DELTA_ALWAYS = 0       # value can mutate unobserved (Python lists)
DELTA_WRITTEN = 1      # crosses when the attribute was written
DELTA_WRITTEN_OR_GRAPH = 2  # ... or the graph it points to is dirty
DELTA_GRAPH = 3        # crosses when the embedded graph is dirty


def _scalar_format_char(ctype):
    if ctype.size == 8:
        return "q" if ctype.signed else "Q"
    return "i" if ctype.signed else "I"


def _slot_formats(ctype):
    """(encode, decode) ``struct`` formats of one scalar's wire slot.

    Scalars below 4 bytes ride a 4-byte XDR slot.  Decode reads only
    the C type's low bytes (``"B3x"`` for a u8), which is exactly the
    clamp, done inside ``struct``.  Encode can do the same for unsigned
    types, whose slot is zero-extended; a signed sub-word value is
    sign-extended across its slot, so it packs as a full word and must
    be clamped first.
    """
    if ctype.size >= 4:
        fmt = _scalar_format_char(ctype)
        return fmt, fmt
    narrow = ("b3x" if ctype.signed else "B3x") if ctype.size == 1 else \
        ("h2x" if ctype.signed else "H2x")
    return ("i" if ctype.signed else narrow), narrow


def _needs_clamp(ctype):
    return ctype.signed and ctype.size < 4


@functools.lru_cache(maxsize=None)
def _struct_for(fmt):
    """One shared, immutable ``struct.Struct`` per format: every plan,
    direction and struct class compiling the same layout reuses it
    (bounded by the distinct layouts in the program)."""
    return _struct.Struct(fmt)


def _pack_op(names, ctypes):
    """A run of plain scalar fields as one precompiled ``struct.Struct``
    for encode and one for decode (see :func:`_slot_formats`)."""
    formats = [_slot_formats(ct) for ct in ctypes]
    packer = _struct_for("<" + "".join(enc for enc, _dec in formats))
    unpacker = _struct_for("<" + "".join(dec for _enc, dec in formats))
    # Signed sub-word fields must be clamped even when pack() would
    # accept the raw value -- keeps wire bytes identical to baseline.
    encode_subclamps = tuple(
        (i, ct) for i, ct in enumerate(ctypes) if _needs_clamp(ct)
    )
    return (OP_PACK, tuple(names), tuple(ctypes), packer, unpacker,
            encode_subclamps)


def _field_op(field):
    """The typed op for one non-scalar field; None for a plain scalar."""
    ctype = field.ctype
    name = field.name
    if isinstance(ctype, Ptr):
        if field.annotation(Null) is not None:
            return (OP_NULL, name)
        if field.annotation(Opaque) is not None:
            return (OP_OPAQUE, name)
        if field.annotation(Exp) is not None:
            return (OP_EXP, name)
        return (OP_REF, name, ctype)
    if isinstance(ctype, Struct):
        return (OP_EMBED, name, ctype.struct_cls, field.offset)
    if isinstance(ctype, Str):
        return (OP_STR, name, ctype.length)
    if isinstance(ctype, Array):
        elem = ctype.elem
        enc, dec = _slot_formats(elem)
        return (OP_ARRAY, name, ctype.length,
                _struct_for("<" + enc * ctype.length),
                _struct_for("<" + dec * ctype.length),
                elem, _needs_clamp(elem))
    return None


def compile_field_ops(fields):
    """Compile a field list into an op program for the fast codec path.

    Maximal runs of plain scalar fields collapse into one precompiled
    ``struct.Struct``; every other field becomes one typed op (see the
    ``OP_*`` kinds).  The wire bytes are identical to the per-field
    baseline.
    """
    ops = []
    run = []
    for field in fields:
        op = _field_op(field)
        if op is None:
            run.append(field)
            continue
        if run:
            ops.append(_pack_op([f.name for f in run],
                                [f.ctype for f in run]))
            run = []
        ops.append(op)
    if run:
        ops.append(_pack_op([f.name for f in run], [f.ctype for f in run]))
    return tuple(ops)


_DELTA_RULES = {
    OP_NULL: DELTA_WRITTEN,
    OP_OPAQUE: DELTA_WRITTEN,
    OP_EXP: DELTA_ALWAYS,
    OP_REF: DELTA_WRITTEN_OR_GRAPH,
    OP_EMBED: DELTA_GRAPH,
    OP_STR: DELTA_WRITTEN,
    OP_ARRAY: DELTA_ALWAYS,
}


def compile_delta_program(fields, ops):
    """Compile a field list into a delta (return-trip) program.

    One ``(index, name, rule, op)`` entry per field, in plan order:
    ``index`` is the field's wire index, ``rule`` one of the
    ``DELTA_*`` inclusion rules, ``op`` the field's typed op, shared
    with ``ops`` (the list's compiled program; a scalar gets a
    one-field OP_PACK).  Scalar and string fields cross only when
    written.  Fields whose values can mutate without an attribute write
    being observed (inline arrays, exp-length arrays -- both plain
    Python lists) always cross.  Pointer and embedded-struct fields
    cross when reassigned or when the referenced graph carries dirty
    marks.
    """
    typed = {op[1]: op for op in ops if op[0] != OP_PACK}
    program = []
    for index, field in enumerate(fields):
        op = typed.get(field.name)
        if op is None:
            op = _scalar_op(field.name, field.ctype)
            rule = DELTA_WRITTEN
        else:
            rule = _DELTA_RULES[op[0]]
        program.append((index, field.name, rule, op))
    return tuple(program)


@functools.lru_cache(maxsize=None)
def _scalar_op(name, ctype):
    """The one-field OP_PACK of a delta program, shared by every struct
    with a same-named scalar field of that type.  Scalar ctypes are
    module singletons, so no struct class is held."""
    return _pack_op([name], [ctype])


def pack_format_for(fields):
    """The flattened scalar pack format for a field list (for reports:
    the cacheable artifact DriverSlicer emits alongside the XDR spec)."""
    return "<" + "".join(
        _scalar_format_char(f.ctype) for f in fields
        if not isinstance(f.ctype, (Ptr, Struct, Str, Array))
    )


class MarshalPlan:
    """Per-struct field-access sets.  Without an entry, all fields cross
    (the whole-struct baseline the selective-marshaling ablation
    compares against).

    The plan also owns the codec caches: per-(struct class, direction)
    field lists, compiled op programs and delta programs, shared by every
    channel using the plan.  Mutating the plan via :meth:`set_access`
    or :meth:`pin` invalidates all three.
    """

    def __init__(self, accesses=None, pinned=None):
        self._accesses = dict(accesses or {})
        self._pinned = {name: frozenset(fields)
                        for name, fields in (pinned or {}).items()}
        self._field_cache = {}
        self._op_cache = {}
        self._delta_cache = {}

    def set_access(self, struct_name, access):
        self._accesses[struct_name] = access
        self._invalidate()

    def pin(self, struct_name, *field_names):
        """Mark fields as kernel-owned: excluded from the user->kernel
        direction entirely, whatever the access analysis saw.

        The analysis answers a liveness question (does the sliced code
        touch this field?); write-back trust is a security one.  A
        hardware resource handle -- MMIO/IO base, irq line, DMA base --
        may well be *written* by legacy probe code that ended up in the
        user slice, but accepting it back from a (possibly compromised)
        user half lets corrupt state poison the kernel-side object and
        survive supervised restarts, which re-marshal kernel state into
        the fresh half.  Pinned fields simply never appear in TO_KERNEL
        field lists; the wire format is positional over those lists on
        both sides, so a hostile payload cannot even address them."""
        pinned = set(self._pinned.get(struct_name, ())) | set(field_names)
        self._pinned[struct_name] = frozenset(pinned)
        self._invalidate()

    def _invalidate(self):
        self._field_cache.clear()
        self._op_cache.clear()
        self._delta_cache.clear()

    def pinned_for(self, struct_cls):
        return self._pinned.get(struct_cls.__name__, frozenset())

    def access_for(self, struct_cls):
        return self._accesses.get(struct_cls.__name__)

    def uncached_fields_for(self, struct_cls, direction):
        """Re-derive the field list on every call (the seed baseline the
        compiled-codec ablation measures against)."""
        access = self.access_for(struct_cls)
        if access is None:
            fields = list(struct_cls.fields())
        else:
            wanted = access.all if direction == TO_USER else access.writes
            fields = [f for f in struct_cls.fields() if f.name in wanted]
        if direction == TO_KERNEL:
            pinned = self.pinned_for(struct_cls)
            if pinned:
                fields = [f for f in fields if f.name not in pinned]
        return fields

    def fields_for(self, struct_cls, direction):
        key = (struct_cls, direction)
        cached = self._field_cache.get(key)
        if cached is None:
            cached = tuple(self.uncached_fields_for(struct_cls, direction))
            self._field_cache[key] = cached
        return cached

    def compiled_ops_for(self, struct_cls, direction):
        key = (struct_cls, direction)
        ops = self._op_cache.get(key)
        if ops is None:
            ops = compile_field_ops(self.fields_for(struct_cls, direction))
            self._op_cache[key] = ops
        return ops

    def delta_program_for(self, struct_cls, direction):
        key = (struct_cls, direction)
        program = self._delta_cache.get(key)
        if program is None:
            program = compile_delta_program(
                self.fields_for(struct_cls, direction),
                self.compiled_ops_for(struct_cls, direction))
            self._delta_cache[key] = program
        return program

    def struct_names(self):
        return sorted(self._accesses)

    @classmethod
    def from_table(cls, table):
        """Rebuild a plan from one driver's entry in the generated
        :mod:`repro.drivers.decaf.marshal_plans` table."""
        return cls({name: FieldAccess(access["reads"], access["writes"])
                    for name, access in table["access"].items()},
                   table["pinned"])


class TypeRegistry:
    """Stable small integers standing in for 'address of the C XDR
    marshaling function' as the per-type identifier.

    Each :class:`~repro.core.xpc.XpcChannel` owns a private registry, so
    type-id assignment cannot leak between rigs or tests; both ends of a
    channel share the channel's instance, which is what keeps the wire
    ids consistent.
    """

    def __init__(self):
        self._ids = {}
        self._by_id = {}

    def id_of(self, struct_cls):
        key = struct_cls.__name__
        if key not in self._ids:
            new_id = len(self._ids) + 1
            self._ids[key] = new_id
            self._by_id[new_id] = struct_cls
        return self._ids[key]

    def struct_for(self, type_id):
        return self._by_id.get(type_id)

    def reset(self):
        self._ids.clear()
        self._by_id.clear()

    def __len__(self):
        return len(self._ids)


class XdrBuffer:
    """XDR-flavoured wire buffer: everything 4-byte aligned.

    Decode is *hostile-input safe*: every read validates the remaining
    buffer first and raises :class:`MarshalError` on underrun, so a
    truncated or length-corrupted payload from a compromised user half
    surfaces as a checked marshaling failure at the boundary, never as a
    raw ``struct.error`` inside the kernel.
    """

    def __init__(self, data=b""):
        self.data = bytearray(data)
        self.pos = 0

    def __len__(self):
        return len(self.data)

    @property
    def remaining(self):
        return len(self.data) - self.pos

    def need(self, n):
        """Validate that ``n`` more payload bytes exist before reading."""
        if len(self.data) - self.pos < n:
            raise MarshalError(
                "wire underrun: need %d bytes at offset %d of %d"
                % (n, self.pos, len(self.data))
            )

    # encode
    def put_u32(self, v):
        self.data += _U32.pack(v & 0xFFFFFFFF)

    def put_u64(self, v):
        self.data += _U64.pack(v & 0xFFFFFFFFFFFFFFFF)

    def put_scalar(self, ctype, value):
        # XDR promotes everything below 4 bytes to 4 ("hyper" is 8).
        value = ctype.clamp(int(value))
        if ctype.size == 8:
            self.data += (_I64 if ctype.signed else _U64).pack(value)
        else:
            self.data += (_I32 if ctype.signed else _U32).pack(value)

    def put_bytes(self, raw):
        self.put_u32(len(raw))
        self.data += raw
        pad = -len(self.data) % 4
        if pad:
            self.data += b"\x00\x00\x00"[:pad]

    # decode
    def get_u32(self):
        self.need(4)
        v = _U32.unpack_from(self.data, self.pos)[0]
        self.pos += 4
        return v

    def get_u64(self):
        self.need(8)
        v = _U64.unpack_from(self.data, self.pos)[0]
        self.pos += 8
        return v

    def get_scalar(self, ctype):
        if ctype.size == 8:
            self.need(8)
            v = (_I64 if ctype.signed else _U64).unpack_from(
                self.data, self.pos)[0]
            self.pos += 8
        else:
            self.need(4)
            v = (_I32 if ctype.signed else _U32).unpack_from(
                self.data, self.pos)[0]
            self.pos += 4
        return ctype.clamp(v)

    def get_bytes(self):
        n = self.get_u32()
        # The length word is attacker-controlled: validate against the
        # remaining buffer *before* slicing (a bare slice would silently
        # return short data; a 0xFFFFFFFF length must not look like a
        # legal empty read).
        self.need(n)
        raw = bytes(self.data[self.pos:self.pos + n])
        self.pos += n + (-n % 4)
        return raw


class TransferContext:
    """Destination-side object resolution used during decode.

    The default implementation is tracker-less (always allocates); the
    XPC channel subclasses it to consult the kernel/user object
    trackers and the opaque-handle table.
    """

    def resolve(self, identity, struct_cls, type_id):
        """Return (obj, created) for a marshaled object record."""
        return struct_cls(), True

    def register(self, identity, struct_cls, type_id, obj):
        """Record identity of an embedded struct reached via a parent."""

    def identity_of(self, obj):
        """Source side: the wire identity of an object.

        The kernel side uses the object's own C address.  The user side
        overrides this to translate a Java object to the kernel pointer
        it mirrors (Fig. 2's ``xlate_j_to_c``).
        """
        return obj.c_addr

    def handle_of(self, obj):
        """Source side: opaque handle for a kernel-private object."""
        if obj is None:
            return 0
        if hasattr(obj, "c_addr"):
            return obj.c_addr
        if isinstance(obj, int):
            return obj
        return id(obj)

    def object_of(self, handle):
        """Destination side: restore an opaque handle."""
        return handle


class _DecodeSeen:
    """Decode-side back-reference table.

    Mirrors the encoder's seen-dict indexing exactly: an identity is
    assigned an index the first time it is encountered, whether it
    arrives as a pointed-to object record or inline as an embedded
    struct.  Both sides must agree on this ordering for back-reference
    indices to resolve.
    """

    def __init__(self):
        self.objects = []
        self._ids = set()

    def add(self, identity, obj):
        if identity in self._ids:
            return
        self._ids.add(identity)
        self.objects.append(obj)


def _graph_has_dirty(obj):
    """True if any object reachable from ``obj`` through pointer or
    embedded-struct fields carries dirty marks (delta-marshaling
    inclusion test for unreassigned pointers).

    The walk follows each class's ``_graph_fields`` (see
    :class:`~repro.core.cstruct.CStructMeta`); an object whose class
    has none is a leaf and is decided without a visited set.
    """
    if obj is None:
        return False
    dirty = getattr(obj, "_dirty_fields", None)
    if dirty is None or dirty:
        return True  # dirty, or no tracking info: assume mutated
    if not getattr(type(obj), "_graph_fields", ()):
        return False
    visited = {id(obj)}
    todo = [obj]
    while todo:
        parent = todo.pop()
        od = parent.__dict__
        for name in type(parent)._graph_fields:
            child = od[name]
            if child is None or id(child) in visited:
                continue
            dirty = getattr(child, "_dirty_fields", None)
            if dirty is None or dirty:
                return True
            visited.add(id(child))
            if getattr(type(child), "_graph_fields", ()):
                todo.append(child)
    return False


class MarshalCodec:
    """Encode/decode struct graphs per a :class:`MarshalPlan`.

    ``compiled=True`` (the default) uses the plan's cached field lists
    and precompiled scalar packers; ``compiled=False`` keeps the seed's
    uncached per-field path callable for the ablation benchmarks.  Both
    paths produce identical wire bytes.  ``type_ids`` is the wire
    type-id :class:`TypeRegistry`: a decoder must share its encoder's,
    as the two ends of a channel do, and a codec given none has its
    own.
    """

    def __init__(self, plan=None, type_ids=None, compiled=True):
        self.plan = plan or MarshalPlan()
        self.type_ids = type_ids if type_ids is not None else TypeRegistry()
        self.compiled = compiled
        self.objects_marshaled = 0
        self.fields_marshaled = 0
        self.backrefs = 0
        self.delta_fields_skipped = 0
        self.last_decoded_objects = ()
        self._call_fields = 0

    # -- encode ------------------------------------------------------------------

    def encode(self, obj, struct_cls, direction, ctx=None, _shared_seen=None,
               delta=False):
        """Marshal one object graph; returns wire bytes."""
        ctx = ctx or TransferContext()
        buf = XdrBuffer()
        seen = _shared_seen if _shared_seen is not None else {}
        self._encode_ref(buf, obj, struct_cls, direction, ctx, seen, delta)
        return bytes(buf.data)

    def encode_args(self, args, direction, ctx=None, delta=False):
        """Marshal several (obj, struct_cls) parameters with one shared
        back-reference table, so a struct passed twice crosses once.

        Returns ``(data, nfields)`` where ``nfields`` counts the fields
        marshaled by *this call* (the XPC layer charges per-field costs
        from it; the codec-global ``fields_marshaled`` remains a
        lifetime statistic).
        """
        ctx = ctx or TransferContext()
        buf = XdrBuffer()
        seen = {}
        saved = self._call_fields
        self._call_fields = 0
        try:
            buf.data += _U32.pack(len(args))
            for obj, struct_cls in args:
                self._encode_ref(buf, obj, struct_cls, direction, ctx, seen,
                                 delta)
            nfields = self._call_fields
        finally:
            self._call_fields = saved
        return bytes(buf.data), nfields

    def _encode_ref(self, buf, obj, struct_cls, direction, ctx, seen, delta):
        if obj is None:
            buf.put_u32(TAG_NULL)
            return
        identity = ctx.identity_of(obj)
        if identity in seen:
            buf.put_u32(TAG_BACKREF)
            buf.put_u32(seen[identity])
            self.backrefs += 1
            return
        buf.data += _OBJ_HDR.pack(
            TAG_OBJ, identity & 0xFFFFFFFFFFFFFFFF,
            self.type_ids.id_of(type(obj)) & 0xFFFFFFFF)
        seen[identity] = len(seen)
        self._encode_payload(buf, obj, type(obj), identity, direction, ctx,
                             seen, delta)

    def _encode_payload(self, buf, obj, struct_cls, identity, direction, ctx,
                        seen, delta):
        self.objects_marshaled += 1
        if delta:
            self._encode_payload_delta(buf, obj, struct_cls, identity,
                                       direction, ctx, seen)
        elif self.compiled:
            self._encode_ops(buf, obj,
                             self.plan.compiled_ops_for(struct_cls, direction),
                             identity, direction, ctx, seen, False)
        else:
            for field in self.plan.uncached_fields_for(struct_cls, direction):
                self.fields_marshaled += 1
                self._call_fields += 1
                self._encode_field(buf, field, getattr(obj, field.name),
                                   identity, direction, ctx, seen, delta)

    def _encode_ops(self, buf, obj, ops, identity, direction, ctx, seen,
                    delta):
        """Encode ``obj`` by a compiled op program (see ``OP_*``)."""
        od = obj.__dict__
        data = buf.data
        nfields = 0
        for op in ops:
            kind = op[0]
            if kind == OP_PACK:
                _tag, names, ctypes, packer, _unpacker, subclamps = op
                vals = [od[n] for n in names]
                for i, ct in subclamps:
                    vals[i] = ct.clamp(int(vals[i] or 0))
                try:
                    # Raw pack: in-range ints (the overwhelmingly
                    # common case) need no full-width clamping.
                    data += packer.pack(*vals)
                except (TypeError, _struct.error):
                    # None or out-of-range somewhere in the run:
                    # redo it clamped, matching the baseline bytes.
                    data += packer.pack(
                        *[ct.clamp(int(od[name] or 0))
                          for name, ct in zip(names, ctypes)]
                    )
                nfields += len(names)
                continue
            nfields += 1
            value = od[op[1]]
            if kind == OP_REF:
                target = op[2].resolve()
                if value is not None and not isinstance(value, target):
                    raise MarshalError(
                        "field %s: expected %s, got %r"
                        % (op[1], target.__name__, type(value).__name__)
                    )
                self._encode_ref(buf, value, target, direction, ctx, seen,
                                 delta)
            elif kind == OP_EMBED:
                # Embedded: part of the parent record, encoded inline;
                # its wire identity is parent + offset (its C address).
                child_identity = identity + op[3]
                self._encode_payload(buf, value, op[2], child_identity,
                                     direction, ctx, seen, delta)
                seen.setdefault(child_identity, len(seen))
            elif kind == OP_OPAQUE:
                data += _OPAQUE_REC.pack(
                    TAG_OPAQUE, ctx.handle_of(value) & 0xFFFFFFFFFFFFFFFF)
            elif kind == OP_EXP:
                self._encode_exp_array(buf, value)
            elif kind == OP_STR:
                buf.put_bytes(str(value or "").encode("utf-8")[:op[2]])
            elif kind == OP_ARRAY:
                _tag, _name, length, packer, _up, elem, clamp = op
                if not clamp and value is not None and len(value) == length:
                    try:
                        data += packer.pack(*value)
                        continue
                    except (TypeError, _struct.error):
                        pass  # out of range somewhere: clamp below
                if value is None:
                    vals = [0] * length
                else:
                    vals = [elem.clamp(int(v)) for v in value[:length]]
                    if len(vals) < length:
                        vals += [0] * (length - len(vals))
                data += packer.pack(*vals)
            else:  # OP_NULL
                data += _NULL_WORD
        self.fields_marshaled += nfields
        self._call_fields += nfields

    # -- delta (dirty-field) payloads ---------------------------------------------

    def _encode_payload_delta(self, buf, obj, struct_cls, identity, direction,
                              ctx, seen):
        program = self.plan.delta_program_for(struct_cls, direction)
        dirty = getattr(obj, "_dirty_fields", None)
        if dirty is None:
            included = program  # no tracking info: full copy
        else:
            od = obj.__dict__
            included = []
            for entry in program:
                rule = entry[2]
                if rule == DELTA_WRITTEN:
                    if entry[1] not in dirty:
                        continue
                elif rule == DELTA_WRITTEN_OR_GRAPH:
                    if (entry[1] not in dirty
                            and not _graph_has_dirty(od[entry[1]])):
                        continue
                elif rule == DELTA_GRAPH:
                    if not _graph_has_dirty(od[entry[1]]):
                        continue
                included.append(entry)
        self.delta_fields_skipped += len(program) - len(included)
        data = buf.data
        data += _U32.pack(len(included))
        for index, _name, _rule, op in included:
            data += _U32.pack(index)
            self._encode_ops(buf, obj, (op,), identity, direction, ctx, seen,
                             True)

    def _encode_field(self, buf, field, value, parent_identity, direction, ctx,
                      seen, delta):
        """Per-field baseline encoder (``compiled=False``)."""
        ctype = field.ctype
        if isinstance(ctype, Ptr):
            if field.annotation(Null) is not None:
                buf.put_u32(TAG_NULL)
            elif field.annotation(Opaque) is not None:
                buf.put_u32(TAG_OPAQUE)
                buf.put_u64(ctx.handle_of(value))
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
                                 delta)
        elif isinstance(ctype, Struct):
            # Embedded: part of the parent record, encoded inline; its
            # wire identity is parent + offset (its C address).
            child_identity = parent_identity + field.offset
            self._encode_payload(
                buf, value, ctype.struct_cls, child_identity, direction, ctx,
                seen, delta
            )
            seen.setdefault(child_identity, len(seen))
        elif isinstance(ctype, Str):
            raw = str(value or "").encode("utf-8")[: ctype.length]
            buf.put_bytes(raw)
        elif isinstance(ctype, Array):
            for i in range(ctype.length):
                elem = value[i] if value is not None and i < len(value) else 0
                buf.put_scalar(ctype.elem, elem)
        else:
            buf.put_scalar(ctype, value or 0)

    def _encode_exp_array(self, buf, value):
        if value is None:
            buf.put_u32(TAG_NULL)
            return
        fmt = "<II%dI" % len(value)
        try:
            buf.data += _struct.pack(fmt, TAG_ARRAY, len(value), *value)
        except (TypeError, _struct.error):
            # Negative, wide or non-int elements: mask each one.
            buf.data += _struct.pack(
                fmt, TAG_ARRAY, len(value),
                *[int(elem) & 0xFFFFFFFF for elem in value])

    # -- decode -------------------------------------------------------------------

    def decode(self, data, struct_cls, direction, ctx=None, delta=False):
        ctx = ctx or TransferContext()
        buf = XdrBuffer(data)
        seen = _DecodeSeen()
        out = self._decode_ref(buf, struct_cls, direction, ctx, seen, delta)
        self.last_decoded_objects = tuple(seen.objects)
        return out

    def decode_args(self, data, struct_classes, direction, ctx=None,
                    delta=False):
        ctx = ctx or TransferContext()
        buf = XdrBuffer(data)
        seen = _DecodeSeen()
        count = buf.get_u32()
        if count != len(struct_classes):
            raise MarshalError(
                "argument count mismatch: wire has %d, caller expects %d"
                % (count, len(struct_classes))
            )
        out = [
            self._decode_ref(buf, cls, direction, ctx, seen, delta)
            for cls in struct_classes
        ]
        self.last_decoded_objects = tuple(seen.objects)
        return out

    def _decode_ref(self, buf, struct_cls, direction, ctx, seen, delta):
        tag = buf.get_u32()
        if tag == TAG_NULL:
            return None
        if tag == TAG_BACKREF:
            index = buf.get_u32()
            try:
                return seen.objects[index]
            except IndexError:
                raise MarshalError("bad backref index %d" % index) from None
        if tag != TAG_OBJ:
            raise MarshalError("expected object tag, got %d" % tag)
        pos = buf.pos
        if len(buf.data) - pos >= _ID_TYPE.size:
            identity, type_id = _ID_TYPE.unpack_from(buf.data, pos)
            buf.pos = pos + _ID_TYPE.size
        else:
            # Short header: fail as the word-by-word read does.
            identity = buf.get_u64()
            type_id = buf.get_u32()
        wire_cls = self.type_ids.struct_for(type_id)
        if wire_cls is None:
            raise MarshalError("unknown type id %d" % type_id)
        obj, _created = ctx.resolve(identity, wire_cls, type_id)
        seen.add(identity, obj)
        self._decode_payload(buf, obj, wire_cls, identity, direction, ctx,
                             seen, delta)
        return obj

    def _decode_payload(self, buf, obj, struct_cls, identity, direction, ctx,
                        seen, delta):
        if delta:
            self._decode_payload_delta(buf, obj, struct_cls, identity,
                                       direction, ctx, seen)
        elif self.compiled:
            self._decode_ops(buf, obj,
                             self.plan.compiled_ops_for(struct_cls, direction),
                             identity, direction, ctx, seen, False)
        else:
            for field in self.plan.uncached_fields_for(struct_cls, direction):
                self._decode_field(buf, obj, field, identity, direction, ctx,
                                   seen, delta)

    def _decode_ops(self, buf, obj, ops, identity, direction, ctx, seen,
                    delta):
        """Decode into ``obj`` by a compiled op program (see ``OP_*``)."""
        od = obj.__dict__
        data = buf.data
        for op in ops:
            kind = op[0]
            if kind == OP_PACK:
                names, unpacker = op[1], op[4]
                buf.need(unpacker.size)
                values = unpacker.unpack_from(data, buf.pos)
                buf.pos += unpacker.size
                if delta:
                    for name, value in zip(names, values):
                        setattr(obj, name, value)
                else:
                    # Twins land clean either way (the channel clears
                    # dirty marks after every transfer), so full-copy
                    # scalar stores go straight into the instance dict,
                    # skipping __setattr__ tracking.
                    od.update(zip(names, values))
            elif kind == OP_REF:
                setattr(obj, op[1], self._decode_ref(
                    buf, op[2].resolve(), direction, ctx, seen, delta))
            elif kind == OP_EMBED:
                struct_cls = op[2]
                child = od[op[1]]
                child_identity = identity + op[3]
                ctx.register(child_identity, struct_cls,
                             self.type_ids.id_of(struct_cls), child)
                self._decode_payload(buf, child, struct_cls, child_identity,
                                     direction, ctx, seen, delta)
                seen.add(child_identity, child)
            elif kind == OP_OPAQUE:
                pos = buf.pos
                if len(data) - pos < _OPAQUE_REC.size:
                    # Short record: fail as the word-by-word read does.
                    if buf.get_u32() != TAG_OPAQUE:
                        raise MarshalError("expected opaque handle")
                    buf.get_u64()
                tag, handle = _OPAQUE_REC.unpack_from(data, pos)
                if tag != TAG_OPAQUE:
                    raise MarshalError("expected opaque handle")
                buf.pos = pos + _OPAQUE_REC.size
                setattr(obj, op[1], ctx.object_of(handle))
            elif kind == OP_EXP:
                setattr(obj, op[1], self._decode_exp_array(buf))
            elif kind == OP_STR:
                setattr(obj, op[1], _decode_str(buf, op[1]))
            elif kind == OP_ARRAY:
                unpacker = op[4]
                buf.need(unpacker.size)
                values = unpacker.unpack_from(data, buf.pos)
                buf.pos += unpacker.size
                setattr(obj, op[1], list(values))
            else:  # OP_NULL
                if buf.get_u32() != TAG_NULL:
                    raise MarshalError("null-annotated field carried data")
                setattr(obj, op[1], None)

    def _decode_payload_delta(self, buf, obj, struct_cls, identity, direction,
                              ctx, seen):
        program = self.plan.delta_program_for(struct_cls, direction)
        data = buf.data
        pos = buf.pos
        if len(data) - pos < 4:
            buf.get_u32()  # raises the underrun error
        count = _U32.unpack_from(data, pos)[0]
        buf.pos = pos + 4
        # A well-formed delta includes each plan field at most once; a
        # larger count is forged and would otherwise drive a near-2^32
        # decode loop off a 4-byte wire word.
        if count > len(program):
            raise MarshalError(
                "delta field count %d exceeds the %d plan fields of %s"
                % (count, len(program), struct_cls.__name__)
            )
        for _ in range(count):
            pos = buf.pos
            if len(data) - pos < 4:
                buf.get_u32()  # raises the underrun error
            index = _U32.unpack_from(data, pos)[0]
            buf.pos = pos + 4
            try:
                op = program[index][3]
            except IndexError:
                raise MarshalError(
                    "bad delta field index %d for %s"
                    % (index, struct_cls.__name__)
                ) from None
            self._decode_ops(buf, obj, (op,), identity, direction, ctx, seen,
                             True)

    def _decode_field(self, buf, obj, field, parent_identity, direction, ctx,
                      seen, delta):
        """Per-field baseline decoder (``compiled=False``)."""
        ctype = field.ctype
        if isinstance(ctype, Ptr):
            if field.annotation(Null) is not None:
                tag = buf.get_u32()
                if tag != TAG_NULL:
                    raise MarshalError("null-annotated field carried data")
                setattr(obj, field.name, None)
            elif field.annotation(Opaque) is not None:
                tag = buf.get_u32()
                if tag != TAG_OPAQUE:
                    raise MarshalError("expected opaque handle")
                handle = buf.get_u64()
                setattr(obj, field.name, ctx.object_of(handle))
            elif field.annotation(Exp) is not None:
                setattr(obj, field.name, self._decode_exp_array(buf))
            else:
                target = ctype.resolve()
                value = self._decode_ref(buf, target, direction, ctx, seen,
                                         delta)
                setattr(obj, field.name, value)
        elif isinstance(ctype, Struct):
            child = getattr(obj, field.name)
            child_identity = parent_identity + field.offset
            ctx.register(
                child_identity, ctype.struct_cls,
                self.type_ids.id_of(ctype.struct_cls), child,
            )
            self._decode_payload(
                buf, child, ctype.struct_cls, child_identity, direction, ctx,
                seen, delta
            )
            seen.add(child_identity, child)
        elif isinstance(ctype, Str):
            setattr(obj, field.name, _decode_str(buf, field.name))
        elif isinstance(ctype, Array):
            setattr(
                obj,
                field.name,
                [buf.get_scalar(ctype.elem) for _ in range(ctype.length)],
            )
        else:
            setattr(obj, field.name, buf.get_scalar(ctype))

    def _decode_exp_array(self, buf):
        tag = buf.get_u32()
        if tag == TAG_NULL:
            return None
        if tag != TAG_ARRAY:
            raise MarshalError("expected array tag, got %d" % tag)
        length = buf.get_u32()
        # Each element is one u32: validate the whole extent up front so
        # a forged length fails fast instead of allocating a multi-GB
        # list four bytes at a time.
        buf.need(4 * length)
        values = _struct.unpack_from("<%dI" % length, buf.data, buf.pos)
        buf.pos += 4 * length
        return list(values)


def _decode_str(buf, name):
    raw = buf.get_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise MarshalError(
            "field %s: string payload is not valid utf-8" % name
        ) from None


def exp_length(field, obj):
    """Resolve an Exp annotation to a concrete length."""
    ann = field.annotation(Exp)
    if ann is None:
        return None
    if ann.expr in CONSTANTS:
        return CONSTANTS[ann.expr]
    sibling = getattr(obj, ann.expr, None)
    if sibling is None:
        raise MarshalError(
            "cannot resolve exp(%s) on %s" % (ann.expr, type(obj).__name__)
        )
    return int(sibling)
