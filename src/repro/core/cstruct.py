"""C-layout structure definitions with marshaling annotations.

Legacy drivers declare their data structures as :class:`CStruct`
subclasses with a ``FIELDS`` table, mirroring how the original C drivers
declare ``struct e1000_adapter`` etc.  Each field has a C type; pointer
and array fields may carry the annotations the paper's DriverSlicer needs
(section 3.2): ``Exp("PCI_LEN")`` marks a pointer as pointing to an array
whose length is given by an expression, ``Opaque()`` marks kernel-private
pointers that must never be marshaled.

The type layer provides ``sizeof`` (C layout sizes, used by the decaf
runtime's sizeof helper), default construction, and the metadata the XDR
generator (:mod:`repro.slicer.xdrgen`) and marshaling codecs
(:mod:`repro.core.marshal`) are driven by.
"""

from ..kernel.errors import SimulationError


class CType:
    """Base for scalar C types."""

    name = "ctype"
    size = 4
    signed = False

    def __repr__(self):
        return self.name

    def default(self):
        return 0

    def xdr_type(self):
        """The XDR spec type this C type maps to (section 3.2.2)."""
        return {
            ("u", 1): "unsigned char",
            ("u", 2): "unsigned short",
            ("u", 4): "unsigned int",
            ("u", 8): "unsigned hyper",
            ("i", 1): "char",
            ("i", 2): "short",
            ("i", 4): "int",
            ("i", 8): "hyper",
        }[("i" if self.signed else "u", self.size)]

    def clamp(self, value):
        value &= self._mask
        if self.signed and value >= self._sign_threshold:
            value -= self._wrap
        return value


# Default mask set for the 4-byte base CType.
CType._mask = (1 << 32) - 1
CType._sign_threshold = 1 << 31
CType._wrap = 1 << 32


def _scalar(type_name, size, signed):
    bits = size * 8
    cls = type(type_name, (CType,), {
        "name": type_name, "size": size, "signed": signed,
        "_mask": (1 << bits) - 1,
        "_sign_threshold": 1 << (bits - 1),
        "_wrap": 1 << bits,
    })
    return cls()


U8 = _scalar("u8", 1, False)
U16 = _scalar("u16", 2, False)
U32 = _scalar("u32", 4, False)
U64 = _scalar("u64", 8, False)
I8 = _scalar("s8", 1, True)
I16 = _scalar("s16", 2, True)
I32 = _scalar("int", 4, True)
I64 = _scalar("s64", 8, True)


class Str:
    """A fixed-size char array holding a C string."""

    def __init__(self, length):
        self.length = length
        self.name = "char[%d]" % length
        self.size = length

    def __repr__(self):
        return self.name

    def default(self):
        return ""

    def xdr_type(self):
        return "opaque[%d]" % self.length


class Array:
    """A fixed-length inline array of a scalar element type."""

    def __init__(self, elem, length):
        self.elem = elem
        self.length = length
        self.name = "%s[%s]" % (elem.name, length)

    def __repr__(self):
        return self.name

    @property
    def size(self):
        return self.elem.size * self.length

    def default(self):
        return [self.elem.default()] * self.length

    def xdr_type(self):
        return "%s[%d]" % (self.elem.xdr_type(), self.length)


class Struct:
    """An embedded (inline) struct field.

    In C the embedded struct shares the address of its offset within the
    outer struct -- when it is the *first* member, both have the same
    address, which is the aliasing case the user-level object tracker
    must disambiguate (section 3.1.2).
    """

    def __init__(self, struct_cls):
        self.struct_cls = struct_cls
        self.name = "struct %s" % struct_cls.__name__

    def __repr__(self):
        return self.name

    @property
    def size(self):
        return self.struct_cls.sizeof()

    def default(self):
        return self.struct_cls()

    def xdr_type(self):
        return "struct %s" % self.struct_cls.__name__


class Ptr:
    """A pointer field.

    ``target`` is a CStruct subclass, a scalar CType (pointer to array,
    requires an ``Exp`` length annotation), or a string name resolved
    through the struct registry (for forward/recursive references such as
    linked lists).
    """

    size = 8

    def __init__(self, target):
        self.target = target

    @property
    def name(self):
        target = self.target
        if isinstance(target, str):
            return "struct %s *" % target
        if isinstance(target, type) and issubclass(target, CStruct):
            return "struct %s *" % target.__name__
        return "%s *" % target.name

    def __repr__(self):
        return self.name

    def default(self):
        return None

    def resolve(self):
        if isinstance(self.target, str):
            return StructRegistry.get(self.target)
        return self.target


# -- field annotations ---------------------------------------------------------


class Annotation:
    pass


class Exp(Annotation):
    """Pointer-length annotation: ``__attribute__((exp(EXPR)))``.

    EXPR is either an integer constant name resolved through
    :data:`CONSTANTS` or the name of a sibling field holding the length.
    """

    def __init__(self, expr):
        self.expr = expr

    def __repr__(self):
        return "exp(%s)" % self.expr


class Opaque(Annotation):
    """Kernel-private pointer: never marshaled, passed as a handle."""

    def __repr__(self):
        return "opaque"


class Null(Annotation):
    """Pointer that must be marshaled as NULL (dropped at the boundary)."""

    def __repr__(self):
        return "null"


# Named constants usable in Exp() expressions (drivers register more).
CONSTANTS = {
    "PCI_LEN": 64,
    "ETH_ALEN": 6,
}


class Field:
    __slots__ = ("name", "ctype", "annotations", "offset")

    def __init__(self, name, ctype, annotations, offset):
        self.name = name
        self.ctype = ctype
        self.annotations = tuple(annotations)
        self.offset = offset

    def annotation(self, kind):
        for ann in self.annotations:
            if isinstance(ann, kind):
                return ann
        return None

    def is_pointer(self):
        return isinstance(self.ctype, Ptr)

    def __repr__(self):
        return "<Field %s: %r>" % (self.name, self.ctype)


class StructRegistry:
    """Global name -> CStruct-subclass registry (for Ptr("name") refs)."""

    _structs = {}

    @classmethod
    def register(cls, struct_cls):
        cls._structs[struct_cls.__name__] = struct_cls

    @classmethod
    def get(cls, name):
        try:
            return cls._structs[name]
        except KeyError:
            raise SimulationError("unknown struct %r" % name) from None

    @classmethod
    def all_structs(cls):
        return dict(cls._structs)


class CStructMeta(type):
    def __new__(mcls, name, bases, ns):
        cls = super().__new__(mcls, name, bases, ns)
        raw_fields = ns.get("FIELDS", None)
        fields = []
        offset = 0
        if raw_fields:
            for spec in raw_fields:
                fname, ctype = spec[0], spec[1]
                annotations = spec[2:]
                field = Field(fname, ctype, annotations, offset)
                offset += getattr(ctype, "size", 8)
                fields.append(field)
        cls._fields = tuple(fields)
        cls._size = offset
        cls._fields_by_name = {f.name: f for f in fields}
        # Instance-construction template: defaults that are immutable
        # (scalars, strings, NULL pointers) are shared via one dict
        # update; only embedded structs and arrays need a fresh value
        # per instance.  Twin allocation sits on the XPC decode hot
        # path, so __init__ avoids per-field default()/setattr calls.
        simple = {}
        per_instance = []
        for f in fields:
            if isinstance(f.ctype, (Struct, Array)):
                per_instance.append(f)
            else:
                simple[f.name] = f.ctype.default()
        cls._simple_defaults = simple
        cls._per_instance_fields = tuple(per_instance)
        # Fields the delta codec's dirty-graph walk follows: embedded
        # structs and pointers to struct graphs (opaque, null and
        # exp-length pointers never carry a marshaled graph).  Kept on
        # the class, so it lives and dies with it (fleet clones).
        cls._graph_fields = tuple(
            f.name for f in fields
            if isinstance(f.ctype, Struct)
            or (isinstance(f.ctype, Ptr)
                and not any(isinstance(a, (Opaque, Null, Exp))
                            for a in f.annotations)))
        if raw_fields is not None:
            StructRegistry.register(cls)
        return cls


class CStruct(metaclass=CStructMeta):
    """Base class for C-layout structures.

    Instances behave like plain attribute bags with typed defaults; the
    metadata lives on the class.  An instance belongs to the domain whose
    heap allocated it (set by the domain manager); its identity in C
    domains is a synthetic address.
    """

    FIELDS = None
    _next_addr = 0x4000_0000

    def __init__(self, **kwargs):
        CStruct._next_addr += 0x10000
        d = self.__dict__
        # Dirty-field tracking for XPC delta marshaling: every public
        # attribute write is recorded so a return trip can copy only
        # fields actually mutated.  A fresh instance starts fully dirty
        # (all fields marked) -- a new object reaching the boundary
        # must cross in full.
        d["_dirty_fields"] = set(self._fields_by_name)
        d["_c_addr"] = CStruct._next_addr
        d["_domain"] = None
        d.update(self._simple_defaults)
        for field in self._per_instance_fields:
            value = field.ctype.default()
            # An embedded struct shares its parent's storage in C: its
            # address is parent + offset.  A first member therefore has
            # the SAME address as the outer struct -- the aliasing case
            # the user-level object tracker disambiguates by type.
            if isinstance(field.ctype, Struct):
                value._c_addr = d["_c_addr"] + field.offset
            d[field.name] = value
        for key, value in kwargs.items():
            if key not in self._fields_by_name:
                raise AttributeError(
                    "%s has no field %r" % (type(self).__name__, key)
                )
            setattr(self, key, value)

    @classmethod
    def sizeof(cls):
        """C layout size (packed; the decaf runtime's sizeof helper)."""
        return cls._size

    @classmethod
    def fields(cls):
        return cls._fields

    @classmethod
    def field(cls, name):
        return cls._fields_by_name[name]

    @property
    def c_addr(self):
        return self._c_addr

    def __setattr__(self, name, value, _oset=object.__setattr__):
        _oset(self, name, value)
        if name[0] != "_":
            try:
                self._dirty_fields.add(name)
            except AttributeError:
                pass  # writes before __init__ set up tracking

    # -- dirty-field tracking (XPC delta marshaling) -----------------------------

    def dirty_fields(self):
        """Names of fields written since the last :meth:`clear_dirty`."""
        return self._dirty_fields

    def clear_dirty(self):
        """Mark the object clean (done after each XPC transfer, so the
        next return trip carries only fields written since)."""
        self._dirty_fields.clear()

    def __repr__(self):
        return "<%s @%#x>" % (type(self).__name__, self._c_addr)
