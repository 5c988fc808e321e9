"""XDR interface-spec generation (paper section 3.2.2, Figure 3).

From the driver's annotated struct definitions, emit a textual XDR
specification the (j)rpcgen-style compilers would consume.  The two
transformations the paper describes are applied:

* a pointer-to-fixed-array field (``Exp`` annotation) is rewritten into
  a pointer to a generated wrapper struct containing a fixed-length
  array of the element type -- Figure 3's
  ``struct array256_uint32_t { uint32_t array[256]; }`` --
  preserving the in-memory layout while making the length visible to
  XDR;
* C ``long long`` types become XDR ``hyper``.

Opaque pointers are emitted as ``hyper`` handles with a comment;
pointers to other driver structs become XDR optional-data pointers
(``struct foo *``), which is how rpcgen expresses linked structures.
"""

from ..core.cstruct import (
    Array,
    CONSTANTS,
    CStruct,
    Exp,
    Null,
    Opaque,
    Ptr,
    Str,
    Struct,
    StructRegistry,
)


def _xdr_scalar_name(ctype):
    name = ctype.xdr_type()
    # C "long long" -> XDR "hyper" (already mapped by xdr_type); keep
    # the substitution explicit for u64/s64.
    return name


def _resolve_exp(field):
    ann = field.annotation(Exp)
    expr = ann.expr
    if expr in CONSTANTS:
        return CONSTANTS[expr], expr
    return None, expr


def generate_xdr_spec(struct_classes):
    """Emit the XDR spec text for the given CStruct subclasses."""
    lines = [
        "/* Generated by DriverSlicer: XDR interface specification. */",
        "",
    ]
    wrapper_emitted = set()
    body = []

    for struct_cls in struct_classes:
        body.append("struct %s_autoxdr_c {" % struct_cls.__name__)
        for field in struct_cls.fields():
            ctype = field.ctype
            if isinstance(ctype, Ptr):
                if field.annotation(Opaque) is not None:
                    body.append("   hyper %s;   /* opaque kernel pointer */"
                                % field.name)
                elif field.annotation(Null) is not None:
                    body.append("   hyper %s;   /* always NULL across XPC */"
                                % field.name)
                elif field.annotation(Exp) is not None:
                    length, expr = _resolve_exp(field)
                    if length is None:
                        body.append(
                            "   opaque %s<>;   /* length: exp(%s) */"
                            % (field.name, expr)
                        )
                        continue
                    elem = "uint32_t"
                    wrapper = "array%d_%s" % (length, elem)
                    if wrapper not in wrapper_emitted:
                        wrapper_emitted.add(wrapper)
                        lines.append("struct %s {" % wrapper)
                        lines.append("   %s array[%d];" % (elem, length))
                        lines.append("};")
                        lines.append("typedef struct %s *%s_ptr;"
                                     % (wrapper, wrapper))
                        lines.append("")
                    body.append("   %s_ptr %s;" % (wrapper, field.name))
                else:
                    target = ctype.resolve()
                    body.append("   struct %s_autoxdr_c *%s;"
                                % (target.__name__, field.name))
            elif isinstance(ctype, Struct):
                body.append("   struct %s_autoxdr_c %s;"
                            % (ctype.struct_cls.__name__, field.name))
            elif isinstance(ctype, Str):
                body.append("   opaque %s[%d];" % (field.name, ctype.length))
            elif isinstance(ctype, Array):
                body.append("   %s %s[%d];"
                            % (_xdr_scalar_name(ctype.elem), field.name,
                               ctype.length))
            else:
                body.append("   %s %s;"
                            % (_xdr_scalar_name(ctype), field.name))
        body.append("};")
        body.append("")

    return "\n".join(lines + body)


def generate_codec_plans(struct_classes, plan=None):
    """Emit the cacheable codec artifacts the runtime fast path uses.

    For every (struct, direction) pair: the ordered field list the
    marshaling plan selects and the flattened ``struct.Struct`` pack
    format its scalar runs compile to.  This is the compile-time half
    of the compiled-codec optimization -- what DriverSlicer would bake
    into the generated C/Java stubs so neither side re-derives field
    lists per call.  Returns ``{struct: {direction: {"fields": [...],
    "pack_format": str, "scalar_runs": int}}}``.
    """
    from ..core.marshal import (
        MarshalPlan, OP_PACK, TO_KERNEL, TO_USER, pack_format_for,
    )

    plan = plan or MarshalPlan()
    out = {}
    for struct_cls in struct_classes:
        per_direction = {}
        for direction in (TO_USER, TO_KERNEL):
            fields = plan.fields_for(struct_cls, direction)
            ops = plan.compiled_ops_for(struct_cls, direction)
            per_direction[direction] = {
                "fields": [f.name for f in fields],
                "pack_format": pack_format_for(fields),
                "scalar_runs": sum(1 for op in ops if op[0] == OP_PACK),
            }
        out[struct_cls.__name__] = per_direction
    return out


_JAVA_SCALARS = {
    "u8": "short", "u16": "int", "u32": "long", "u64": "long",
    "s8": "byte", "s16": "short", "int": "int", "s64": "long",
}


def generate_java_classes(struct_classes, package="decaf.generated"):
    """Emit the jrpcgen-style Java classes (section 3.2.3).

    "It also emits a Java class for each C data type used by the
    driver.  These classes are containers of public fields for every
    element of the original C structures" -- a starting point the
    developer is expected to rewrite (all members public, no methods).
    Returns {class_name: java_source}.
    """
    out = {}
    for struct_cls in struct_classes:
        lines = [
            "// Generated by DriverSlicer (jrpcgen); rewrite freely.",
            "package %s;" % package,
            "",
            "public class %s {" % struct_cls.__name__,
        ]
        for field in struct_cls.fields():
            ctype = field.ctype
            if isinstance(ctype, Ptr):
                if field.annotation(Opaque) is not None or \
                        field.annotation(Null) is not None:
                    java = "long /* opaque kernel pointer */"
                elif field.annotation(Exp) is not None:
                    java = "long[]"
                else:
                    target = ctype.resolve()
                    java = target.__name__
            elif isinstance(ctype, Struct):
                java = ctype.struct_cls.__name__
            elif isinstance(ctype, Str):
                java = "String"
            elif isinstance(ctype, Array):
                java = _JAVA_SCALARS.get(ctype.elem.name, "long") + "[]"
            else:
                java = _JAVA_SCALARS.get(ctype.name, "long")
            lines.append("    public %s %s;" % (java, field.name))
        lines.append("}")
        out[struct_cls.__name__] = "\n".join(lines) + "\n"
    return out


def driver_struct_classes(modules):
    """The CStruct subclasses defined by a driver's modules."""
    module_names = {m.__name__.rsplit(".", 1)[-1] for m in modules}
    result = []
    for name, struct_cls in sorted(StructRegistry.all_structs().items()):
        if struct_cls.__module__.rsplit(".", 1)[-1] in module_names:
            result.append(struct_cls)
    return result
