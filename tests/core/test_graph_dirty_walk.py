"""The delta codec's dirty-graph walk agrees with the recursive oracle.

``repro.core.marshal._graph_has_dirty`` decides whether an unreassigned
pointer or embedded-struct field must cross on a delta return trip.  It
walks each class's ``_graph_fields`` iteratively and settles leaf
classes without a visited set.  :func:`reference_graph_has_dirty` below
is the straightforward recursive walk over the full field table that it
replaced; the property checks both agree on random graphs with cycles,
first-member embedded aliases (same C address as the parent, different
type), opaque/null/exp pointers that must not be followed, and
untracked objects.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CStruct, Exp, Null, Opaque, Ptr, Struct, U32
from repro.core.marshal import _graph_has_dirty


def reference_graph_has_dirty(obj, _visited=None):
    """Recursive oracle: True if any object reachable from ``obj``
    through pointer or embedded-struct fields carries dirty marks."""
    if obj is None:
        return False
    dirty = getattr(obj, "_dirty_fields", None)
    if dirty is None:
        return True  # no tracking info: assume mutated
    if dirty:
        return True
    fields = getattr(type(obj), "_fields", ())
    if _visited is None:
        _visited = set()
    if id(obj) in _visited:
        return False
    _visited.add(id(obj))
    for field in fields:
        ctype = field.ctype
        if isinstance(ctype, Struct):
            if reference_graph_has_dirty(getattr(obj, field.name), _visited):
                return True
        elif isinstance(ctype, Ptr):
            if (field.annotation(Opaque) is None
                    and field.annotation(Null) is None
                    and field.annotation(Exp) is None):
                if reference_graph_has_dirty(getattr(obj, field.name),
                                             _visited):
                    return True
    return False


class gw_leaf(CStruct):
    FIELDS = [("a", U32), ("b", U32)]


class gw_inner(CStruct):
    FIELDS = [("x", U32), ("leaf", Ptr(gw_leaf))]


class gw_node(CStruct):
    FIELDS = [
        ("head", Struct(gw_inner)),       # first member: aliases the node
        ("val", U32),
        ("next", Ptr("gw_node")),
        ("peer", Ptr(gw_leaf)),
        ("opq", Ptr(gw_leaf), Opaque()),  # never followed
        ("nul", Ptr(gw_leaf), Null()),    # never followed
        ("count", U32),
        ("arr", Ptr(U32), Exp("count")),  # never followed
    ]


def test_graph_fields_are_on_the_class():
    assert gw_leaf._graph_fields == ()
    assert gw_inner._graph_fields == ("leaf",)
    assert gw_node._graph_fields == ("head", "next", "peer")


def test_first_member_alias_shares_the_address():
    node = gw_node()
    assert node.head.c_addr == node.c_addr


_UNTRACKED = SimpleNamespace(a=1)  # no _dirty_fields: counts as mutated


@st.composite
def graphs(draw):
    """Nodes and leaves wired at random, everything clean, then a
    random subset marked dirty."""
    nleaves = draw(st.integers(min_value=0, max_value=4))
    nnodes = draw(st.integers(min_value=1, max_value=5))
    leaves = [gw_leaf() for _ in range(nleaves)]
    nodes = [gw_node() for _ in range(nnodes)]

    def target(pool, untracked=False):
        choices = [None] + pool + ([_UNTRACKED] if untracked else [])
        return draw(st.sampled_from(choices))

    for node in nodes:
        node.next = target(nodes)  # self-loops and longer cycles
        node.peer = target(leaves, untracked=True)
        node.head.leaf = target(leaves, untracked=True)
        node.opq = target(leaves, untracked=True)
        node.nul = target(leaves, untracked=True)
        node.arr = draw(st.sampled_from([None, [1, 2]]))
    everything = nodes + [n.head for n in nodes] + leaves
    for obj in everything:
        obj.clear_dirty()
    dirty = draw(st.lists(st.sampled_from(everything), max_size=3))
    for obj in dirty:
        obj._dirty_fields.add(type(obj)._fields[0].name)
    return nodes, leaves


@settings(max_examples=300)
@given(graphs())
def test_walk_agrees_with_recursive_oracle(graph):
    nodes, leaves = graph
    for root in [None, _UNTRACKED] + nodes + [n.head for n in nodes] + leaves:
        assert _graph_has_dirty(root) == reference_graph_has_dirty(root)


def test_dirt_behind_an_opaque_pointer_is_ignored():
    node, hidden = gw_node(), gw_leaf()
    node.opq = node.nul = hidden
    node.clear_dirty()
    node.head.clear_dirty()
    assert hidden.dirty_fields()
    assert not _graph_has_dirty(node)
    node.peer = hidden
    node.clear_dirty()
    assert _graph_has_dirty(node)
