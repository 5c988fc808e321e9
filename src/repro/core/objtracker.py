"""Object trackers: identity of shared objects across domains.

Two trackers cooperate (paper section 3.1.2):

* The **kernel-side tracker** maps C addresses to kernel objects -- a
  plain address-keyed table, consulted with a procedure call during
  unmarshaling in the kernel.

* The **user-level tracker** ("written in Java") maps the pair
  ``(c_addr, type_id)`` to the user object.  The type identifier exists
  because one C pointer can correspond to several Java objects: a struct
  embedded first-member has the same address as its container.  The
  paper uses the address of the C XDR marshaling routine as the type id;
  we use the registered codec identity, which is the same thing one
  level up.

The paper leaves automatic release as future work ("weak references and
finalizers would allow unreferenced objects to be removed
automatically"); :meth:`UserObjectTracker.associate` supports exactly
that via ``weak=True``, implemented here as the extension the authors
sketch.
"""

import weakref


class KernelObjectTracker:
    """Kernel-side: C address -> kernel object."""

    def __init__(self):
        self._by_addr = {}
        self.lookups = 0
        self.hits = 0

    def register(self, obj):
        self._by_addr[obj.c_addr] = obj

    def lookup(self, c_addr):
        self.lookups += 1
        obj = self._by_addr.get(c_addr)
        if obj is not None:
            self.hits += 1
        return obj

    def remove(self, c_addr):
        self._by_addr.pop(c_addr, None)

    def __len__(self):
        return len(self._by_addr)


class UserObjectTracker:
    """User-level: (c_addr, type_id) -> Java object, and the reverse.

    Java objects have no stable address, so the reverse map is keyed by
    object identity (``id``) -- the Java implementation uses object
    references the same way.
    """

    def __init__(self):
        self._j_by_key = {}        # (c_addr, type_id) -> obj or weakref
        self._c_by_objid = {}      # id(obj) -> (c_addr, type_id)
        self._strong_refs = {}     # id(obj) -> obj (non-weak entries)
        self._epoch = 0            # bumped by clear(); disarms finalizers
        self.lookups = 0
        self.hits = 0
        self.auto_released = 0
        self.release_hook = None   # called with (c_addr, type_id) on GC

    def associate(self, c_addr, type_id, obj, weak=False):
        key = (c_addr, type_id)
        objid = id(obj)
        if weak:
            ref = weakref.ref(obj, self._make_finalizer(key, objid))
            self._j_by_key[key] = ref
        else:
            self._j_by_key[key] = obj
            self._strong_refs[objid] = obj
        self._c_by_objid[objid] = key

    def _make_finalizer(self, key, objid):
        epoch = self._epoch
        def finalize(_ref):
            # Runs when the Java GC collects the object: drop the
            # association and let the runtime free the kernel twin.
            # A finalizer armed before clear() must not fire against a
            # later driver instance: the same simulated address can
            # alias a brand-new object after a restart.
            if epoch != self._epoch:
                return
            self._j_by_key.pop(key, None)
            self._c_by_objid.pop(objid, None)
            self.auto_released += 1
            if self.release_hook is not None:
                self.release_hook(key[0], key[1])
        return finalize

    def clear(self):
        """Drop every association (driver unload or restart).

        Bumps the epoch so finalizers created for the old associations
        become no-ops: without this, the GC of an old driver instance's
        objects would evict entries a restarted driver re-created at
        the same ``(c_addr, type_id)`` keys and free its live twins.
        """
        self._epoch += 1
        self._j_by_key.clear()
        self._c_by_objid.clear()
        self._strong_refs.clear()

    def xlate_c_to_j(self, c_addr, type_id):
        """Find the Java object for a C pointer of a given type."""
        self.lookups += 1
        entry = self._j_by_key.get((c_addr, type_id))
        if entry is None:
            return None
        obj = entry() if isinstance(entry, weakref.ref) else entry
        if obj is not None:
            self.hits += 1
        return obj

    def xlate_j_to_c(self, obj):
        """Find the C pointer (and type) for a Java object, or None."""
        self.lookups += 1
        key = self._c_by_objid.get(id(obj))
        if key is not None:
            self.hits += 1
        return key

    def disassociate(self, obj):
        key = self._c_by_objid.pop(id(obj), None)
        if key is not None:
            self._j_by_key.pop(key, None)
        self._strong_refs.pop(id(obj), None)
        return key

    def __len__(self):
        return len(self._j_by_key)
