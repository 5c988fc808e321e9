"""Incremental conversion support (paper sections 2.2 and 5.3).

"When migrating code to Java, it is convenient to move one function at
a time and then test the system. ... The ability to execute either
Java or C versions of a function during development greatly simplified
conversion, as it allowed us to eliminate any new bugs in our Java
implementation by comparing its behavior to that of the original C
code."

:class:`TransitionTable` is that mechanism: each user-level function is
registered with its **driver library** implementation (the original C,
staged at user level) and, once written, its **decaf** implementation.
Dispatch goes to whichever side the function is currently bound to;
flipping a function is one call, and ``compare`` runs both versions on
the same marshaled state to check behavioural equivalence -- the
paper's development methodology as an API.
"""

from ...core.domains import DECAF, DRIVER_LIB

LIBRARY = "library"
DECAF_SIDE = "decaf"


class TransitionError(Exception):
    pass


class TransitionTable:
    """Per-driver registry of user-level functions during migration."""

    def __init__(self, channel):
        self.channel = channel
        self._functions = {}   # name -> {"library": fn, "decaf": fn|None}
        self._binding = {}     # name -> LIBRARY | DECAF_SIDE
        self.library_calls = 0
        self.decaf_calls = 0

    # -- registration ---------------------------------------------------------

    def register(self, name, library_impl, decaf_impl=None):
        """Register a user-level function.

        It starts bound to the driver library (the freshly-split C
        code); the decaf implementation may be added later.
        """
        self._functions[name] = {LIBRARY: library_impl,
                                 DECAF_SIDE: decaf_impl}
        self._binding[name] = LIBRARY

    def add_decaf_implementation(self, name, decaf_impl):
        entry = self._require(name)
        entry[DECAF_SIDE] = decaf_impl

    def _require(self, name):
        try:
            return self._functions[name]
        except KeyError:
            raise TransitionError("unknown function %r" % name) from None

    # -- migration state --------------------------------------------------------

    def convert(self, name):
        """Flip one function from the library to the decaf driver."""
        entry = self._require(name)
        if entry[DECAF_SIDE] is None:
            raise TransitionError(
                "%s has no decaf implementation yet" % name)
        self._binding[name] = DECAF_SIDE

    def revert(self, name):
        """Flip back to C (e.g. after finding a bug in the rewrite)."""
        self._require(name)
        self._binding[name] = LIBRARY

    def binding(self, name):
        self._require(name)
        return self._binding[name]

    def conversion_progress(self):
        """(converted, total) -- the migration status."""
        converted = sum(1 for b in self._binding.values()
                        if b == DECAF_SIDE)
        return converted, len(self._binding)

    def unconverted(self):
        return sorted(name for name, b in self._binding.items()
                      if b == LIBRARY)

    # -- dispatch ------------------------------------------------------------------

    def call(self, name, *args):
        """Invoke the currently-bound implementation (at user level).

        Library calls run in the DRIVER_LIB domain; decaf calls cross
        the language boundary into DECAF (Jeannie/JNI in the paper),
        charged by the channel's :meth:`direct_call` before they enter.
        """
        entry = self._require(name)
        if self._binding[name] == DECAF_SIDE:
            self.decaf_calls += 1
            return self.channel.direct_call(
                self._enter_decaf, entry[DECAF_SIDE], *args)
        self.library_calls += 1
        with self.channel.domains.entered(DRIVER_LIB):
            return entry[LIBRARY](*args)

    def _enter_decaf(self, impl, *args):
        with self.channel.domains.entered(DECAF):
            return impl(*args)

    # -- the development methodology -------------------------------------------------

    def compare(self, name, *args, key=None):
        """Run both implementations and compare their results.

        ``key`` optionally projects the return values before comparison
        (for results carrying incidental identity).  Returns the decaf
        result; raises :class:`TransitionError` on divergence -- the
        "eliminate any new bugs by comparing behavior" loop.
        """
        entry = self._require(name)
        if entry[DECAF_SIDE] is None:
            raise TransitionError(
                "%s has no decaf implementation to compare" % name)
        domains = self.channel.domains
        with domains.entered(DRIVER_LIB):
            c_result = entry[LIBRARY](*args)
        with domains.entered(DECAF):
            java_result = entry[DECAF_SIDE](*args)
        project = key or (lambda x: x)
        if project(c_result) != project(java_result):
            raise TransitionError(
                "%s diverges: C returned %r, decaf returned %r"
                % (name, c_result, java_result))
        return java_result
