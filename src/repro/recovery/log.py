"""The replay log: configuration calls a nucleus records for recovery.

Only *configuration* is logged (probe, open, MAC address, MTU, mixer
and PCM settings ...), never datapath traffic -- replaying the log must
restore the driver to the state applications believe it is in, not
reproduce history.  An entry is the entry point that made the call
plus its arguments, so replay is ``fn(*args)``.  Entries are
latest-wins per entry-point name: a second ``set_mac`` replaces the
first, exactly as replaying both would.
"""


class ReplayLog:
    def __init__(self):
        self._entries = []  # [fn, args] pairs, oldest first

    def record(self, fn, *args):
        """Record ``fn(*args)``; an existing entry of the same name is
        replaced in place (latest-wins), keeping its replay position."""
        for entry in self._entries:
            if entry[0].__name__ == fn.__name__:
                entry[0] = fn
                entry[1] = args
                return
        self._entries.append([fn, args])

    def remove(self, name):
        """Forget the entry named ``name`` (e.g. ``open`` once the
        device is closed)."""
        self._entries = [e for e in self._entries
                         if e[0].__name__ != name]

    def entries(self):
        """Snapshot of (fn, args) pairs in replay order."""
        return [(fn, args) for fn, args in self._entries]

    def __len__(self):
        return len(self._entries)
