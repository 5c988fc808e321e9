"""The replay log: configuration calls a nucleus records for recovery.

Only *configuration* is logged (probe, open, MAC address, MTU, mixer
and PCM settings ...), never datapath traffic -- replaying the log must
restore the driver to the state applications believe it is in, not
reproduce history.  An entry is the nucleus entry point that made the
call plus its arguments, so replay is ``fn(*args)``.  Entries are
latest-wins per entry point: a second ``set_mac`` replaces the first,
exactly as replaying both would.
"""


class ReplayLog:
    def __init__(self):
        self._entries = []  # [fn, args] pairs, oldest first

    def record(self, fn, *args):
        """Record ``fn(*args)``; an existing entry for ``fn`` is updated
        in place (latest-wins), keeping the original replay position."""
        for entry in self._entries:
            if entry[0] == fn:
                entry[1] = args
                return
        self._entries.append([fn, args])

    def remove(self, fn):
        """Forget ``fn`` (e.g. ``stub_open`` once the device is closed)."""
        self._entries = [e for e in self._entries if e[0] != fn]

    def entries(self):
        """Snapshot of (fn, args) pairs in replay order."""
        return [(fn, args) for fn, args in self._entries]

    def __len__(self):
        return len(self._entries)
