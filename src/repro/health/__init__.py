"""repro.health: the always-on kernel health plane.

Three pieces layered over virtual time (see DESIGN.md "Health plane"):

* :class:`KstatRegistry` -- the one counter namespace: named
  hierarchical counters/gauges, pulled lazily from subsystem providers
  (``kernel.kstat`` on every kernel).
* :class:`FlightRecorder` -- bounded ring of recent events, always
  collecting, dumped as a JSON crash report on faults/watchdog fires.
* :class:`Watchdogs` -- soft-lockup and hung-task/wedged-queue
  detection; feeds the recovery supervisor.

CLIs: ``python -m repro.health.top`` (kstat "top" view, ``--watch``
deltas) and ``python -m repro.health.postmortem`` (summarize a dump).
"""

from .flight import FlightRecorder
from .kstat import KstatRegistry
from .plane import HealthPlane
from .watchdog import Watchdogs

__all__ = [
    "FlightRecorder",
    "HealthPlane",
    "KstatRegistry",
    "Watchdogs",
]
