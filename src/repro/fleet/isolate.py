"""Stub kept only for the benchmark's traced run; no simulator code uses it.

``perfbench/spans.py`` imports this module and wraps ``ClonePool``, and
``perfbench/workloads.py`` reads ``FleetHarness.pool.stats()``.  A
fleet loads one module per driver variant and hot-plugs its devices
under it, so there is nothing to pool: ``stats()`` reports zero builds
and reuses, and ``fleet.clone_pool.reuse_frac`` reads 0.0.  The next change to the benchmark deletes this module and
``FleetHarness.pool`` (ROADMAP, the ``[benchmark]`` item).
"""


class ClonePool:
    """Counts nothing: there are no clones to pool."""

    def stats(self):
        return {"builds": 0, "reuses": 0, "pooled": 0}
