"""Divergence minimization and repro emission.

When a scenario diverges, the whole schedule is rarely needed to show
it.  :func:`minimize_scenario` is ddmin over the event list: split into
chunks, try dropping each chunk (and each complement), recurse at finer
granularity while the divergence persists.  The result is a 1-minimal
schedule -- removing any single surviving event makes the divergence
disappear -- which, serialized by :func:`write_repro_script`, becomes a
standalone reproduction a human can run and read.
"""

import importlib

from .observe import canonical_json


def ddmin(items, still_fails):
    """Classic delta-debugging minimization.

    ``still_fails(subset)`` must be deterministic (it is: scenarios are
    replayed, not re-generated).  Returns a 1-minimal sublist.
    """
    items = list(items)
    if not items or not still_fails(items):
        return items
    granularity = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // granularity)
        subsets = [items[i:i + chunk]
                   for i in range(0, len(items), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            complement = [ev for j, s in enumerate(subsets) if j != i
                          for ev in s]
            if complement and still_fails(complement):
                items = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if len(subsets) > 2 and still_fails(subset):
                items = subset
                granularity = 2
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def minimize_scenario(runner, scenario, max_runs=64):
    """Shrink ``scenario.events`` while the pair still diverges.

    Returns ``(minimized_scenario, runs_used)``.  ``max_runs`` caps the
    pair replays (each ddmin probe runs both variants); on budget
    exhaustion the best-so-far schedule is returned.
    """
    budget = {"runs": 0}

    def still_fails(events):
        if budget["runs"] >= max_runs:
            return False  # budget exhausted: treat as passing, stop
        budget["runs"] += 1
        result = runner.run_pair(scenario.replace_events(events))
        return not result.ok

    events = ddmin(scenario.events, still_fails)
    return scenario.replace_events(events), budget["runs"]


REPRO_TEMPLATE = '''\
#!/usr/bin/env python
"""Auto-generated conformance divergence repro.

Scenario: {describe}{defer_note}
Original divergences:
{divergence_lines}

Run with the repository's src/ on PYTHONPATH:

    PYTHONPATH=src python {filename}
"""

import json
import sys

{imports}

SCENARIO = json.loads(r"""
{scenario_json}
""")


def main():
    scenario = Scenario.from_json(SCENARIO)
    result = {run_pair}
    if result.ok:
        print("no divergence (fixed?): %s" % scenario.describe())
        return 0
    print("divergence reproduced: %s" % scenario.describe())
    for divergence in result.divergences:
        print("  [%s] %s" % (divergence.channel, divergence.detail))
    return 1


if __name__ == "__main__":
    sys.exit(main())
'''


def nobble_import(nobble):
    """``(import line, expression)`` naming ``nobble`` in a script.

    A repro script re-installs its nobble by ``__module__`` and
    ``__qualname__``.  A callable they do not lead back to (a lambda, a
    function under ``<locals>``, a bound method, anything defined in
    ``__main__``) raises ValueError.
    """
    module = getattr(nobble, "__module__", None)
    qualname = getattr(nobble, "__qualname__", None)
    found = None
    if module and module != "__main__" and qualname and "<" not in qualname:
        try:
            found = importlib.import_module(module)
        except ImportError:
            pass
        for part in qualname.split("."):
            found = getattr(found, part, None)
    if found is None or found is not nobble:
        raise ValueError("nobble %r cannot be imported by name" % (nobble,))
    return ("from %s import %s" % (module, qualname.split(".")[0]),
            qualname)


def write_repro_script(scenario, divergences, path, nobble=None,
                       defer_event=None):
    """Emit a standalone repro script for a (minimized) scenario.

    ``nobble``, if given, is the callable the runner installed on the
    decaf rig (e.g. the canary's ``nobble_drop_tx``); the emitted script
    imports it by name (:func:`nobble_import`, which raises ValueError
    for a nobble it cannot name) and re-installs it, so the divergence
    it provoked still reproduces standalone.  ``defer_event``, if
    given, runs the pair with that event's interrupts deferred to the
    next event boundary (``repro.explore.run_defer_pair``), the
    exploration's irq-deferral axis.
    """
    lines = "\n".join("  [%s] %s" % (d.channel, d.detail)
                      for d in divergences) or "  (none recorded)"
    imports = "from repro.conformance import DifferentialRunner, Scenario"
    runner = "DifferentialRunner()"
    if nobble is not None:
        line, name = nobble_import(nobble)
        imports += "\n" + line
        runner = "DifferentialRunner(nobble=%s)" % name
    if defer_event is None:
        defer_note = ""
        run_pair = runner + ".run_pair(scenario)"
    else:
        defer_note = ("\nDeferred event: %d (its irq asserts deliver at the "
                      "next\nevent boundary in both variants)." % defer_event)
        imports += "\nfrom repro.explore import run_defer_pair"
        run_pair = "run_defer_pair(%s, scenario, %d)" % (runner, defer_event)
    text = REPRO_TEMPLATE.format(
        describe=scenario.describe(),
        defer_note=defer_note,
        divergence_lines=lines,
        filename=getattr(path, "name", str(path)),
        imports=imports,
        scenario_json=canonical_json(scenario.to_json()),
        run_pair=run_pair,
    )
    with open(path, "w") as fh:
        fh.write(text)
    return path
