"""CLI: ``python -m repro.conformance --seeds 25``.

Sweeps seeds x drivers, replaying each generated scenario against both
driver variants with lockdep enabled.  Per (driver, seed) the mode is
chosen deterministically: every third seed runs ``faulty`` (an injected
fault + supervised recovery cycle), the rest ``strict``.  On
divergence, the scenario is ddmin-minimized and a repro script is
written to ``--out``; the exit status is the number of diverging
scenarios (0 = conformant).

``--selfcheck`` replays the whole sweep twice and compares the suite
digests byte-for-byte -- the determinism audit.
"""

import argparse
import os
import sys

from .minimize import minimize_scenario, write_repro_script
from .observe import digest_of
from .runner import DifferentialRunner, nobble_drop_tx
from .scenario import DRIVERS, ScenarioGenerator


def mode_for(seed):
    """Deterministic strict/faulty mix: seeds 2, 5, 8, ... run faulty."""
    return "faulty" if seed % 3 == 2 else "strict"


def run_sweep(seeds, drivers, runner, out_dir=None, verbose=False,
              echo=print):
    """Run the sweep; returns (results, suite_digest, failures)."""
    results = []
    failures = []
    for driver in drivers:
        for seed in seeds:
            scenario = ScenarioGenerator(seed).generate(
                driver, mode=mode_for(seed))
            result = runner.run_pair(scenario)
            results.append(result)
            status = "ok" if result.ok else "DIVERGED"
            if verbose or not result.ok:
                echo("%-10s seed=%-3d %-6s %-8s %s"
                     % (driver, seed, scenario.mode, status,
                        result.digest()[:16]))
            if not result.ok:
                failures.append(result)
                for divergence in result.divergences:
                    echo("    [%s] %s" % (divergence.channel,
                                          divergence.detail))
                if out_dir is not None:
                    minimized, runs = minimize_scenario(runner, scenario)
                    final = runner.run_pair(minimized)
                    path = os.path.join(
                        out_dir, "repro_%s_seed%d.py" % (driver, seed))
                    write_repro_script(
                        minimized,
                        final.divergences or result.divergences, path)
                    echo("    minimized to %d/%d events in %d runs -> %s"
                         % (len(minimized.events), len(scenario.events),
                            runs, path))
    suite_digest = digest_of([r.digest() for r in results])
    return results, suite_digest, failures


def run_canary(out_dir, echo=print):
    """A deliberately broken decaf rig must produce a divergence report
    (and a minimized repro); exit nonzero if the harness misses it."""
    runner = DifferentialRunner(nobble=nobble_drop_tx)
    scenario = ScenarioGenerator(1).generate("e1000", mode="strict")
    result = runner.run_pair(scenario)
    if result.ok:
        echo("CANARY FAILED: sabotaged decaf rig was not flagged")
        return 1
    echo("canary: %d divergences flagged" % len(result.divergences))
    for divergence in result.divergences[:4]:
        echo("    [%s] %s" % (divergence.channel, divergence.detail))
    if out_dir is not None:
        minimized, runs = minimize_scenario(runner, scenario)
        final = runner.run_pair(minimized)
        path = os.path.join(out_dir, "repro_canary_e1000.py")
        write_repro_script(minimized,
                           final.divergences or result.divergences, path,
                           nobble_name="nobble_drop_tx")
        echo("    minimized to %d/%d events in %d runs -> %s"
             % (len(minimized.events), len(scenario.events), runs, path))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="differential conformance sweep over the "
                    "legacy/decaf driver pairs")
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds per driver (default 10)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed (default 0)")
    parser.add_argument("--drivers", default=",".join(DRIVERS),
                        help="comma-separated driver list (default %s)"
                             % ",".join(DRIVERS))
    parser.add_argument("--smp", type=int, default=1,
                        help="virtual CPUs per rig (default 1); >1 also "
                             "runs the e1000 pair multi-queue")
    parser.add_argument("--out", default=None,
                        help="directory for divergence repro scripts")
    parser.add_argument("--canary", action="store_true",
                        help="also run the sabotaged-rig canary "
                             "(must diverge)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the sweep twice and require "
                             "byte-identical suite digests")
    parser.add_argument("--verbose", "-v", action="store_true")
    args = parser.parse_args(argv)

    drivers = [d.strip() for d in args.drivers.split(",") if d.strip()]
    for driver in drivers:
        if driver not in DRIVERS:
            parser.error("unknown driver %r (one of %s)"
                         % (driver, ", ".join(DRIVERS)))
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)

    runner = DifferentialRunner(smp=args.smp)
    results, suite_digest, failures = run_sweep(
        seeds, drivers, runner, out_dir=args.out, verbose=args.verbose)
    print("%d scenario pairs, %d divergent; suite digest %s"
          % (len(results), len(failures), suite_digest))

    status = len(failures)
    if args.selfcheck:
        _, second_digest, _ = run_sweep(seeds, drivers,
                                        DifferentialRunner(smp=args.smp))
        if second_digest != suite_digest:
            print("SELFCHECK FAILED: suite digest not reproducible "
                  "(%s != %s)" % (suite_digest, second_digest))
            status += 1
        else:
            print("selfcheck: suite digest reproducible")
    if args.canary:
        status += run_canary(args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
