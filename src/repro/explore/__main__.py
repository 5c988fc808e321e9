"""CLI for the systematic explorer and the XPC adversary.

Examples::

    # depth-6 e1000 exploration: canonical orders x fault placements x
    # irq deferrals, repro scripts + JSON report under explore_out/
    PYTHONPATH=src python -m repro.explore --driver e1000 --depth 6 \\
        --out explore_out

    # same, plus the adversarial corpus against the e1000 nucleus
    PYTHONPATH=src python -m repro.explore --driver e1000 --depth 6 \\
        --adversary

    # the full adversary corpus against all five nuclei (CI smoke)
    PYTHONPATH=src python -m repro.explore --adversary-only \\
        --driver all --depth 4

Exit status: 0 when every exploration is divergence-free and every
adversarial mutation was contained; 1 otherwise.
"""

import argparse
import json
import os
import sys
import time

from ..conformance.scenario import DRIVERS
from .adversary import run_adversary
from .explorer import Explorer, write_report


def _say(msg):
    print(msg, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="bounded systematic exploration + adversarial XPC",
    )
    parser.add_argument("--driver", action="append", default=None,
                        help="driver to explore (repeatable; 'all' for "
                             "all five; default e1000)")
    parser.add_argument("--depth", type=int, default=6,
                        help="events in the base schedule (1..8)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smp", type=int, default=1)
    parser.add_argument("--fault-cap", type=int, default=3,
                        help="enumerated xpc_raise placements per order")
    parser.add_argument("--no-defer", action="store_true",
                        help="skip the irq-deferral axis")
    parser.add_argument("--no-minimize", action="store_true",
                        help="emit findings without ddmin")
    parser.add_argument("--adversary", action="store_true",
                        help="also run the mutation corpus")
    parser.add_argument("--adversary-only", action="store_true",
                        help="run only the mutation corpus")
    parser.add_argument("--adversary-points", type=int, default=24,
                        help="max crossings attacked per driver")
    parser.add_argument("--out", default=None,
                        help="directory for JSON reports + repro scripts")
    args = parser.parse_args(argv)

    drivers = args.driver or ["e1000"]
    if "all" in drivers:
        drivers = list(DRIVERS)

    failed = False
    for driver in drivers:
        if not args.adversary_only:
            started = time.time()
            explorer = Explorer(
                driver, depth=args.depth, seed=args.seed, smp=args.smp,
                fault_cap=args.fault_cap, defer=not args.no_defer,
                out_dir=args.out, minimize=not args.no_minimize,
            )
            report = explorer.run(log=_say)
            elapsed = time.time() - started
            states = report.to_json()["states"]
            _say("%s depth=%d: %d/%d states explored (%d pruned, "
                 "ratio %.1fx), %d pairs, %d findings [%.1fs]"
                 % (driver, args.depth, states["explored"],
                    states["total"],
                    states["pruned_redundant"]
                    + states["pruned_unreachable"],
                    states["ratio"], report.pairs_run,
                    len(report.findings), elapsed))
            if args.out:
                path = write_report(report, args.out)
                _say("  report: %s" % path)
            if not report.ok:
                failed = True
        if args.adversary or args.adversary_only:
            adv = run_adversary(
                driver, depth=min(args.depth, 4), seed=args.seed,
                max_points=args.adversary_points, log=_say)
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out,
                                    "adversary_%s.json" % driver)
                with open(path, "w") as fh:
                    json.dump(adv.to_json(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
                _say("  report: %s" % path)
            if not adv.ok:
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
