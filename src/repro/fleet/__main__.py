"""CLI for the fleet harness: ``python -m repro.fleet``.

Examples::

    python -m repro.fleet --devices 128
    python -m repro.fleet --devices 1024 --json out.json
    python -m repro.fleet --devices 256 --decaf-fraction 0.8 --no-faults
"""

import argparse
import json
import sys

from .harness import DEFAULT_MIX, FleetSpec, fleet_workload


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Probe, drive, churn and fault a fleet of simulated "
                    "devices under one kernel.",
    )
    parser.add_argument("--devices", "-n", type=int, default=128,
                        help="device slots (1..4096, default 128)")
    parser.add_argument("--duration-ms", type=int, default=150,
                        help="tick rounds worth of traffic (default 150)")
    parser.add_argument("--decaf-fraction", type=float, default=0.5,
                        help="fraction of slots running decaf drivers")
    parser.add_argument("--cpus", type=int, default=4,
                        help="virtual CPUs (default 4)")
    parser.add_argument("--mix", default=",".join(DEFAULT_MIX),
                        help="comma-separated driver families to cycle")
    parser.add_argument("--churn-period-ms", type=int, default=20,
                        help="rounds between churn events (default 20)")
    parser.add_argument("--fault-period-ms", type=int, default=10,
                        help="rounds between fault injections (default 10)")
    parser.add_argument("--no-faults", action="store_true",
                        help="disable fault injection")
    parser.add_argument("--no-churn", action="store_true",
                        help="disable remove/re-probe churn")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--json", metavar="PATH",
                        help="write the result row as JSON ('-' = stdout)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = FleetSpec(
            n_devices=args.devices,
            mix=tuple(f.strip() for f in args.mix.split(",") if f.strip()),
            decaf_fraction=args.decaf_fraction,
            nr_cpus=args.cpus,
            duration_ms=args.duration_ms,
            churn_period_ms=(args.duration_ms * 10 if args.no_churn
                             else args.churn_period_ms),
            fault_period_ms=0 if args.no_faults else args.fault_period_ms,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    result = fleet_workload(spec)
    row = result.row()
    width = max(len(key) for key in row)
    for key, value in row.items():
        print("%-*s  %s" % (width, key, value))
    if args.json:
        payload = json.dumps(row, indent=2, default=str)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
            print("wrote %s" % args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
