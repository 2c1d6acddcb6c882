"""Command-line entry point.

Subcommands map one-to-one onto the experiment drivers:

    prebuf single-user  --out results/
    prebuf buffer-sweep --z-max-multiple 10 --out results/
    prebuf multi-user   --kv 5 10 20 30 40 --num-seeds 10 --out results/

Exit codes: 0 success, 1 config error, 2 infeasible scenario.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .admission import AdmissionConfig, LedgerHorizonError
from .scenario import (ConfigError, ScenarioConfig, load_config,
                       run_buffer_sweep, run_multiuser, run_single_user)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2


def _add_common(sub):
    sub.add_argument("--config", help="scenario config file (INI)")
    sub.add_argument("--seed", type=int, help="override the scenario seed")
    sub.add_argument("--out", default="prebuf-out",
                     help="output directory for CSV files")
    sub.add_argument("--sigma-db", type=float,
                     help="override shadowing standard deviation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prebuf",
        description="Anticipatory buffer and spectrum allocation simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    single = subs.add_parser("single-user",
                             help="plan one user, both buffer cases")
    _add_common(single)

    sweep = subs.add_parser("buffer-sweep",
                            help="total spectrum versus buffer cap")
    _add_common(sweep)
    sweep.add_argument("--z-max-multiple", type=int, default=10,
                       help="sweep Z from 0 to this many slots of video")

    multi = subs.add_parser("multi-user", help="admission-control experiment")
    _add_common(multi)
    multi.add_argument("--kv", type=int, nargs="+",
                       default=[5, 10, 20, 30, 40],
                       help="request volumes to evaluate")
    multi.add_argument("--num-seeds", type=int, default=10)
    multi.add_argument("--available-prbs", type=float, default=15)
    multi.add_argument("--mean-interarrival", type=float, default=0.58)
    return parser


def _load_scenario(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.sigma_db is not None:
        config = replace(config,
                         shadowing=replace(config.shadowing,
                                           sigma_db=args.sigma_db))
    return config


def _check_flags(args) -> None:
    """Reject subcommand flags that no driver run could use."""
    if args.command == "buffer-sweep" and args.z_max_multiple < 0:
        raise ConfigError("--z-max-multiple must be >= 0")
    if args.command == "multi-user":
        if min(args.kv) < 1:
            raise ConfigError("--kv values must be >= 1")
        if args.num_seeds < 1:
            raise ConfigError("--num-seeds must be >= 1")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        config = _load_scenario(args)
        if args.command == "multi-user":
            admission = AdmissionConfig(
                total_requests=max(args.kv),
                mean_interarrival_s=args.mean_interarrival,
                available_prbs=args.available_prbs,
                seed=config.seed,
            )
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "single-user":
        summary = run_single_user(config, args.out)
        for key, value in summary.items():
            print(f"{key}: {value}")
        if not summary["feasible"]:
            print("scenario infeasible: no zero-outage plan exists",
                  file=sys.stderr)
            return EXIT_INFEASIBLE
    elif args.command == "buffer-sweep":
        v = config.video.bits_per_slot
        z_values = [k * v for k in range(args.z_max_multiple + 1)]
        result = run_buffer_sweep(config, z_values, args.out)
        print("total_prb_slots:",
              " ".join(f"{t:.6g}" for t in result["total_prb_slots"]))
    elif args.command == "multi-user":
        try:
            means = run_multiuser(config, admission, args.kv, args.out,
                                  num_seeds=args.num_seeds)
        except LedgerHorizonError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for row in means:
            print(f"kv={row['kv']} planner={row['planner']} "
                  f"mean_served={row['mean_served']:.3f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
