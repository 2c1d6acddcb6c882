"""Command-line entry point.

Subcommands map one-to-one onto the experiment drivers:

    prebuf single-user  --out results/
    prebuf buffer-sweep --z-max-multiple 10 --out results/
    prebuf multi-user   --kv 5 10 20 30 40 --num-seeds 10 --out results/

Exit codes: 0 success, 1 config error, 2 infeasible scenario.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from ._checks import MAX_COUNT, check_int, check_items
from .admission import AdmissionConfig
from .scenario import (ConfigError, ScenarioConfig, load_config,
                       run_buffer_sweep, run_multiuser, run_single_user)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are config errors (exit 1).

    Subparsers inherit the class, so a bad flag value or an unknown
    subcommand never takes argparse's own exit 2, which means an
    infeasible scenario here.
    """

    def error(self, message):
        raise ConfigError(message)


def _infeasible() -> int:
    print("scenario infeasible: no zero-outage plan exists", file=sys.stderr)
    return EXIT_INFEASIBLE


def _single_user(config: ScenarioConfig, args) -> int:
    summary = run_single_user(config, args.out)
    for key, value in summary.items():
        print(f"{key}: {value}")
    return EXIT_OK if summary["feasible"] else _infeasible()


def _buffer_sweep(config: ScenarioConfig, args) -> int:
    check_int(args.z_max_multiple, "--z-max-multiple", 0, MAX_COUNT)
    v = config.video.bits_per_slot
    z_values = [k * v for k in range(args.z_max_multiple + 1)]
    totals = run_buffer_sweep(config, z_values, args.out)["total_prb_slots"]
    print("total_prb_slots:", " ".join(f"{t:.6g}" for t in totals))
    # a cap with no feasible plan is reported as costing inf
    return _infeasible() if all(map(math.isinf, totals)) else EXIT_OK


def _multi_user(config: ScenarioConfig, args) -> int:
    # checked first, so a bad kv is not reported as total_requests
    kv_values = check_items(args.kv, "kv", check_int, 1, MAX_COUNT)
    admission = AdmissionConfig(total_requests=max(kv_values),
                                mean_interarrival_s=args.mean_interarrival,
                                available_prbs=args.available_prbs,
                                seed=config.seed)
    means = run_multiuser(config, admission, kv_values, args.out,
                          num_seeds=args.num_seeds)
    for row in means:
        print(f"kv={row['kv']} planner={row['planner']} "
              f"mean_served={row['mean_served']:.3f}")
    return EXIT_OK


def _add_subcommand(subs, name, run, help_text):
    sub = subs.add_parser(name, help=help_text)
    sub.set_defaults(run=run)
    sub.add_argument("--config", help="scenario config file (INI)")
    sub.add_argument("--seed", type=int, help="override the scenario seed")
    sub.add_argument("--out", default="prebuf-out",
                     help="output directory for CSV files")
    sub.add_argument("--sigma-db", type=float,
                     help="override shadowing standard deviation")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prebuf",
        description="Anticipatory buffer and spectrum allocation simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_subcommand(subs, "single-user", _single_user,
                    "plan one user, both buffer cases")

    sweep = _add_subcommand(subs, "buffer-sweep", _buffer_sweep,
                            "total spectrum versus buffer cap")
    sweep.add_argument("--z-max-multiple", type=int, default=10,
                       help="sweep Z from 0 to this many slots of video")

    multi = _add_subcommand(subs, "multi-user", _multi_user,
                            "admission-control experiment")
    multi.add_argument("--kv", type=int, nargs="+",
                       default=[5, 10, 20, 30, 40],
                       help="request volumes to evaluate")
    multi.add_argument("--num-seeds", type=int, default=10)
    multi.add_argument("--available-prbs", type=float,
                       default=AdmissionConfig.available_prbs)
    multi.add_argument("--mean-interarrival", type=float,
                       default=AdmissionConfig.mean_interarrival_s)
    return parser


def _load_scenario(args) -> ScenarioConfig:
    config = (ScenarioConfig() if args.config is None
              else load_config(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.sigma_db is not None:
        config = replace(config,
                         shadowing=replace(config.shadowing,
                                           sigma_db=args.sigma_db))
    return config


def main(argv=None) -> int:
    # The one error boundary.  Bad input raises a ValueError before any
    # output is written: a ConfigError from the argument parser or the INI
    # loader, a plain ValueError from the library.  An OSError names the
    # path (--out is a file, or is not writable).  A RuntimeError is a
    # broken invariant and keeps its traceback.
    try:
        args = build_parser().parse_args(argv)
        return args.run(_load_scenario(args), args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
