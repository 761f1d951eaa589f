"""Command-line interface.

Subcommands mirror the experiment kinds (``power-curve``, ``group-recovery``,
``estimator-compare``, ``search``) plus ``ingest-check`` for validating data
files.  Exit codes: 0 success, 1 configuration error, 2 data error, 3 runtime
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from pathlib import Path

from .config import load_config
from .errors import ConfigError, DataError
from .experiments import run_experiment
from .ingest import ingest

EXPERIMENT_COMMANDS = ("power-curve", "group-recovery", "estimator-compare", "search")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlat",
        description="Estimate the maximal symmetry of a regression function "
                    "by testing invariance over a subgroup lattice.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in EXPERIMENT_COMMANDS:
        p = sub.add_parser(cmd, help=f"run a {cmd} experiment from a config file")
        p.add_argument("--config", required=True, help="experiment config path")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--jobs", type=int, default=None, help="worker-pool size")
        p.add_argument("--format", choices=("csv", "svg", "both"), default=None,
                       help="override the output format")
    p = sub.add_parser("ingest-check", help="validate a CSV or IDX dataset")
    p.add_argument("path", help="CSV file or IDX image file")
    p.add_argument("--format", choices=("csv", "idx"), required=True)
    p.add_argument("--labels", default=None, help="IDX label file")
    p.add_argument("--response", default="y", help="CSV response column name")
    return parser


def _run_ingest_check(args) -> int:
    data = ingest(args.path, args.format, labels=args.labels, response=args.response)
    print(f"ok: n={data.n} d={data.dim} "
          f"response range [{data.Y.min():.6g}, {data.Y.max():.6g}]")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "ingest-check":
            return _run_ingest_check(args)
        cfg = load_config(args.config)
        if cfg.kind != args.command:
            raise ConfigError(f"config kind {cfg.kind!r} does not match "
                              f"subcommand {args.command!r}")
        # replace() reruns the config's checks on the overridden values
        overrides = {"seed": args.seed, "jobs": args.jobs, "fmt": args.format}
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        out_dir = Path(args.out) if args.out is not None else Path(cfg.out)
        try:
            paths = run_experiment(cfg, out_dir)
        except ConfigError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
        if cfg.kind == "search":
            result = paths["result"]
            lattice = paths["lattice"]
            tilde = ", ".join(lattice.node(i).label for i in result.tilde_set)
            print(f"estimate: {lattice.node(result.estimate).label}")
            print(f"surviving maxima: {tilde}")
            print(f"tests performed: {result.tests_performed} "
                  f"(computation units {result.computation_units})")
        for key in ("csv", "means_csv", "svg", "annotation"):
            if key in paths:
                print(f"wrote {paths[key]}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        traceback.print_exc()
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
