"""Command-line entry point.

Subcommands:
  run       execute an experiment config and write trace CSVs
  aggregate collapse written traces into per-algorithm regret curves

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import bench
from .bench import ConfigError
from .kernels import FactorizationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _output_root() -> Path:
    return Path(os.environ.get("ROBUSTBO_OUTPUT_ROOT", "."))


def _cmd_run(args) -> int:
    cfg = bench.load_config(args.config)
    if args.seeds:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --seeds value {args.seeds!r}") from exc
        cfg = dataclasses.replace(cfg, seeds=seeds)
    out_dir = _output_root() / (args.out if args.out else cfg.name)
    results = bench.run_experiment(cfg, out_dir)
    print(f"wrote {len(results)} trace(s) to {out_dir}")
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    results = bench.read_traces(args.traces)
    rows = bench.aggregate(results)
    out = Path(args.out) if args.out else Path(args.traces) / "aggregate.csv"
    bench.write_aggregate(out, rows)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="robustbo", description="Outlier-robust Bayesian optimization benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment JSON")
    p_run.add_argument("--seeds", help="comma-separated seed list overriding the config")
    p_run.add_argument("--out", help="output directory (default: the config's name)")
    p_run.set_defaults(fn=_cmd_run)

    p_agg = sub.add_parser("aggregate", help="aggregate trace CSVs into regret curves")
    p_agg.add_argument("--in", dest="traces", required=True, help="directory containing *_seed*.csv traces")
    p_agg.add_argument("--out", help="output CSV path (default: <traces>/aggregate.csv)")
    p_agg.set_defaults(fn=_cmd_aggregate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FactorizationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
