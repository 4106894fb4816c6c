"""Command-line experiment runner.

    ofdmasched run --use-case UC4 --scheduler lsds --out-dir results/
    ofdmasched compare --use-case UC4 --schedulers lsds,edf,lrf --seed 1

``run`` accepts a JSON config file (--config); flags override file
values. Exit status is 0 only when the run completed and the schedule
validated clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .experiment import CSV_HEADER, ExperimentConfig, compare, run
from .simulator import SCHEDULERS
from .workload import USE_CASES

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def _add_common(parser):
    parser.add_argument("--use-case", choices=USE_CASES)
    parser.add_argument("--bandwidth", type=int, dest="bandwidth_mhz")
    parser.add_argument("--channel")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--horizon-us", type=int, dest="horizon_us")
    parser.add_argument("--txop-us", type=int, dest="txop_us")
    parser.add_argument("--grid-us", type=int, dest="grid_us")
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--force", action="store_true", default=None)


def _build_config(args, overrides) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc.strerror}") from None
        if not isinstance(file_values, dict):
            raise ValueError("the config file must hold a JSON object")
        unknown = set(file_values) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for key in _CONFIG_KEYS:
        v = overrides.get(key)
        if v is not None:
            values[key] = v
    for key in ("use_case", "scheduler"):
        if key not in values:
            raise ValueError(f"{key} is required (flag or config file)")
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ofdmasched",
                                     description="Deadline-aware OFDMA scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write artifacts")
    _add_common(p_run)
    p_run.add_argument("--scheduler", choices=SCHEDULERS)
    p_run.add_argument("--reps", type=int)
    p_run.add_argument("--config", help="JSON config file; flags override")

    p_cmp = sub.add_parser("compare", help="run several schedulers on one workload")
    _add_common(p_cmp)
    p_cmp.add_argument("--schedulers", required=True,
                       help="comma-separated list, e.g. lsds,edf,lrf")

    args = parser.parse_args(argv)
    overrides = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
    try:
        if args.command == "run":
            row = run(_build_config(args, overrides))
            print(CSV_HEADER)
            print(row.csv())
            return 0
        # compare writes compare.csv to --out-dir, not one run's artifacts
        names = [s.strip() for s in args.schedulers.split(",") if s.strip()]
        configs = [_build_config(args, {**overrides, "scheduler": name, "out_dir": None})
                   for name in names]
        table, rows = compare(configs)
        print(table)
        if args.out_dir:
            from pathlib import Path
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "compare.csv").write_text(
                "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n")
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
