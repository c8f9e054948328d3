"""Command-line entry point: run, list, and validate experiments.

`sgkink run` accepts one or more JSON configs and loads every one before it
runs any: a config that does not load, or two configs with the same file
stem, end the command with exit status 1 before anything runs.  The configs
then run in the order given.  One config writes to --out itself, several
write to --out/<stem>.  Exit status is 0 iff every experiment met its
tolerances.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    run_experiment,
    write_report,
)

__all__ = ["main"]


def _load(path):
    """The config at path, or None after printing to stderr why it is not one."""
    try:
        return ExperimentConfig.from_json(path)
    except (OSError, TypeError, ValueError) as exc:
        print(f"invalid config: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_run(args) -> int:
    cfgs = [_load(path) for path in args.configs]
    stems = [Path(path).stem for path in args.configs]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    for stem in shared:
        paths = ", ".join(p for p, s in zip(args.configs, stems) if s == stem)
        print(f"configs {paths} share the stem {stem!r} and would all write "
              f"to {Path(args.out) / stem}", file=sys.stderr)
    if shared or any(cfg is None for cfg in cfgs):
        return 1
    ok = True
    for path, stem, cfg in zip(args.configs, stems, cfgs):
        rep = run_experiment(cfg)
        write_report(rep, Path(args.out) if len(cfgs) == 1
                     else Path(args.out) / stem)
        print(f"{path}: {'ok' if rep.passed else 'FAILED'}")
        for msg in rep.failures:
            print(f"  tolerance violated: {msg}")
        ok = ok and rep.passed
    return 0 if ok else 1


def _cmd_list(_args) -> int:
    for name in EXPERIMENT_NAMES:
        print(name)
    return 0


def _cmd_validate(args) -> int:
    cfg = _load(args.config)
    if cfg is None:
        return 1
    print(f"valid config for experiment {cfg.name!r}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgkink",
        description="Numerical experiments on sine-Gordon kink dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from JSON configs")
    p_run.add_argument("configs", nargs="+", help="experiment config files")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config", help="experiment config file")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
