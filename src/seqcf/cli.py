# Command-line entry point: sweep-users / sweep-rate / selftest.
from __future__ import annotations

import argparse
import os
import stat
import sys

from .config import ConfigError, NetworkConfig, parse_config_file
from .experiment import (SWEEPS, ExperimentError, ExperimentSpec, Strategy, emit_csv,
                         run_experiment)

DEFAULT_STRATEGIES = "sp-ef-wsinm,sp-lf-wsinm,tp-ef-wsinm,tp-lf-wsinm,sp-ef-infinite"


def _add_common(sub: argparse.ArgumentParser, axis: str) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="flat key=value config file (defaults: L=12, N=10, K=20)")
    sub.add_argument("--seed", type=int, default=1, metavar="U64",
                     help="master RNG seed (default: 1)")
    sub.add_argument("--trials", type=int, default=200, metavar="N",
                     help="Monte-Carlo drops per sweep point (default: 200)")
    sub.add_argument("--out", default="results.csv", metavar="PATH",
                     help="output CSV path")
    sub.add_argument("--strategies", default=DEFAULT_STRATEGIES, metavar="LIST",
                     help="comma list of path-allocation-compression triples, "
                          "e.g. sp-ef-eiu,tp-lf-wsinm")
    sub.add_argument("--values", metavar="LIST", required=True,
                     help=f"comma list of sweep values ({axis})")
    sub.set_defaults(sweep=axis)


def _build_spec(args) -> ExperimentSpec:
    name = SWEEPS[args.sweep]
    values = parse_list("--values", args.values, NetworkConfig.__annotations__[name])
    # the file's network is checked with the swept field at the first sweep value
    base = (parse_config_file(args.config, swept={name: values[0]}) if args.config
            else NetworkConfig())
    strategies = tuple(Strategy.parse(s) for s in args.strategies.split(","))
    return ExperimentSpec(base=base, sweep=args.sweep, values=values,
                          strategies=strategies, trials=args.trials, seed=args.seed)


def parse_list(option: str, text: str, parse) -> tuple:
    """The comma list text given for option, each item read by parse;
    ConfigError naming the option if one cannot be read."""
    try:
        return tuple(parse(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{option}: {exc}") from exc


def check_out(path: str, option: str) -> None:
    """Reject an output path the CSV cannot be written to, before any trial
    runs; the file itself is not opened, so an existing one is kept."""
    target = os.path.abspath(path)
    folder = os.path.dirname(target)
    if not os.path.isdir(folder):
        raise ConfigError(f"{option}: directory {folder} does not exist")
    try:
        writable = not stat.S_ISDIR(os.stat(target).st_mode) and os.access(target, os.W_OK)
    except FileNotFoundError:
        writable = os.access(folder, os.W_OK)
    except OSError:           # as a name too long for its folder
        writable = False
    if not writable:
        raise ConfigError(f"{option}: {path!r} is not a writable file")


def run_sweeps(build, option: str = "--out") -> int:
    """The run path of every front end: build() reads every input into {out
    path: spec}; each path is checked before the first trial, then each spec
    runs. ConfigError or ExperimentError: one `error:` line, exit status 1."""
    try:
        runs = build()
        for out in runs:
            check_out(out, option)
        for out, spec in runs.items():
            rows = run_experiment(spec)
            emit_csv(rows, out)
            print(f"wrote {len(rows)} rows to {out}")
    except (ConfigError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seqcf",
        description="Monte-Carlo simulator for the uplink of a cell-free "
                    "massive MIMO network with a capacity-limited sequential "
                    "fronthaul chain.")
    subs = parser.add_subparsers(dest="command", required=True)

    su = subs.add_parser("sweep-users", help="sum SE vs number of users")
    _add_common(su, "users")
    sr = subs.add_parser("sweep-rate", help="sum SE vs total fronthaul budget R_T")
    _add_common(sr, "rate")
    st = subs.add_parser("selftest", help="run the built-in oracle/invariant checks")
    st.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "selftest":
        if args.seed < 0:
            print(f"error: seed must be non-negative, got {args.seed}", file=sys.stderr)
            return 1
        from .selftest import run_selftest
        return 0 if run_selftest(args.seed) else 1
    return run_sweeps(lambda: {args.out: _build_spec(args)})


if __name__ == "__main__":
    sys.exit(main())
