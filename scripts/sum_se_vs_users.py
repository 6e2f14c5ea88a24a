#!/usr/bin/env python3
"""Sum SE vs number of users (L=12, M=120, WSINM bit allocation).

Produces one CSV per total fronthaul budget, comparing EF/LF x SP/TP against
the infinite-capacity baseline.
"""
import argparse

from seqcf import ConfigError, ExperimentSpec, NetworkConfig, Strategy
from seqcf.cli import DEFAULT_STRATEGIES, parse_list, run_sweeps

STRATEGIES = DEFAULT_STRATEGIES.split(",")


def out_path(prefix: str, R_T: float) -> str:
    """The CSV of budget R_T: a whole budget below 2^53, where every integer
    is exact, by its integer, any other by its shortest repr (1e+300 rather
    than 301 digits), so distinct budgets never share a file."""
    whole = R_T.is_integer() and R_T < 2.0 ** 53
    return f"{prefix}_RT{int(R_T) if whole else repr(R_T)}.csv"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--users", default="1,5,10,15,20")
    ap.add_argument("--budgets", default="500,1000")
    ap.add_argument("--out-prefix", default="sum_se_vs_users")
    args = ap.parse_args(argv)

    def runs() -> dict:
        users = parse_list("--users", args.users, int)
        strategies = tuple(Strategy.parse(s) for s in STRATEGIES)
        specs = {}                # output path -> the spec of its budget
        for R_T in parse_list("--budgets", args.budgets, float):
            try:
                base = NetworkConfig(R_T=R_T)
            except ConfigError as exc:
                raise ConfigError(f"--budgets: budget {R_T:g}: {exc}") from exc
            out = out_path(args.out_prefix, R_T)
            if out in specs:
                raise ConfigError(f"--budgets: budget {R_T:g} is given twice")
            specs[out] = ExperimentSpec(base=base, sweep="users", values=users,
                                        strategies=strategies, trials=args.trials,
                                        seed=args.seed)
        return specs

    return run_sweeps(runs, "--out-prefix")


if __name__ == "__main__":
    raise SystemExit(main())
