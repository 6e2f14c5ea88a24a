#!/usr/bin/env python3
"""Sum SE vs number of users (L=12, M=120, WSINM bit allocation).

Produces one CSV per total fronthaul budget, comparing EF/LF x SP/TP against
the infinite-capacity baseline.
"""
import argparse
import os
import sys

# one BLAS thread unless the caller chose otherwise, set before numpy loads:
# the matrices are small, and more threads than idle cores slow the run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from seqcf import ConfigError, ExperimentSpec, NetworkConfig, Strategy, emit_csv, run_experiment  # noqa: E402
from seqcf.cli import check_out, parse_list  # noqa: E402
from seqcf.experiment import ExperimentError  # noqa: E402

STRATEGIES = ["sp-ef-wsinm", "sp-lf-wsinm", "tp-ef-wsinm", "tp-lf-wsinm",
              "sp-ef-infinite"]


def out_path(prefix: str, R_T: float) -> str:
    """The CSV of budget R_T: a whole budget by its integer, any other by
    its shortest repr, so distinct budgets never share a file."""
    return f"{prefix}_RT{int(R_T) if R_T.is_integer() else repr(R_T)}.csv"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--users", default="1,5,10,15,20")
    ap.add_argument("--budgets", default="500,1000")
    ap.add_argument("--out-prefix", default="sum_se_vs_users")
    args = ap.parse_args(argv)

    try:      # every sweep's input is checked before the first trial runs
        users = parse_list("--users", args.users, int)
        strategies = tuple(Strategy.parse(s) for s in STRATEGIES)
        runs = {}                 # output path -> the spec of its budget
        for R_T in parse_list("--budgets", args.budgets, float):
            base = NetworkConfig(L=12, N=10, K=max(users), R_T=R_T, tau_c=200)
            out = out_path(args.out_prefix, R_T)
            if out in runs:
                raise ConfigError(f"--budgets: budget {R_T:g} is given twice")
            check_out(out, "--out-prefix")
            runs[out] = ExperimentSpec(base=base, sweep="users", values=users,
                                       strategies=strategies, trials=args.trials,
                                       seed=args.seed)
        for out, spec in runs.items():
            emit_csv(run_experiment(spec), out)
            print(f"wrote {out}")
    except (ConfigError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
