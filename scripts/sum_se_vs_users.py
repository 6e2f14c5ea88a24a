#!/usr/bin/env python3
"""Sum SE vs number of users (L=12, M=120, WSINM bit allocation).

Produces one CSV per total fronthaul budget, comparing EF/LF x SP/TP against
the infinite-capacity baseline.
"""
import argparse
import os

# one BLAS thread unless the caller chose otherwise, set before numpy loads:
# the matrices are small, and more threads than idle cores slow the run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from seqcf import ExperimentSpec, NetworkConfig, Strategy, emit_csv, run_experiment  # noqa: E402

STRATEGIES = ["sp-ef-wsinm", "sp-lf-wsinm", "tp-ef-wsinm", "tp-lf-wsinm",
              "sp-ef-infinite"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--users", default="1,5,10,15,20")
    ap.add_argument("--budgets", default="500,1000")
    ap.add_argument("--out-prefix", default="sum_se_vs_users")
    args = ap.parse_args()

    users = tuple(int(v) for v in args.users.split(","))
    for R_T in (float(v) for v in args.budgets.split(",")):
        base = NetworkConfig(L=12, N=10, K=max(users), R_T=R_T, tau_c=200)
        spec = ExperimentSpec(base=base, sweep="users", values=users,
                              strategies=tuple(Strategy.parse(s) for s in STRATEGIES),
                              trials=args.trials, seed=args.seed)
        rows = run_experiment(spec)
        out = f"{args.out_prefix}_RT{int(R_T)}.csv"
        emit_csv(rows, out)
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
