#!/usr/bin/env python3
"""Sum SE vs total fronthaul budget R_T (L=12, M=120, K=20).

Compares all three compression designs under EF/LF allocation, for both
Single-Path and Two-Path propagation.
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

STRATEGIES = [f"{pm}-{al}-{co}"
              for pm in ("sp", "tp")
              for al in ("ef", "lf")
              for co in ("eiu", "scnm", "wsinm")] + ["sp-ef-infinite"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--budgets", default=",".join(str(v) for v in range(100, 1001, 100)))
    ap.add_argument("--out", default="sum_se_vs_rate.csv")
    args = ap.parse_args(argv)

    try:      # every input is checked before the first trial runs
        base = NetworkConfig(L=12, N=10, K=20, tau_c=200)
        spec = ExperimentSpec(base=base, sweep="rate",
                              values=parse_list("--budgets", args.budgets, float),
                              strategies=tuple(Strategy.parse(s) for s in STRATEGIES),
                              trials=args.trials, seed=args.seed)
        check_out(args.out)
        emit_csv(run_experiment(spec), args.out)
    except (ConfigError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
