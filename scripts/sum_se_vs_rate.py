#!/usr/bin/env python3
"""Sum SE vs total fronthaul budget R_T (L=12, M=120, K=20).

Compares all three compression designs under EF/LF allocation, for both
Single-Path and Two-Path propagation.
"""
import argparse

from seqcf import ExperimentSpec, NetworkConfig, Strategy
from seqcf.cli import parse_list, run_sweeps

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

    return run_sweeps(lambda: {args.out: ExperimentSpec(
        base=NetworkConfig(), sweep="rate",
        values=parse_list("--budgets", args.budgets, float),
        strategies=tuple(Strategy.parse(s) for s in STRATEGIES),
        trials=args.trials, seed=args.seed)})


if __name__ == "__main__":
    raise SystemExit(main())
