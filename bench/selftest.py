#!/usr/bin/env python3
"""Self-test of the correctness gate: it must reject corrupted results.

    python3 bench/selftest.py

Run from the repository root. For each workload it computes the first batch
at the default seed, checks that the gate accepts it, and then that the gate
rejects a copy with one per-trial sum SE set to NaN, one perturbed by 1e-6
relative, and one raised above centralized LMMSE. Exits 0 when every check
holds.
"""
from __future__ import annotations

import copy
import sys

import run  # noqa: F401  (pins BLAS threads and puts ./src on the path)
from gate import check_rows, load_reference
from workloads import CENTRALIZED, DEFAULT_SEED, WORKLOADS, build_pool


def corrupted(rows, label: str, change):
    """A deep copy of rows with change applied to trial 0 of the first row of label."""
    out = copy.deepcopy(rows)
    row = next(r for r in out if r.strategy.label() == label)
    row.per_trial[0] = change(row.per_trial[0])
    return out


def main() -> int:
    import seqcf

    failures = []

    def expect(name, problems, should_fail):
        if bool(problems) != should_fail:
            failures.append(f"{name}: gate {'accepted' if should_fail else 'rejected'} it"
                            + "".join(f"\n    {p}" for p in problems))

    for name, workload in WORKLOADS.items():
        spec = build_pool(workload, DEFAULT_SEED)[0]
        reference = load_reference(name)[0]
        rows = seqcf.run_experiment(spec)
        compressed = workload.strategies[0]
        expect(f"{name} as computed", check_rows(spec, rows, reference), False)
        for ref in (reference, None):
            at = "default seed" if ref is not None else "other seed"
            expect(f"{name} NaN at {at}",
                   check_rows(spec, corrupted(rows, compressed, lambda x: float("nan")), ref),
                   True)
        expect(f"{name} 1e-6 relative",
               check_rows(spec, corrupted(rows, compressed, lambda x: x * (1 + 1e-6)),
                          reference), True)
        central = next(r for r in rows if r.strategy.label() == CENTRALIZED).per_trial[0]
        expect(f"{name} above {CENTRALIZED}",
               check_rows(spec, corrupted(rows, compressed, lambda x: 1.01 * central), None),
               True)
    for f in failures:
        print(f"FAIL {f}")
    print("bench selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
