#!/usr/bin/env python3
"""Regenerate the per-trial sum-SE references at the default seed.

    python3 bench/make_references.py [workload ...]

Run from the repository root. Only a change that is meant to move seqcf's
numbers should regenerate them, and it must say why they moved.
"""
from __future__ import annotations

import json
import sys

import run  # noqa: F401  (pins BLAS threads and puts ./src on the path)
from gate import check_rows, reference_path, rows_to_json
from workloads import DEFAULT_SEED, WORKLOADS, build_pool


def main(argv) -> int:
    import seqcf

    for name in argv or WORKLOADS:
        batches = []
        for spec in build_pool(WORKLOADS[name], DEFAULT_SEED):
            rows = seqcf.run_experiment(spec)
            problems = check_rows(spec, rows)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            batches.append(rows_to_json(rows))
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": name, "seed": DEFAULT_SEED,
                                    "batches": batches}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
