"""Correctness gate on the per-trial sum SE that run_experiment returns.

On every seed each value must be finite and >= 0, and no strategy may beat
centralized LMMSE (the linear upper bound) on the same drop. At the default
seed every value must also match the committed reference.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import CENTRALIZED, DEFAULT_SEED

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Relative tolerance against the references: the ROADMAP's "same numbers"
# target. README.md records how far round-off and solver changes move them.
REL_TOL = 1e-9
# Slack for a compressed strategy against centralized LMMSE on the same drop.
BOUND_REL_TOL = 1e-9
# Absolute floor, in bits/s/Hz, so a reference of exactly 0 tolerates round-off.
ABS_TOL = 1e-12


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json"


def row_key(row) -> tuple:
    return float(row.sweep_value), row.strategy.label()


def rows_to_json(rows) -> list:
    return [{"sweep_value": float(r.sweep_value), "strategy": r.strategy.label(),
             "per_trial": [float(x) for x in r.per_trial]} for r in rows]


def load_reference(workload_name: str) -> list:
    """Per batch, a map (sweep value, strategy label) -> per-trial sum SE."""
    data = json.loads(reference_path(workload_name).read_text(encoding="utf-8"))
    if data["seed"] != DEFAULT_SEED:
        raise ValueError(f"reference for {workload_name} is not at the default seed")
    return [{(float(r["sweep_value"]), r["strategy"]): r["per_trial"] for r in rows}
            for rows in data["batches"]]


def check_rows(spec, rows, reference: dict | None = None) -> list:
    """Problems found in one run_experiment call's rows; empty when correct."""
    problems = []
    got = {row_key(r): [float(x) for x in r.per_trial] for r in rows}
    expected = {(float(v), s.label()) for v in spec.values for s in spec.strategies}
    if set(got) != expected:
        return [f"seed {spec.seed}: rows {sorted(got)} != expected {sorted(expected)}"]
    for (value, label), vals in got.items():
        where = f"seed {spec.seed} value {value:g} {label}"
        if len(vals) != spec.trials:
            problems.append(f"{where}: {len(vals)} trials, expected {spec.trials}")
            continue
        central = got[(value, CENTRALIZED)]
        for t, x in enumerate(vals):
            if not math.isfinite(x) or x < 0:
                problems.append(f"{where} trial {t}: sum SE {x!r} is not finite and >= 0")
            elif x > central[t] * (1.0 + BOUND_REL_TOL):
                problems.append(f"{where} trial {t}: sum SE {x!r} exceeds "
                                f"{CENTRALIZED} {central[t]!r}")
        if reference is None:
            continue
        ref = reference.get((value, label))
        if ref is None or len(ref) != len(vals):
            problems.append(f"{where}: no reference with {len(vals)} trials")
            continue
        for t, (x, r) in enumerate(zip(vals, ref)):
            if not math.isclose(x, r, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"{where} trial {t}: sum SE {x!r} != reference {r!r}")
    return problems
