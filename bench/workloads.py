"""The benchmark's workloads: fixed ExperimentSpecs for seqcf.run_experiment.

README.md in this directory records why each workload exists and which
layer it stresses.
"""
from __future__ import annotations

from dataclasses import dataclass

# A run cycles through this many distinct run_experiment calls ("batches").
# Cycling keeps the inputs of a run finite, so the references at the default
# seed cover every value a run of any length computes.
POOL_BATCHES = 8
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict              # NetworkConfig overrides
    sweep: str                # "users" | "rate"
    values: tuple
    strategies: tuple         # strategy labels, path-allocation-compression
    trials_per_call: int      # sized so one call takes roughly half a second


WORKLOADS = {w.name: w for w in (
    Workload("fig2-wsinm", {"L": 12, "N": 10, "K": 20}, "rate", (500.0,),
             ("sp-ef-wsinm", "sp-lf-wsinm", "tp-ef-wsinm", "tp-lf-wsinm",
              "sp-ef-infinite"), 1),
    Workload("long-chain-eiu", {"L": 48, "N": 10, "K": 20}, "rate", (2000.0,),
             ("sp-ef-eiu", "sp-log-eiu", "tp-ef-eiu", "sp-ef-infinite"), 2),
    Workload("users-sweep-scnm", {"L": 12, "N": 10, "R_T": 500.0}, "users", (5, 20, 40),
             ("sp-ef-scnm", "tp-ef-scnm", "tp-lf-eiu", "sp-ef-infinite"), 2),
)}

# the centralized LMMSE strategy every workload runs; the linear upper bound
CENTRALIZED = "sp-ef-infinite"


def build_pool(workload: Workload, seed: int) -> list:
    """The POOL_BATCHES specs of one run; batch b uses spec seed seed*POOL_BATCHES + b."""
    import seqcf   # imported here so that set-up timing includes it

    if seed < 0:
        raise ValueError("the workload seed must be non-negative")
    base = seqcf.NetworkConfig(**workload.config)
    strategies = tuple(seqcf.Strategy.parse(s) for s in workload.strategies)
    return [seqcf.ExperimentSpec(base=base, sweep=workload.sweep, values=workload.values,
                                 strategies=strategies, trials=workload.trials_per_call,
                                 seed=seed * POOL_BATCHES + b)
            for b in range(POOL_BATCHES)]


def evaluations(spec) -> int:
    """(sweep value x trial x strategy) evaluations one run_experiment call attempts."""
    return len(spec.values) * spec.trials * len(spec.strategies)


def drops(spec) -> int:
    """Channel drops one run_experiment call draws: one per (sweep value x trial)."""
    return len(spec.values) * spec.trials
