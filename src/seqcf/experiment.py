# Monte-Carlo experiment orchestration: paired sweeps over K or R_T across
# strategy combinations, aggregation, and CSV emission.
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import allocation, metrics, twopath
from .chain import run_chain
from .compression import SolverError
from .config import ConfigError, NetworkConfig
from .geometry import draw_channels, place_network
from .linalg import PsdError

PATH_MODES = ("sp", "tp")
COMPRESSIONS = ("eiu", "scnm", "wsinm", "infinite")

# share of a cell's trials that may fail numerically before the run stops
MAX_FAILURE_FRAC = 0.01

CSV_HEADER = "sweep,path_mode,allocation,compression,mean_sum_se,stderr,trials,seed"


class ExperimentError(RuntimeError):
    pass


@dataclass(frozen=True)
class Strategy:
    path_mode: str
    allocation: str
    compression: str

    def __post_init__(self):
        if self.path_mode not in PATH_MODES:
            raise ConfigError(f"unknown path mode {self.path_mode!r}")
        if self.allocation not in allocation.SCHEMES:
            raise ConfigError(f"unknown allocation scheme {self.allocation!r}")
        if self.compression not in COMPRESSIONS:
            raise ConfigError(f"unknown compression strategy {self.compression!r}")

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Parse 'sp-ef-wsinm' style triples."""
        parts = text.strip().lower().split("-")
        if len(parts) != 3:
            raise ConfigError(f"strategy must be path-allocation-compression, got {text!r}")
        return cls(*parts)

    def label(self) -> str:
        return f"{self.path_mode}-{self.allocation}-{self.compression}"


@dataclass(frozen=True)
class ExperimentSpec:
    base: NetworkConfig
    sweep: str                 # "users" | "rate"
    values: tuple
    strategies: tuple
    trials: int
    seed: int

    def __post_init__(self):
        if self.sweep not in ("users", "rate"):
            raise ConfigError(f"sweep axis must be 'users' or 'rate', got {self.sweep!r}")
        if not self.values:
            raise ConfigError("sweep values must be non-empty")
        if not self.strategies:
            raise ConfigError("strategy list must be non-empty")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for val in self.values:      # every point is valid before any trial runs
            self.point_config(val)
        L = self.base.L
        for s in self.strategies:
            if s.path_mode == "tp" and L < 2:
                raise ConfigError(f"{s.label()}: Two-Path needs at least 2 APs, got L={L}")
            # the shorter Two-Path arc has L // 2 APs (twopath.split_paths)
            if s.allocation == "log" and (L if s.path_mode == "sp" else L // 2) < 2:
                raise ConfigError(f"{s.label()}: logarithmic allocation needs at least "
                                  f"2 APs on every chain, got L={L}")

    def point_config(self, val) -> NetworkConfig:
        """The network of sweep point val: base with K or R_T set to val."""
        try:
            if self.sweep == "rate":
                return self.base.replace(R_T=float(val))
            if int(val) != val:
                raise ConfigError("the user count must be a whole number")
            return self.base.replace(K=int(val))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"sweep value {val!r}: {exc}") from exc


@dataclass
class ResultRow:
    sweep_value: float
    strategy: Strategy
    mean_sum_se: float
    stderr: float
    trials: int
    seed: int
    per_trial: np.ndarray = field(default=None, repr=False)  # not emitted to CSV


def _rates_for(strategy: Strategy, R_T: float, L_chain: int) -> np.ndarray:
    if strategy.compression == "infinite":
        return np.full(L_chain, np.inf)
    return allocation.schedule(strategy.allocation, R_T, L_chain)


def simulate_trial(cfg: NetworkConfig, strategy: Strategy, H: list) -> float:
    """Sum SE of one strategy on one channel drop H (per-AP channels).

    The SINRs are closed forms in the chains' statistics, so the result is a
    deterministic function of H: no signal or noise is drawn.
    """
    if strategy.path_mode == "sp":
        rates = _rates_for(strategy, cfg.R_T, cfg.L)
        st = run_chain(cfg.p, cfg.sigma2, H, strategy.compression, rates)
        sinr = metrics.sinr_chain(st.T, st.C, cfg.p)
    else:
        idx1, idx2 = twopath.split_paths(cfg.L)
        summaries = []
        for idx in (idx1, idx2):
            budget = allocation.path_budget(cfg.R_T, cfg.L, len(idx))
            rates = _rates_for(strategy, budget, len(idx))
            st = run_chain(cfg.p, cfg.sigma2, [H[i] for i in idx],
                           strategy.compression, rates)
            summaries.append(twopath.summarize_path(st, cfg.p))
        fused = twopath.fuse(summaries[0], summaries[1], cfg.p)
        sinr = twopath.sinr_fused(fused)
    return metrics.se_from_sinr(sinr, cfg.tau_u, cfg.tau_c).sum_se


def _draw_drop(cfg: NetworkConfig, rng: np.random.Generator) -> list:
    return draw_channels(cfg, place_network(cfg, rng), rng).H


def run_experiment(spec: ExperimentSpec) -> list:
    """Run all (sweep point x strategy) cells with paired per-trial drops.

    Within a trial every strategy sees the same layout and channels, drawn
    from SeedSequence((seed, trial)); only the compression / allocation
    pipeline differs. Numerical failures (SolverError, PsdError, LinAlgError)
    are tolerated up to MAX_FAILURE_FRAC of trials per cell; any other
    exception propagates.
    """
    rows = []
    for val in spec.values:
        cfg = spec.point_config(val)
        sums = {s: np.full(spec.trials, np.nan) for s in spec.strategies}
        failures = {s: 0 for s in spec.strategies}
        for t in range(spec.trials):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, t)))
            H = _draw_drop(cfg, rng)
            for strat in spec.strategies:
                try:
                    sums[strat][t] = simulate_trial(cfg, strat, H)
                except (SolverError, PsdError, np.linalg.LinAlgError):
                    failures[strat] += 1
        for strat in spec.strategies:
            nfail = failures[strat]
            if nfail > MAX_FAILURE_FRAC * spec.trials:
                raise ExperimentError(
                    f"{nfail}/{spec.trials} trials failed for {strat.label()} "
                    f"at sweep value {val}")
            vals = sums[strat][~np.isnan(sums[strat])]
            stderr = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            rows.append(ResultRow(sweep_value=float(val), strategy=strat,
                                  mean_sum_se=float(vals.mean()), stderr=stderr,
                                  trials=len(vals), seed=spec.seed,
                                  per_trial=sums[strat]))
    return rows


def emit_csv(rows: list, path: str) -> None:
    """Write result rows as UTF-8 CSV with LF line endings, 17 sig digits."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for r in rows:
            f.write(",".join([
                f"{r.sweep_value:.17g}",
                r.strategy.path_mode,
                r.strategy.allocation,
                r.strategy.compression,
                f"{r.mean_sum_se:.17g}",
                f"{r.stderr:.17g}",
                str(r.trials),
                str(r.seed),
            ]) + "\n")


def parse_csv(path: str) -> list:
    """Round-trip reader for the CSV emitted above."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ExperimentError(f"unexpected CSV header {header!r}")
        for line in f:
            sweep, pm, alloc, compr, mean, err, trials, seed = line.strip().split(",")
            rows.append(ResultRow(sweep_value=float(sweep),
                                  strategy=Strategy(pm, alloc, compr),
                                  mean_sum_se=float(mean), stderr=float(err),
                                  trials=int(trials), seed=int(seed)))
    return rows
