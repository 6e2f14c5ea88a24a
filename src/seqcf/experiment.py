# Monte-Carlo experiment orchestration: paired sweeps over K or R_T across
# strategy combinations, aggregation, and CSV emission.
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import allocation, metrics, twopath
from .chain import DESIGNS, centralized, run_chain
from .compression import SolverError
from .config import ConfigError, NetworkConfig, as_integer
from .geometry import draw_channels, place_network
from .linalg import PsdError

PATH_MODES = ("sp", "tp")
COMPRESSIONS = (*DESIGNS, "infinite")
# each sweep axis: the NetworkConfig field it sets, which judges its values
SWEEPS = {"users": "K", "rate": "R_T"}

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
        if self.sweep not in SWEEPS:
            raise ConfigError(f"sweep axis must be 'users' or 'rate', got {self.sweep!r}")
        labels = [s.label() for s in self.strategies]
        for kind, items in (("sweep value", self.values), ("strategy", labels)):
            if not len(items):
                raise ConfigError(f"the {kind} list must be non-empty")
            for i, x in enumerate(items):     # a repeat would run its trials twice
                if x in items[:i]:
                    raise ConfigError(f"{kind} {x!r} is given twice")
        for name in ("trials", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for cfg in [self.point_config(val) for val in self.values]:
            for s in self.strategies:     # every chain is valid before any trial runs
                try:
                    _chains(cfg, s)
                except ValueError as exc:
                    raise ConfigError(f"{s.label()}: {exc}, got L={cfg.L}") from exc

    def point_config(self, val) -> NetworkConfig:
        """The network of sweep point val: base with the swept field set to val."""
        try:
            return self.base.replace(**{SWEEPS[self.sweep]: val})
        except ConfigError as exc:
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


def _chains(cfg: NetworkConfig, strategy: Strategy) -> list:
    """(AP indices, per-AP rates) of each chain: the whole ring on R_T (sp), or
    the twopath.split_paths arcs on R_T split in proportion to their lengths
    (tp); "infinite" reads only the indices. A ring too short for the strategy
    raises those owners' ValueError, whatever the compression."""
    if strategy.path_mode == "sp":
        arcs, budgets = [list(range(cfg.L))], [cfg.R_T]
    else:
        arcs = twopath.split_paths(cfg.L)
        budgets = allocation.split(cfg.R_T, [len(idx) for idx in arcs])
    return [(idx, allocation.schedule(strategy.allocation, budget, len(idx)))
            for idx, budget in zip(arcs, budgets)]


def simulate_trial(cfg: NetworkConfig, strategy: Strategy, H: list) -> float:
    """Sum SE of one strategy on one channel drop H (per-AP channels).

    The SINRs are closed forms in the chains' statistics, so the result is a
    deterministic function of H: no signal or noise is drawn. A chain without
    compression is the batch LMMSE over its APs, computed in closed form.
    """
    states = [centralized(cfg.p, cfg.sigma2, [H[i] for i in idx])
              if strategy.compression == "infinite" else
              run_chain(cfg.p, cfg.sigma2, [H[i] for i in idx], strategy.compression, rates)
              for idx, rates in _chains(cfg, strategy)]
    if strategy.path_mode == "sp":
        sinr = metrics.sinr_chain(states[0].T, states[0].C, cfg.p)
    else:
        paths = [twopath.summarize_path(st, cfg.p) for st in states]
        sinr = twopath.sinr_fused(*twopath.fuse(paths, cfg.p))
    return metrics.se_from_sinr(sinr, cfg.tau_u, cfg.tau_c).sum_se


def _draw_drop(cfg: NetworkConfig, rng: np.random.Generator) -> list:
    return draw_channels(cfg, place_network(cfg, rng), rng).H


def run_experiment(spec: ExperimentSpec) -> list:
    """Run all (sweep point x strategy) cells with paired per-trial drops.

    Within a trial every strategy sees the same layout and channels, drawn
    from SeedSequence((seed, trial)); only the compression / allocation
    pipeline differs. Numerical failures (SolverError, PsdError, LinAlgError,
    or a sum SE that is not finite) are tolerated up to MAX_FAILURE_FRAC of
    trials per cell; any other exception propagates.
    """
    rows = []
    for val in spec.values:
        cfg = spec.point_config(val)
        sums = {s: np.full(spec.trials, np.nan) for s in spec.strategies}
        for t in range(spec.trials):
            rng = np.random.default_rng(np.random.SeedSequence((spec.seed, t)))
            H = _draw_drop(cfg, rng)
            for strat in spec.strategies:
                try:
                    sums[strat][t] = simulate_trial(cfg, strat, H)
                except (SolverError, PsdError, np.linalg.LinAlgError):
                    pass                  # a failed trial keeps its NaN
        for strat in spec.strategies:
            vals = sums[strat][np.isfinite(sums[strat])]
            nfail = spec.trials - len(vals)
            if nfail > MAX_FAILURE_FRAC * spec.trials or not len(vals):
                raise ExperimentError(
                    f"{nfail}/{spec.trials} trials failed for {strat.label()} "
                    f"at sweep value {val}")
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
    """Round-trip reader for the CSV emitted above. Blank lines are skipped;
    a malformed row raises ExperimentError naming the path and line."""
    rows = []
    with open(path, "r", encoding="utf-8-sig") as f:     # a leading BOM is skipped
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ExperimentError(f"{path}:1: unexpected CSV header {header!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:       # ConfigError (a bad strategy) is a ValueError
                sweep, pm, alloc, compr, mean, err, trials, seed = line.strip().split(",")
                rows.append(ResultRow(sweep_value=float(sweep),
                                      strategy=Strategy(pm, alloc, compr),
                                      mean_sum_se=float(mean), stderr=float(err),
                                      trials=int(trials), seed=int(seed)))
            except ValueError as exc:
                raise ExperimentError(f"{path}:{lineno}: malformed row: {exc}") from exc
    return rows
