"""Per-layer tracing of seqcf from outside the package.

Each traced public function is replaced, in every seqcf module that binds it
(so `ensure_psd` in chain, compression and twopath alike), by a wrapper that
accumulates the function's self time (its duration minus that of traced
calls it makes) and its call count. Hooks on a few functions also record the
per-strategy trial time, WSINM's BCD iterations and fronthaul-budget
violations.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

LAYERS = {
    "experiment": ("run_experiment", "simulate_trial"),
    "geometry": ("place_network", "draw_channels"),
    "allocation": ("schedule",),
    "chain": ("run_chain", "gain", "refine", "propagate_combiners",
              "update_pre_compression_corr", "update_error_cov"),
    "compression": ("eiu", "scnm", "weighted_scnm", "wsinm", "achieved_rate_bits"),
    "metrics": ("interference_context", "sinr_chain", "se_from_sinr"),
    "twopath": ("summarize_path", "fuse", "sinr_fused"),
    "linalg": ("ensure_psd", "sample_cn", "herm_solve"),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Fronthaul budget tolerance in bits, the tests' SCNM oracle tolerance.
RATE_TOL_BITS = 1e-6
# Designs that must meet R_l with equality; EIU only has to stay within it.
_RATE_EQUALITY = ("compression.scnm", "compression.weighted_scnm", "compression.wsinm")


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.trial_s = defaultdict(list)     # strategy label -> simulate_trial seconds
        self.bcd_iters = []
        self.rate_violations = 0
        self._child_s = [0.0]                # traced time spent in callees, per open frame
        self._restore = []

    def _on_return(self, name, dt, args, kwargs, out):
        if name == "experiment.simulate_trial":
            strategy = args[1] if len(args) > 1 else kwargs["strategy"]
            self.trial_s[strategy.label()].append(dt)
        elif name in ("compression.eiu",) + _RATE_EQUALITY:
            R_l = float(args[1] if len(args) > 1 else kwargs["R_l"])
            over = out.achieved_rate > R_l + RATE_TOL_BITS
            under = name in _RATE_EQUALITY and out.achieved_rate < R_l - RATE_TOL_BITS
            self.rate_violations += int(over or under)
            if name == "compression.wsinm":
                self.bcd_iters.append(out.bcd_iters)

    def _wrap(self, name, fn):
        child_s, self_s, calls = self._child_s, self.self_s, self.calls
        on_return = self._on_return

        def traced(*args, **kwargs):
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = child_s.pop()
                child_s[-1] += dt
                self_s[name] += dt - inner
                calls[name] += 1
            on_return(name, dt, args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "seqcf" or n.startswith("seqcf."))]
        for name in TRACED:
            mod, fn_name = name.split(".")
            original = getattr(sys.modules[f"seqcf.{mod}"], fn_name)
            traced = self._wrap(name, original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, traced)
                    self._restore.append((m, attr, original))
        return self

    def __exit__(self, *exc):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()
        return False

    def metrics(self, drops: int, labels, scale: float) -> dict:
        """Per-layer figures, normalised per channel drop.

        scale converts traced wall seconds to seconds at the reference speed.
        """
        ms = 1e3 * scale
        out = {}
        for name in TRACED:
            out[f"{name}.self_ms_per_drop"] = (ms * self.self_s[name] / drops, "ms")
            out[f"{name}.calls_per_drop"] = (self.calls[name] / drops, "count")
        for label in labels:
            times = self.trial_s[label]
            out[f"experiment.simulate_trial.{label}.ms_p50"] = (
                ms * statistics.median(times) if times else 0.0, "ms")
        iters = self.bcd_iters
        out["compression.wsinm.bcd_iters_mean"] = (
            statistics.fmean(iters) if iters else 0.0, "count")
        out["compression.wsinm.bcd_iters_max"] = (max(iters, default=0), "count")
        out["compression.rate_violations"] = (self.rate_violations, "count")
        return out
