"""Machine-speed calibration for the timed figures.

The benchmark was defined on a shared 2-vCPU host whose speed drifts by up
to 2x over seconds to minutes: the same run_experiment call took 0.3 s to
1.0 s. No aggregation inside a 30 s run averages that out. So each timed
interval is bracketed by a fixed numpy kernel with seqcf's operation mix
(small complex eigh, Cholesky solve, matmul), and its wall time is scaled by
REF_S / (mean kernel time around it): seconds at a reference machine speed.
The kernel does not touch seqcf, so a slower seqcf still reads slower.
"""
from __future__ import annotations

import functools
import time

# The kernel's median time on the host the benchmark was defined on (Intel
# Xeon, 2 vCPUs, OpenBLAS pinned to one thread). It only sets the scale.
REF_S = 0.040
_REPEATS = 200


def _kernel(S, B, repeats: int) -> None:
    import numpy as np
    import scipy.linalg as sla

    for _ in range(repeats):
        np.linalg.eigh(S)
        sla.solve(S, B, assume_a="pos")
        S @ S


@functools.cache
def _operands():
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    S = X @ X.conj().T + np.eye(20)
    B = rng.standard_normal((20, 10)) + 0j
    _kernel(S, B, 1)   # the first calls load the LAPACK kernels
    return S, B


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed calibration kernel."""
    S, B = _operands()
    t0 = time.perf_counter()
    _kernel(S, B, _REPEATS)
    return time.perf_counter() - t0


class ScaledClock:
    """Accumulates wall seconds and the same seconds at the reference speed."""

    def __init__(self):
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.slowdowns = []      # kernel seconds / REF_S, one per interval
        self._last = kernel_seconds()

    def add(self, wall_s: float) -> float:
        """Record an interval that just ended; returns it in reference seconds."""
        now = kernel_seconds()
        slowdown = 0.5 * (self._last + now) / REF_S
        self._last = now
        self.slowdowns.append(slowdown)
        self.wall_s += wall_s
        self.ref_s += wall_s / slowdown
        return wall_s / slowdown
