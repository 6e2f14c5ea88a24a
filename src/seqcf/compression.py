# Fronthaul compression-noise covariance design: element-wise equal
# inter-user bit split (EIU) and the two vector-wise designs (sum noise
# minimization and its weighted / interference-aware BCD variant).
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import check_psd_spectrum, herm

LN2 = np.log(2.0)

# eigenvalues of P below this fraction of the largest are treated as a
# null space: those modes carry no rate and no compression noise
RANK_TOL = 1e-12

# SCNM rate solve: the bisection on the multiplier stops at the first
# midpoint whose rate is within RATE_TOL_BITS of R_l, after at most
# RATE_MAX_ITER midpoints
RATE_TOL_BITS = 1e-9
RATE_MAX_ITER = 200
# powers j of the bracket candidates lam.max() * 8^j rated in one call, and
# the Newton steps allowed for one root estimate
_BRACKET_POWERS = np.arange(-6, 7)
_NEWTON_MAX_ITER = 64

# WSINM block coordinate descent: stops when the objective moves by at most
# BCD_REL_TOL relative, or after BCD_MAX_ITER iterations
BCD_REL_TOL = 1e-8
BCD_MAX_ITER = 100


class SolverError(RuntimeError):
    pass


@dataclass
class CompressionOutcome:
    Q: np.ndarray
    achieved_rate: float                 # log2 det(P Q^-1 + I) on the support
    weights: np.ndarray | None = None    # WSINM only
    bcd_iters: int = 0
    objective_trace: list = field(default_factory=list)


def _support_rate_bits(Pr: np.ndarray, d: np.ndarray) -> float:
    """log2 det(Pr + D) - log2 det(D) for D = diag(d), d > 0."""
    _, ld = np.linalg.slogdet(Pr + np.diag(d))
    return float((ld - np.sum(np.log(d))) / LN2)


class _EiuOutcome(CompressionOutcome):
    """EIU's outcome; only diagnostics read its rate, so it is formed on first read."""

    def __init__(self, P: np.ndarray, q: np.ndarray):
        super().__init__(Q=np.diag(q).astype(complex), achieved_rate=math.nan)
        del self.achieved_rate        # hand the name to the cached property
        self._P, self._q = P, q

    @cached_property
    def achieved_rate(self) -> float:
        keep = self._q > RANK_TOL * self._q.max(initial=0.0)
        return _support_rate_bits(herm(self._P)[np.ix_(keep, keep)], self._q[keep])


def achieved_rate_bits(P: np.ndarray, Q: np.ndarray) -> float:
    """log2 det(P Q^-1 + I_K), restricted to the support of Q."""
    w, U = np.linalg.eigh(herm(Q))
    keep = w > RANK_TOL * w.max(initial=0.0)
    Us = U[:, keep]
    return _support_rate_bits(Us.conj().T @ herm(P) @ Us, w[keep])


def eiu(P: np.ndarray, R_l: float) -> CompressionOutcome:
    """Element-wise compression: b = R_l/K bits per user's estimate entry.

    Per rate-distortion theory the per-entry noise variance is
    P[k,k] / (2^b - 1); Q is diagonal.
    """
    K = P.shape[0]
    b = R_l / K
    if b <= 0:
        raise SolverError("EIU needs a strictly positive per-user bit budget")
    pdiag = np.diag(P).real
    if np.any(pdiag < -RANK_TOL * max(pdiag.max(initial=0.0), 1.0)):
        raise SolverError("P has a negative diagonal entry")
    return _EiuOutcome(P, np.clip(pdiag, 0.0, None) / (2.0 ** b - 1.0))


def _mode_noise(lam: np.ndarray, mu) -> np.ndarray:
    # positive root of d^2 + lam*d - mu*lam = 0, cancellation-free form; a
    # column of multipliers gives one row of noises per multiplier
    return 2.0 * mu * lam / (lam + np.sqrt(lam * lam + 4.0 * mu * lam))


def _mode_rates(lam: np.ndarray, mus) -> np.ndarray:
    """Rate sum_k log2(1 + lam_k / d_k(mu)) of each multiplier in mus."""
    d = _mode_noise(lam, np.asarray(mus, dtype=float)[:, None])
    return np.log2(1.0 + lam / d).sum(axis=1)


def _bracket(lam: np.ndarray, R_l: float) -> tuple:
    """(mu_lo, r_lo, mu_hi, r_hi) of the geometric x8 search from lam.max().

    mu_hi is the first lam.max() * 8^j, j >= 0, whose rate is at most R_l;
    mu_lo the first mu_hi / 8^i, i >= 0, whose rate is at least R_l. All
    candidates in the window _BRACKET_POWERS are rated in one call. Scaling
    by a power of two is exact while the result stays a finite normal
    float, so a window within that range holds the values the loops visit.
    """
    mu_max = float(lam.max())
    mus = np.ldexp(mu_max, 3 * _BRACKET_POWERS)
    if mus[0] >= np.finfo(float).tiny and np.isfinite(mus[-1]):
        rates = _mode_rates(lam, mus).tolist()
        mus = mus.tolist()
        start = -int(_BRACKET_POWERS[0])   # the index of j = 0
        hi = next((i for i in range(start, len(mus)) if not rates[i] > R_l), None)
        lo = None if hi is None else next(
            (i for i in range(hi, -1, -1) if not rates[i] < R_l), None)
        if lo is not None:
            return mus[lo], rates[lo], mus[hi], rates[hi]
    # the window does not hold the bracket: walk the loops themselves
    mu_hi = mu_max
    grow = 0
    while (r_hi := _mode_rates(lam, [mu_hi])[0]) > R_l:
        mu_hi *= 8.0
        grow += 1
        if grow > 600:
            raise SolverError("failed to bracket the rate constraint from above")
    mu_lo, r_lo = mu_hi, r_hi
    while r_lo < R_l:
        mu_lo /= 8.0
        r_lo = _mode_rates(lam, [mu_lo])[0]
        grow += 1
        if grow > 1200:
            raise SolverError("failed to bracket the rate constraint from below")
    return mu_lo, float(r_lo), mu_hi, float(r_hi)


def _estimate_root(lam: np.ndarray, R_l: float, mu_lo: float, r_lo: float,
                   mu_hi: float, r_hi: float) -> float:
    """A multiplier in [mu_lo, mu_hi] whose rate is within RATE_TOL_BITS/2 of R_l.

    Newton on t = ln mu, started from the log-linear interpolation of the
    bracket rates; a step that leaves the bracket is replaced by the
    bracket's midpoint in t.
    """
    if not 0.0 < mu_lo < mu_hi < math.inf:
        return mu_hi
    t_lo, t_hi = math.log(mu_lo), math.log(mu_hi)
    t = t_lo + (r_lo - R_l) / (r_lo - r_hi) * (t_hi - t_lo) if r_lo != r_hi else t_lo
    for _ in range(_NEWTON_MAX_ITER):
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
        mu = math.exp(t)
        r = float(_mode_rates(lam, (mu,))[0])
        if abs(r - R_l) <= 0.5 * RATE_TOL_BITS:
            break
        if r > R_l:
            t_lo = t
        else:
            t_hi = t
        # d rate / dt = -sum_k lam_k / (2 d_k + lam_k) / ln2, and
        # 2 d_k + lam_k = sqrt(lam_k^2 + 4 mu lam_k)
        t += (r - R_l) * LN2 / float(np.sqrt(lam / (lam + 4.0 * mu)).sum())
    return mu


def _solve_mode_noises(lam: np.ndarray, R_l: float) -> np.ndarray:
    """Per-eigenmode noise variances meeting the rate constraint with equality.

    The rate is strictly decreasing in the multiplier mu. The constraint is
    solved by bisecting mu inside the bracket of _bracket until a midpoint's
    rate is within RATE_TOL_BITS of R_l. A Newton estimate of the root
    predicts every bisection decision, so the midpoints are listed and rated
    in one call; the walk over them makes the unchanged decisions, and the
    first one that disagrees with the prediction starts a new estimate from
    the current bracket. Every midpoint consumed, and its rate, is the plain
    bisection's own, so the result is bit-for-bit the plain bisection's.
    """
    R_l = float(R_l)
    mu_lo, r_lo, mu_hi, r_hi = _bracket(lam, R_l)
    est = _estimate_root(lam, R_l, mu_lo, r_lo, mu_hi, r_hi)
    left = RATE_MAX_ITER
    while left > 0:
        # the midpoints the bisection visits if every decision agrees with est
        mids = []
        lo, hi = mu_lo, mu_hi
        while len(mids) < left:
            mu = 0.5 * (lo + hi)
            mids.append(mu)
            if mu in (lo, hi):
                break   # converged in floating point: the bisection repeats mu
            if mu < est:
                lo = mu
            else:
                hi = mu
        for mu, r in zip(mids, _mode_rates(lam, mids).tolist()):
            left -= 1
            if abs(r - R_l) <= RATE_TOL_BITS:
                return _mode_noise(lam, mu)
            if r > R_l:
                mu_lo, r_lo = mu, r
            else:
                mu_hi, r_hi = mu, r
            if (r > R_l) != (mu < est):
                est = _estimate_root(lam, R_l, mu_lo, r_lo, mu_hi, r_hi)
                break
    raise SolverError(
        f"rate bisection did not converge: R={R_l}, last rate={r}, mu=[{mu_lo},{mu_hi}]")


def scnm(P: np.ndarray, R_l: float) -> CompressionOutcome:
    """Minimize trace(Q) s.t. log2 det(P Q^-1 + I) = R_l, Q >= 0.

    Q shares the eigenbasis of P; each mode's noise solves the KKT
    quadratic d^2 + lam*d - mu*lam = 0. The multiplier mu is found by
    bisection (_solve_mode_noises), whose midpoints a Newton estimate lets
    it rate in one vectorised call.
    """
    if R_l <= 0:
        raise SolverError("vector-wise compression needs R_l > 0")
    P = herm(P)
    w, U = np.linalg.eigh(P)
    # modes with round-off-level negative eigenvalues fall below RANK_TOL
    # and get no noise
    check_psd_spectrum(w, name="P")
    pos = w > RANK_TOL * w.max(initial=0.0)
    if not np.any(pos):
        # nothing to forward: zero estimate costs zero rate and zero noise
        Q = np.zeros_like(P)
        return CompressionOutcome(Q=Q, achieved_rate=0.0)
    lam = w[pos]
    d = _solve_mode_noises(lam, R_l)
    dfull = np.zeros_like(w)
    dfull[pos] = d
    Q = herm((U * dfull) @ U.conj().T)
    rate = float(np.sum(np.log2(1.0 + lam / d)))
    return CompressionOutcome(Q=Q, achieved_rate=rate)


def weighted_scnm(P: np.ndarray, R_l: float, weights: np.ndarray) -> CompressionOutcome:
    """Minimize sum_k w_k Q[k,k] under the same rate constraint.

    Solved by the congruence transform P -> W^1/2 P W^1/2, which leaves the
    log-det constraint invariant, then undoing the transform on Q.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise SolverError("weights must be strictly positive")
    ws = np.sqrt(w)
    Pbar = herm((ws[:, None] * P) * ws[None, :])
    inner = scnm(Pbar, R_l)
    Q = herm(inner.Q / ws[:, None] / ws[None, :])
    return CompressionOutcome(Q=Q, achieved_rate=inner.achieved_rate)


def wsinm(P: np.ndarray, R_l: float, interference_base: np.ndarray) -> CompressionOutcome:
    """Interference-aware compression via block coordinate descent.

    Alternates (i) weighted trace minimization at the current weights and
    (ii) the closed-form weight update w_k = 1/(ln2 * X_k), where
    X_k = interference_base[k] + Q[k,k] is user k's interference-plus-noise.
    interference_base must exclude the current AP's own Q[k,k] term.
    """
    base = np.asarray(interference_base, dtype=float)
    if np.any(base <= 0):
        raise SolverError("interference-plus-noise base must be strictly positive")
    K = P.shape[0]
    w = np.ones(K)
    trace_vals: list[float] = []
    prev_obj = None
    iters = 0
    for it in range(BCD_MAX_ITER):
        iters = it + 1
        out = weighted_scnm(P, R_l, w)
        X = base + np.diag(out.Q).real
        obj_q = float(w @ X - np.sum(np.log2(w)))
        trace_vals.append(obj_q)
        w_new = 1.0 / (LN2 * X)
        obj_w = float(w_new @ X - np.sum(np.log2(w_new)))
        trace_vals.append(obj_w)
        w = w_new
        if prev_obj is not None and (abs(prev_obj - obj_w)
                                     <= BCD_REL_TOL * max(abs(prev_obj), 1e-300)):
            break
        prev_obj = obj_w
    return CompressionOutcome(Q=out.Q, achieved_rate=out.achieved_rate,
                              weights=w, bcd_iters=iters, objective_trace=trace_vals)
