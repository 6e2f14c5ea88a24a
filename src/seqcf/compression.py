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


def _rate_and_slope(lam: np.ndarray, mu: float) -> tuple:
    """The rate of one multiplier and its slope -d rate / d ln mu.

    s_k = 2 d_k + lam_k = sqrt(lam_k^2 + 4 mu lam_k) gives both: the rate
    through 1 + lam_k / d_k = 1 + (lam_k + s_k) / (2 mu), the slope as
    sum_k lam_k / s_k / ln2. Only root estimates read these; the walk rates
    its midpoints with _mode_rates.
    """
    s = np.sqrt(lam * (lam + 4.0 * mu))
    r = float(np.log2(1.0 + (lam + s) / (2.0 * mu)).sum())
    return r, float((lam / s).sum()) / LN2


def _estimate_root(lam: np.ndarray, R_l: float, mu_lo: float, r_lo: float,
                   mu_hi: float, r_hi: float, mu0: float) -> float:
    """A multiplier in [mu_lo, mu_hi] whose rate is within RATE_TOL_BITS of R_l.

    Newton on t = ln mu, started from mu0 when it lies strictly inside the
    bracket and else from the log-linear interpolation of the bracket rates;
    a step that leaves the bracket is replaced by the bracket's midpoint in t.
    It stops at a rated point within RATE_TOL_BITS of R_l, or after a step
    whose error bound is a quarter of that. The estimate only decides which
    midpoints the walk rates ahead, so a poor one costs time, not accuracy.
    """
    if not 0.0 < mu_lo < mu_hi < math.inf:
        return mu_hi
    t_lo, t_hi = math.log(mu_lo), math.log(mu_hi)
    if mu_lo < mu0 < mu_hi:
        t = math.log(mu0)
    elif r_lo != r_hi:
        t = t_lo + (r_lo - R_l) / (r_lo - r_hi) * (t_hi - t_lo)
    else:
        t = t_lo
    for _ in range(_NEWTON_MAX_ITER):
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
        mu = math.exp(t)
        r, g = _rate_and_slope(lam, mu)
        # within RATE_TOL_BITS of R_l, every midpoint on the wrong side of the
        # estimate meets the rate first, so the walk rates one batch
        if abs(r - R_l) < RATE_TOL_BITS:
            break
        if r > R_l:
            t_lo = t
        else:
            t_hi = t
        # a slope lost to overflow makes the next step a bisection in t
        t = t + (r - R_l) / g if g > 0.0 else math.nan
        # |d^2 rate / dt^2| <= g / 2, so the step lands within (r - R_l)^2 / (4 g)
        # of R_l: close enough, it is taken without rating it
        if (r - R_l) ** 2 <= RATE_TOL_BITS * g and t_lo < t < t_hi:
            return math.exp(t)
    return mu


def _solve_mode_noises(lam: np.ndarray, R_l: float, mu0: float = math.nan) -> np.ndarray:
    """Per-eigenmode noise variances meeting the rate constraint with equality.

    The rate is strictly decreasing in the multiplier mu. The constraint is
    solved by bisecting mu inside the bracket of _bracket until a midpoint's
    rate is within RATE_TOL_BITS of R_l. A Newton estimate of the root,
    started from the guess mu0 when it lies inside the bracket, predicts
    every bisection decision, so the midpoints are listed and rated in one
    call. The walk takes the unchanged decisions up to the first midpoint
    that meets the rate or disagrees with the prediction; a disagreement
    starts a new estimate from the current bracket. Every midpoint consumed,
    and its rate, is the plain bisection's own, so the result is bit for bit
    the plain bisection's whatever mu0 is.
    """
    R_l = float(R_l)
    mu_lo, r_lo, mu_hi, r_hi = _bracket(lam, R_l)
    est = _estimate_root(lam, R_l, mu_lo, r_lo, mu_hi, r_hi, mu0)
    # |d rate / d ln mu| < K / ln2, so any mu in a bracket [lo, hi] around the
    # root is within (K / ln2) (hi - lo) / lo bits of R_l: once that is half
    # of RATE_TOL_BITS, the bracket's midpoint meets the rate
    hit_width = 0.5 * RATE_TOL_BITS * LN2 / len(lam)
    left = RATE_MAX_ITER
    while left > 0:
        # the midpoints the bisection visits if every decision agrees with est,
        # up to the first one that then meets the rate
        mids = []
        lo, hi = mu_lo, mu_hi
        while len(mids) < left:
            mu = 0.5 * (lo + hi)
            mids.append(mu)
            if mu in (lo, hi) or hi - lo <= hit_width * lo:
                break   # mu meets the rate, or the bisection repeats it
            if mu < est:
                lo = mu
            else:
                hi = mu
        mus = np.array(mids)
        rates = _mode_rates(lam, mus)
        above = rates > R_l
        hits = np.abs(rates - R_l) <= RATE_TOL_BITS
        stops = np.flatnonzero(hits | (above != (mus < est)))
        n = int(stops[0]) + 1 if stops.size else len(mids)
        left -= n
        r = float(rates[n - 1])
        if hits[n - 1]:
            return _mode_noise(lam, mids[n - 1])
        # the last consumed midpoint above R_l is mu_lo, the last one below mu_hi
        up, down = np.flatnonzero(above[:n]), np.flatnonzero(~above[:n])
        if up.size:
            mu_lo, r_lo = mids[up[-1]], float(rates[up[-1]])
        if down.size:
            mu_hi, r_hi = mids[down[-1]], float(rates[down[-1]])
        if stops.size:
            est = _estimate_root(lam, R_l, mu_lo, r_lo, mu_hi, r_hi, math.nan)
    raise SolverError(
        f"rate bisection did not converge: R={R_l}, last rate={r}, mu=[{mu_lo},{mu_hi}]")


def _eigen_solve(P: np.ndarray, R_l: float, mu0: float) -> tuple:
    """(U, pos, lam, d) of the SCNM solve on Hermitian P.

    U is P's eigenbasis; pos marks the modes whose eigenvalue lam exceeds
    RANK_TOL of the largest, and d holds their noises (_solve_mode_noises,
    guessing mu0). Modes outside pos, including round-off-level negative
    eigenvalues, get no noise. Raises PsdError on a genuinely negative one.
    """
    w, U = np.linalg.eigh(P)
    check_psd_spectrum(w, name="P")
    pos = w > RANK_TOL * max(float(w[-1]), 0.0)
    lam = w[pos]
    # nothing to forward: zero estimate costs zero rate and zero noise
    d = _solve_mode_noises(lam, R_l, mu0) if lam.size else lam
    return U, pos, lam, d


def _mode_covariance(U: np.ndarray, pos: np.ndarray, d: np.ndarray) -> np.ndarray:
    """U diag(d on pos, 0 elsewhere) U^H."""
    dfull = np.zeros(len(pos))
    dfull[pos] = d
    return herm((U * dfull) @ U.conj().T)


def _support_mode_rate(lam: np.ndarray, d: np.ndarray) -> float:
    """log2 det(P Q^-1 + I) on the support, from its modes lam and noises d."""
    return float(np.sum(np.log2(1.0 + lam / d)))


def _check_weights(w: np.ndarray) -> None:
    if np.any(w <= 0):
        raise SolverError("weights must be strictly positive")


def scnm(P: np.ndarray, R_l: float) -> CompressionOutcome:
    """Minimize trace(Q) s.t. log2 det(P Q^-1 + I) = R_l, Q >= 0.

    Q shares the eigenbasis of P; each mode's noise solves the KKT
    quadratic d^2 + lam*d - mu*lam = 0. The multiplier mu is found by
    bisection (_solve_mode_noises), whose midpoints a Newton estimate lets
    it rate in one vectorised call. The eigendecomposition, PSD check,
    support and mode solve are _eigen_solve, which wsinm also runs.
    """
    if R_l <= 0:
        raise SolverError("vector-wise compression needs R_l > 0")
    U, pos, lam, d = _eigen_solve(herm(P), R_l, math.nan)
    return CompressionOutcome(Q=_mode_covariance(U, pos, d),
                              achieved_rate=_support_mode_rate(lam, d))


def weighted_scnm(P: np.ndarray, R_l: float, weights: np.ndarray) -> CompressionOutcome:
    """Minimize sum_k w_k Q[k,k] under the same rate constraint.

    Solved by the congruence transform P -> W^1/2 P W^1/2, which leaves the
    log-det constraint invariant, then undoing the transform on Q. wsinm
    runs the same transform inside its loop without calling this.
    """
    w = np.asarray(weights, dtype=float)
    _check_weights(w)
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

    Step (i) is weighted_scnm's congruence transform with one eigh per
    iteration. The weight update reads only diag Q, so an iteration forms
    just that; the full Q and its rate are formed once, from the last
    iteration's modes. Each rate solve starts its root estimate from the
    previous iteration's multiplier, which moves only the estimate: every
    solve is still the plain bisection's.
    """
    if R_l <= 0:
        raise SolverError("vector-wise compression needs R_l > 0")
    base = np.asarray(interference_base, dtype=float)
    if np.any(base <= 0):
        raise SolverError("interference-plus-noise base must be strictly positive")
    K = P.shape[0]
    w = np.ones(K)
    mu = math.nan
    log_w = 0.0                  # sum_k log2 w_k
    trace_vals: list[float] = []
    prev_obj = None
    iters = 0
    for it in range(BCD_MAX_ITER):
        iters = it + 1
        _check_weights(w)
        ws = np.sqrt(w)
        U, pos, lam, d = _eigen_solve(herm((ws[:, None] * P) * ws[None, :]), R_l, mu)
        if d.size:
            # every mode gives back its multiplier: d^2 + lam d = mu lam
            mu = d[-1] * (d[-1] + lam[-1]) / lam[-1]
        Up = U[:, pos]
        X = base + (Up.real ** 2 + Up.imag ** 2) @ d / w
        obj_q = float(w @ X - log_w)
        trace_vals.append(obj_q)
        w = 1.0 / (LN2 * X)
        log_w = np.log2(w).sum()
        obj_w = float(w @ X - log_w)
        trace_vals.append(obj_w)
        if prev_obj is not None and (abs(prev_obj - obj_w)
                                     <= BCD_REL_TOL * max(abs(prev_obj), 1e-300)):
            break
        prev_obj = obj_w
    # ws is still the last iteration's, the one its modes were solved at
    Q = herm(_mode_covariance(U, pos, d) / ws[:, None] / ws[None, :])
    return CompressionOutcome(Q=Q, achieved_rate=_support_mode_rate(lam, d),
                              weights=w, bcd_iters=iters, objective_trace=trace_vals)
