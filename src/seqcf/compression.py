# Fronthaul compression-noise covariance design: element-wise equal
# inter-user bit split (EIU) and the two vector-wise designs (sum noise
# minimization and its weighted / interference-aware BCD variant).
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import _ZHEEVD, PsdError, check_psd_spectrum, herm

LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)

# eigenvalues of P below this fraction of the largest are treated as a
# null space: those modes carry no rate and no compression noise
RANK_TOL = 1e-12

# SCNM rate solve: the bisection on the multiplier stops at the first midpoint
# whose computed rate is within RATE_TOL_BITS of R_l, after at most
# RATE_MAX_ITER midpoints; halving from the bracket's top down to a root k
# binades below it takes about k + 40, and doubles span about 2100 binades
RATE_TOL_BITS = 1e-9
RATE_MAX_ITER = 2200
# the rate model: Newton steps allowed for one root estimate, the fences'
# distance in bits from R_l, the smallest mode for which lam * lam is a
# normal float (the rate solve runs on spectra whose largest mode lies in
# [1/2, 1)), and the half-width in ln mu of the model's range of mu, which
# the spectrum narrows (_root_estimate)
_NEWTON_MAX_ITER = 64
_FENCE_BITS = 1e-7
_LAM_MIN = 2.0 ** -500
_LN_MU_SPAN = 1000.0 * LN2

# the rate solve sends every mode losslessly (zero noise, rate R_l) when the
# water-filling point mu_wf, where sum_k log2(lam_k / mu_wf) = R_l, lies more
# than _LOSSLESS_BINADES below lam.max(). mu_wf lies below the root (each
# noise is below mu) and, that deep, within a binade of it: the noises are
# then 0 at double precision relative to P, and shallower every noise of the
# scaled spectrum is a normal float. As each mode _eigen_solve passes exceeds
# RANK_TOL lam.max(), it is that deep only from about 960 bits per mode on
_LOSSLESS_BINADES = 1000.0

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
    """EIU's outcome. Its noise is diagonal: q holds that diagonal, which an
    EIU chain carries, and the dense Q and the rate are formed on first read,
    the rate from the Hermitian P and the budget R_l that eiu was given."""

    def __init__(self, P: np.ndarray, q: np.ndarray, R_l: float):
        super().__init__(Q=None, achieved_rate=math.nan)
        del self.Q, self.achieved_rate     # hand the names to the cached properties
        self._P, self.q, self._R_l = P, q, R_l

    @cached_property
    def Q(self) -> np.ndarray:
        K = len(self.q)
        Q = np.zeros((K, K), dtype=complex)
        Q.ravel()[::K + 1] = self.q
        return Q

    @cached_property
    def achieved_rate(self) -> float:
        """The log-det rate on the support of q, plus the b = R_l / K bits of
        each entry sent losslessly (q_k = 0 < P_kk), whose log-det term is
        infinite.

        At most R_l: by Hadamard's inequality each supported entry adds at
        most log2(1 + P_kk / q_k) = b bits.
        """
        keep = self.q > RANK_TOL * self.q.max(initial=0.0)
        rate = _support_rate_bits(self._P[np.ix_(keep, keep)], self.q[keep])
        lossless = np.count_nonzero((self.q == 0.0) & (self._P.diagonal().real > 0.0))
        # 0 * inf would be NaN: an outcome without lossless entries adds nothing
        return rate + self._R_l * (lossless / len(self.q)) if lossless else rate


def achieved_rate_bits(P: np.ndarray, Q: np.ndarray) -> float:
    """log2 det(P Q^-1 + I_K), restricted to the support of Q."""
    w, U = np.linalg.eigh(herm(Q))
    keep = w > RANK_TOL * w.max(initial=0.0)
    Us = U[:, keep]
    return _support_rate_bits(Us.conj().T @ herm(P) @ Us, w[keep])


def eiu(P: np.ndarray, R_l: float) -> CompressionOutcome:
    """Element-wise compression: b = R_l/K bits per user's estimate entry.

    Per rate-distortion theory the per-entry noise variance is
    P[k,k] / (2^b - 1); Q is diagonal. P is Hermitian. From b = 1024 on 2^b
    overflows a float, and as 2^b - 1 rounds to 2^b (from b = 54 on) the
    variance is taken as P[k,k] 2^-b: 0 at b = inf, where nothing is lost.
    """
    K = P.shape[0]
    b = R_l / K
    if b <= 0:
        raise SolverError("EIU needs a strictly positive per-user bit budget")
    if not np.isfinite(P).all():
        raise PsdError("P is not finite")
    pdiag = P.diagonal().real
    if np.minimum.reduce(pdiag) < -RANK_TOL * max(np.maximum.reduce(pdiag), 1.0):
        raise SolverError("P has a negative diagonal entry")
    q = np.maximum(pdiag, 0.0)
    if b < 1024.0:
        q /= 2.0 ** b - 1.0
    else:
        q *= 2.0 ** -b
    return _EiuOutcome(P, q, R_l)


def _mode_noise(lam: np.ndarray, mu: float) -> np.ndarray:
    """The mode noises at multiplier mu: the positive roots of
    d^2 + lam d - mu lam = 0 in cancellation-free form."""
    return 2.0 * mu * lam / (lam + np.sqrt(lam * lam + 4.0 * mu * lam))


def _mode_rate(lam: np.ndarray, d: np.ndarray) -> float:
    """log2 det(P Q^-1 + I) on the support, from its modes lam and noises d."""
    return float(np.sum(np.log2(1.0 + lam / d)))


def _rate_slope(lam: list, mu: float) -> tuple:
    """(rate, g) at mu in plain floats: the rate in bits and its slope
    g = -d rate / d ln mu, in bits per unit of ln mu."""
    mu2 = 2.0 * mu
    mu4 = 2.0 * mu2
    r = g = 0.0
    for x in lam:
        s = math.sqrt(x * (x + mu4))         # 2 d_k + lam_k
        r += math.log1p((x + s) / mu2)       # ln(1 + lam_k / d_k)
        g += x / s
    return r / LN2, g / LN2


def _root_estimate(lam: list, R_l: float, mu0: float):
    """(mu, g): Newton's estimate of the root and the slope -d rate / d ln mu
    there, or None when Newton does not converge inside the model's range
    of mu (as when the root lies outside). For lam ascending from at least
    _LAM_MIN to below 1, as _solve_mode_noises passes it, that range,
    2^-1000 / lam[0] to 2^1000, keeps mu lam, lam / mu and the noises
    normal floats within a x8 step of it.

    Newton runs on t = ln mu in plain floats: at K <= 40 a loop over the modes
    costs less than numpy's per-call overhead. It starts from mu0 when that is
    a positive finite guess, else from the water-filling point
    sum_k log2(lam_k / mu) = R_l, whose rate exceeds R_l because d_k < mu. The
    rate is convex and decreasing in t, so a step from the left of the root
    stays left of it and a step from the right lands left of it: no bracket is
    needed.
    """
    t_min = -math.log(lam[0]) - _LN_MU_SPAN
    t_max = _LN_MU_SPAN
    t = math.log(mu0) if 0.0 < mu0 < math.inf else (
        sum(map(math.log, lam)) - R_l * LN2) / len(lam)
    t = min(max(t, t_min), t_max)
    for _ in range(_NEWTON_MAX_ITER):
        r, g = _rate_slope(lam, math.exp(t))
        err = r - R_l
        # |d^2 rate / dt^2| <= g / 2, so the step lands within err^2 / (4 g) of R_l
        if err * err <= 0.1 * RATE_TOL_BITS * g:
            return math.exp(t + err / g), g
        t = min(max(t + err / g, t_min), t_max)
    return None


def _rate_model(lam: list, R_l: float, mu0: float):
    """(f_lo, f_hi, est, g, margin), a model of the computed rate that decides
    the bisection's comparisons, or None when it cannot be certified; lam is
    an ascending spectrum scaled as _solve_mode_noises scales it.

    est is Newton's estimate of the root (_root_estimate, started from mu0)
    and g the slope there; the fences est (1 -+ delta) lie about _FENCE_BITS
    either side of R_l. Every computed rate at a mu between the fences is
    within margin of R_l - g ln(mu / est), and every one left of the lower
    fence lies above R_l + RATE_TOL_BITS and right of the upper one below
    R_l - RATE_TOL_BITS: the model is returned only when g times the fences'
    distance in ln mu from est clears RATE_TOL_BITS + margin.
    """
    est = _root_estimate(lam, R_l, mu0)
    if est is None:
        return None
    est, g = est
    delta = min(_FENCE_BITS / g, 0.5)
    f_lo, f_hi = est * (1.0 - delta), est * (1.0 + delta)
    # with lam and est in range (_root_estimate) every intermediate of a
    # computed rate r at any mu the bisection visits (within a x8 step of the
    # fences, or between them and lam.max()) is a normal float: each mode's
    # rate is within about 12 u + 4 u r_k of the exact one (u = eps / 2, most
    # of it numpy's log2) and the sum adds (K - 1) u r, so 64 eps K (r + K)
    # bounds the error of two computed rates near r
    r_est, g = _rate_slope(lam, est)
    K = len(lam)
    bound = 64.0 * _EPS * K * (r_est + 1.0 + K)
    # the exact rate at mu = est e^x is r(est) - g x within g x^2 / 2 for
    # |x| <= ln 2, since |d^2 rate / dt^2| <= g / 2 and g grows at most by
    # e^(|x| / 2) leftwards; every mu between the fences has |x| <= x_m. One
    # bound covers r_est's rounding (and that of g |x|), one a computed rate
    x_m = -math.log1p(-delta)
    margin = abs(r_est - R_l) + 2.0 * bound + 0.5 * g * x_m * x_m
    if g * min(math.log(est / f_lo), math.log(f_hi / est)) <= RATE_TOL_BITS + margin:
        return None
    return f_lo, f_hi, est, g, margin


def _solve_mode_noises(lam: np.ndarray, R_l: float, mu0: float = math.nan) -> tuple:
    """(d, mu, lam_n, d_n): the per-eigenmode noise variances meeting the
    rate constraint with equality and their multiplier, in lam's units, and
    the spectrum and noises the solve ran on, from which the caller rates them.
    lam holds positive eigenvalues in ascending order, as zheevd returns them.

    The solve runs on lam_n = lam 2^-e, the power of two that puts its
    largest mode in [1/2, 1), and scales d = d_n 2^e and mu back (and the
    guess mu0 in): exact, unless a value leaves the normal floats. It sends
    every mode losslessly (zeros, mu = 0) when the water-filling point lies
    more than _LOSSLESS_BINADES below lam.max(), as it does an empty lam.
    Otherwise the bisection brackets mu by x8 steps from lam_n.max() and
    halves the bracket until a midpoint's computed rate is within
    RATE_TOL_BITS of R_l, raising SolverError when the bracket search or
    RATE_MAX_ITER midpoints fail. Each comparison it makes (rate above or
    below R_l in the bracket search; a hit, above or below at a midpoint) is
    taken from _rate_model, started from the guess, when the model decides
    it, and otherwise from the rate computed at that mu. Either way the
    noises, and any SolverError, are the plain bisection's on lam_n bit for
    bit, whatever mu0 is.
    """
    R_l = float(R_l)
    K = lam.size
    lam_max, e = math.frexp(lam[-1] if K else 0.0)
    lam = np.ldexp(lam, -e)
    lams = lam.tolist()
    lam_min = lams[0] if K else 1.0
    # the water-filling depth below lam.max() exceeds _LOSSLESS_BINADES only
    # if R_l > K (_LOSSLESS_BINADES + log2 lam_min), as lam_max < 1
    if R_l > K * (_LOSSLESS_BINADES + math.log2(lam_min)) and (
            R_l - float(np.log2(lam / lam_max).sum()) > K * _LOSSLESS_BINADES):
        d = np.zeros(K)
        return d, 0.0, lam, d
    # the model needs every lam * lam to be a normal float
    model = _rate_model(lams, R_l, math.ldexp(mu0, -e)) if lam_min >= _LAM_MIN else None
    # no model: no mu lies outside the fences, and every comparison is rated
    f_lo, f_hi, est, g, margin = model or (0.0, math.inf, 0.0, 0.0, 0.0)

    def gap(mu: float, hit: bool) -> float:
        # r - R_l at mu between the fences as the bisection compares it:
        # +-inf where the model puts r beyond R_l +- RATE_TOL_BITS, 0.0 where
        # it puts r within RATE_TOL_BITS of R_l (if a hit decides), else computed
        if model:
            off = g * math.log(est / mu)       # the model's r - R_l
            if abs(off) > RATE_TOL_BITS + margin:
                return math.copysign(math.inf, off)
            if hit and abs(off) < RATE_TOL_BITS - margin:
                return 0.0
        return _mode_rate(lam, _mode_noise(lam, mu)) - R_l

    mu_hi = lam_max
    grow = 0
    while mu_hi < f_lo or mu_hi <= f_hi and gap(mu_hi, False) > 0.0:
        mu_hi *= 8.0
        grow += 1
        if grow > 600:
            raise SolverError("failed to bracket the rate constraint from above")
    mu_lo = mu_hi
    while mu_lo > f_hi or mu_lo >= f_lo and gap(mu_lo, False) < 0.0:
        mu_lo /= 8.0
        grow += 1
        if grow > 1200:
            raise SolverError("failed to bracket the rate constraint from below")
    for _ in range(RATE_MAX_ITER):
        mu = 0.5 * (mu_lo + mu_hi)
        if mu < f_lo:
            mu_lo = mu
        elif mu > f_hi:
            mu_hi = mu
        else:
            r = gap(mu, True)
            if abs(r) <= RATE_TOL_BITS:
                d = _mode_noise(lam, mu)
                return np.ldexp(d, e), math.ldexp(mu, e), lam, d
            if r > 0.0:
                mu_lo = mu
            else:
                mu_hi = mu
    raise SolverError(f"rate bisection did not converge: R={R_l}, "
                      f"mu=[{math.ldexp(mu_lo, e)},{math.ldexp(mu_hi, e)}]")


def _eigen_solve(P: np.ndarray, R_l: float, mu0: float) -> tuple:
    """(U, pos, d, mu, lam_n, d_n) of the SCNM solve on Hermitian P.

    LAPACK zheevd reads P's lower triangle only. U is P's eigenbasis; pos
    selects the modes whose eigenvalue exceeds RANK_TOL of the largest (all
    of them, as a slice, when the smallest does), and the rest is the rate
    solve on those eigenvalues (_solve_mode_noises, guessing mu0): their
    noises d and the multiplier mu in P's units, and the scaled eigenvalues
    lam_n and noises d_n that rate them. Modes outside pos, including
    round-off-level negative eigenvalues, get no noise. Raises PsdError on a
    genuinely negative or a non-finite eigenvalue, LinAlgError when zheevd fails.
    """
    w, U, info = _ZHEEVD(P, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"zheevd failed to converge (info {info})")
    check_psd_spectrum(w, name="P")
    tol = RANK_TOL * max(float(w[-1]), 0.0)
    pos = slice(None) if w[0] > tol else w > tol
    return (U, pos) + _solve_mode_noises(w[pos], R_l, mu0)


def _mode_covariance(U: np.ndarray, pos, d: np.ndarray) -> np.ndarray:
    """U diag(d on pos, 0 elsewhere) U^H."""
    dfull = np.zeros(U.shape[1])
    dfull[pos] = d
    return herm((U * dfull) @ U.conj().T)


def scnm(P: np.ndarray, R_l: float) -> CompressionOutcome:
    """Minimize trace(Q) s.t. log2 det(P Q^-1 + I) = R_l, Q >= 0.

    P is Hermitian, as ensure_psd leaves it; zheevd reads its lower triangle
    only. Q shares the eigenbasis of P; each mode's noise solves the KKT
    quadratic d^2 + lam*d - mu*lam = 0. The multiplier mu is the rate
    bisection's (_solve_mode_noises), whose rate model starts cold. The
    eigendecomposition, PSD check, support and mode solve are _eigen_solve,
    which wsinm also runs. A lossless solve (d = 0) reports rate R_l.
    """
    if R_l <= 0:
        raise SolverError("vector-wise compression needs R_l > 0")
    U, pos, d, _, lam, dn = _eigen_solve(P, R_l, math.nan)
    return CompressionOutcome(Q=_mode_covariance(U, pos, d),
                              achieved_rate=_mode_rate(lam, dn) if dn.all() else R_l)


def weighted_scnm(P: np.ndarray, R_l: float, weights: np.ndarray) -> CompressionOutcome:
    """Minimize sum_k w_k Q[k,k] under the same rate constraint.

    Solved by the congruence transform P -> W^1/2 P W^1/2, which leaves the
    log-det constraint invariant, then undoing the transform on Q. wsinm
    runs the same transform inside its loop without calling this.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise SolverError("weights must be strictly positive")
    ws = np.sqrt(w)
    # exactly Hermitian, as herm(P) is: entry (j, i) is the conjugate of (i, j)
    Pbar = herm(P) * (ws[:, None] * ws)
    inner = scnm(Pbar, R_l)
    Q = herm(inner.Q / ws[:, None] / ws[None, :])
    return CompressionOutcome(Q=Q, achieved_rate=inner.achieved_rate)


def wsinm(P: np.ndarray, R_l: float, interference_base: np.ndarray) -> CompressionOutcome:
    """Interference-aware compression via block coordinate descent.

    Alternates (i) weighted trace minimization at the current weights and
    (ii) the closed-form weight update w_k = 1/(ln2 * X_k), where
    X_k = interference_base[k] + Q[k,k] is user k's interference-plus-noise.
    interference_base must exclude the current AP's own Q[k,k] term. P is
    Hermitian, as ensure_psd leaves it, so every P * outer(ws, ws) is too;
    zheevd reads the lower triangle of each.

    Step (i) is weighted_scnm's congruence transform with one zheevd per
    iteration. The weight update reads only diag Q, so an iteration forms
    just that; the full Q and its rate are formed once, from the last
    iteration's modes. Each rate solve starts its model's Newton estimate
    from the previous iteration's multiplier, which changes only which
    comparisons are rated: every solve is still the plain bisection's bit
    for bit. The weights need no check: w = 1 / (ln2 X) with X >= base > 0.
    """
    if R_l <= 0:
        raise SolverError("vector-wise compression needs R_l > 0")
    base = np.asarray(interference_base, dtype=float)
    if not np.all((base > 0) & (base < math.inf)):
        raise SolverError("interference-plus-noise base must be finite and strictly positive")
    K = P.shape[0]
    w = np.ones(K)
    mu = math.nan
    log_w = 0.0                  # sum_k log2 w_k
    trace_vals: list[float] = []
    prev_obj = None
    iters = 0
    for it in range(BCD_MAX_ITER):
        iters = it + 1
        ws = np.sqrt(w)
        U, pos, d, mu, lam, dn = _eigen_solve(P * (ws[:, None] * ws), R_l, mu)
        Up = U[:, pos]
        A = Up.real ** 2                     # |U_kj|^2 on the support
        A += Up.imag ** 2
        X = base + A @ d / w
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
    return CompressionOutcome(Q=Q, achieved_rate=_mode_rate(lam, dn) if dn.all() else R_l,
                              weights=w, bcd_iters=iters, objective_trace=trace_vals)
