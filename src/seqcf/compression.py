# Fronthaul compression-noise covariance design: element-wise equal
# inter-user bit split (EIU) and the two vector-wise designs (sum noise
# minimization and its weighted / interference-aware BCD variant).
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import _ZHEEVD, check_psd, herm

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
# the rate model (_rate_model, four thresholds in mu about Newton's last
# point): Newton steps allowed for that point, and its range of mu on a
# spectrum scaled to lam.max() in [1/2, 1), 2^-_SPAN_BINADES / lam.min() to
# 2^_SPAN_BINADES. The floor is also the lossless rule: the rate solve sends
# every mode losslessly (zero noise, rate R_l) when the water-filling point
# mu_wf, where sum_k log2(lam_k / mu_wf) = R_l, lies below it. mu_wf lies
# below the root (each noise is below mu) and, that deep, within a hair of it:
# as every mode _eigen_solve passes exceeds RANK_TOL lam.max() > 2^-41, each
# noise would lie below 2^-917 of its mode, 0 at double precision relative to
# P. It lies that deep only from about 918 bits per mode on (998 for one mode)
_NEWTON_MAX_ITER = 64
_SPAN_BINADES = 1000.0

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
        return np.diag(self.q).astype(complex)

    @cached_property
    def achieved_rate(self) -> float:
        """The log-det rate on the support of q, plus the b = R_l / K bits of
        each entry sent losslessly (q_k = 0 < P_kk), whose log-det term is
        infinite.

        At most R_l in exact arithmetic, by Hadamard's inequality (each
        supported entry adds at most log2(1 + P_kk / q_k) = b bits). As the
        difference of two log-dets near 1e3 nats, a tiny rate may read a few
        1e-12 bits over R_l (3.6e-12 at R_T = 2.4e-10 to 1e-5, six drops).
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

    Per rate-distortion theory the per-entry noise variance is P[k,k] / (2^b - 1),
    formed as P[k,k] 2^-b / -expm1(-b ln 2): it neither overflows nor cancels at
    any b > 0, and is 0 at b = inf, where nothing is lost. Q is diagonal.
    P is Hermitian, as the P update leaves it, and must be PSD by the
    package's rule (check_psd, else PsdError), as in every design: a
    non-finite or genuinely indefinite P raises even where its diagonal is
    fine, and a round-off negative P[k,k] gets no noise.
    """
    K = P.shape[0]
    b = R_l / K
    if not b > 0:             # NaN fails too
        raise SolverError("EIU needs a strictly positive per-user bit budget")
    check_psd(P, "P")
    q = np.maximum(P.diagonal().real, 0.0)
    q *= 2.0 ** -b / -math.expm1(-b * LN2)
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


def _rate_model(lam: list, R_l: float, mu0: float):
    """(lo, hit_lo, hit_hi, hi), four multipliers that decide the bisection's
    comparisons, or None when no model can be certified; lam is an ascending
    spectrum scaled as _solve_mode_noises scales it. Every computed rate at a
    mu < lo exceeds R_l + RATE_TOL_BITS, every one at a mu > hi lies below
    R_l - RATE_TOL_BITS, and every one at a hit_lo < mu < hit_hi lies within
    RATE_TOL_BITS of R_l (no mu does when hit_lo >= hit_hi).

    Newton runs on t = ln mu in plain floats: at K <= 40 a loop over the modes
    costs less than numpy's per-call overhead. It starts from mu0 when that is
    a positive finite guess, else from the water-filling point
    sum_k log2(lam_k / mu) = R_l, whose rate exceeds R_l because d_k < mu. The
    rate is convex and decreasing in t, so a step from the left of the root
    stays left of it and a step from the right lands left of it: no bracket is
    needed. Newton stays in the model's range of mu, 2^-_SPAN_BINADES / lam[0]
    to 2^_SPAN_BINADES, which keeps mu lam, lam / mu and the noises normal
    floats within a factor 2 of it, and stops at the first mu_c whose rate r
    and slope g = -d rate / d ln mu (_rate_slope) have err = r - R_l with
    err^2 <= RATE_TOL_BITS g / 10; there is no model when it does not within
    _NEWTON_MAX_ITER steps, as when the root lies outside the range.

    The model is the tangent r - g x at mu = mu_c e^x, certified so:
    - Rounding. Within a factor 2 of mu_c every intermediate of a computed
      rate is a normal float, each mode's rate is within about 12 u + 4 u r_k
      of the exact one (u = eps / 2, most of it numpy's log2) and the sum adds
      (K - 1) u r, so bound = 64 eps K (r + 1 + K) covers the rounding of r
      (and of g |x|), and separately that of any computed rate there.
    - Curvature. The exact rate is convex in t, so it lies on or above the
      tangent. As 0 <= d^2 rate / dt^2 <= g / 2 and g grows at most by
      e^(|x| / 2) leftwards, over |x| <= x_m <= ln 2 it lies at most
      c = 0.36 g x_m^2 > (sqrt(2) / 4) g x_m^2 above it. x_m = (|err| +
      2 (RATE_TOL_BITS + 2 bound)) / g reaches every threshold, and there is
      no model when x_m > ln 2 or c > RATE_TOL_BITS. So every computed rate
      within x_m of mu_c lies above the tangent less 2 bound and below the
      tangent plus 2 bound + c.
    - Thresholds. With tol = RATE_TOL_BITS and m = 2 bound, the tangent is
      R_l + tol + m at lo, R_l + tol - m - c at hit_lo, R_l - tol + m at
      hit_hi and R_l - tol - m - c at hi: at lo the computed rate exceeds
      R_l + tol, at hi it lies below R_l - tol, and between the inner two it
      is within tol of R_l (the band is empty when 2 m + c >= 2 tol). The exp
      and the products that place a threshold round it by a few ulps of mu,
      which moves the rate by a few eps g <= 3 eps K bits, far less than the
      slack in bound.
    - Monotonicity. Beyond lo and hi the exact rate keeps growing leftwards
      and falling rightwards, by far more than a computed rate's rounding
      grows (a rate is infinite where a noise underflows to 0, and 0 where
      lam / d does), so every computed rate there stays on its side.
    """
    t_max = _SPAN_BINADES * LN2
    t_min = -math.log(lam[0]) - t_max
    t = math.log(mu0) if 0.0 < mu0 < math.inf else (
        sum(map(math.log, lam)) - R_l * LN2) / len(lam)
    t = min(max(t, t_min), t_max)
    for _ in range(_NEWTON_MAX_ITER):
        mu = math.exp(t)
        r, g = _rate_slope(lam, mu)
        err = r - R_l
        if err * err <= 0.1 * RATE_TOL_BITS * g:
            break
        t = min(max(t + err / g, t_min), t_max)
    else:
        return None
    K = len(lam)
    bound = 64.0 * _EPS * K * (r + 1.0 + K)
    x_m = (abs(err) + 2.0 * (RATE_TOL_BITS + 2.0 * bound)) / g
    c = 0.36 * g * x_m * x_m
    if x_m > LN2 or c > RATE_TOL_BITS:
        return None
    tol, m = RATE_TOL_BITS, 2.0 * bound
    return tuple(mu * math.exp((err + s) / g)
                 for s in (-tol - m, m + c - tol, tol - m, tol + m + c))


def _solve_mode_noises(lam: np.ndarray, R_l: float, mu0: float = math.nan) -> tuple:
    """(d, mu, lam_n, d_n): the per-eigenmode noise variances meeting the
    rate constraint with equality and their multiplier, in lam's units, and
    the spectrum and noises the solve ran on, from which the caller rates them.
    lam holds positive eigenvalues in ascending order, as zheevd returns them,
    less than 500 binades wide (so that lam_n * lam_n is a normal float), as
    every spectrum _eigen_solve passes is.

    The solve runs on lam_n = lam 2^-e, the power of two that puts its
    largest mode in [1/2, 1), and scales d = d_n 2^e and mu back (and the
    guess mu0 in): exact, unless a value leaves the normal floats. It sends
    every mode losslessly (zeros, mu = 0) when the water-filling point lies
    below the rate model's floor 2^-_SPAN_BINADES / lam_n.min(), as it does
    an empty lam. Otherwise the bisection brackets mu by x8 steps from
    lam_n.max() and halves the bracket until a midpoint's computed rate is
    within RATE_TOL_BITS of R_l, raising SolverError when the bracket search
    or RATE_MAX_ITER midpoints fail. Each comparison it makes (rate above or
    below R_l in the bracket search; a hit, above or below at a midpoint)
    compares mu with _rate_model's four thresholds, the model started from the
    guess, and rates mu only where none of them decides. Either way the
    noises, and any SolverError, are the plain bisection's on lam_n bit for
    bit, whatever mu0 is.
    """
    R_l = float(R_l)
    K = lam.size
    lam_max, e = math.frexp(lam[-1] if K else 0.0)
    lam = np.ldexp(lam, -e)
    lams = lam.tolist()
    log_min = math.log2(lams[0]) if K else 0.0
    # lossless iff R_l - sum_k log2 lam_k > floor; as each log2 lam_k lies in
    # [log2 lam_min, 0), that needs R_l > floor + K log2 lam_min, which the cheap
    # first test checks with K log2 lam_min more room for the sum's rounding
    floor = K * (_SPAN_BINADES + log_min)
    if R_l > floor + 2.0 * K * log_min and R_l - float(np.log2(lam).sum()) > floor:
        d = np.zeros(K)
        return d, 0.0, lam, d
    # no model: no threshold decides, and every comparison is rated
    lo, hit_lo, hit_hi, hi = (_rate_model(lams, R_l, math.ldexp(mu0, -e))
                              or (0.0, math.inf, math.inf, math.inf))

    def rate(mu: float) -> float:
        return _mode_rate(lam, _mode_noise(lam, mu))

    mu_hi = lam_max
    grow = 0
    while mu_hi < lo or mu_hi <= hi and rate(mu_hi) > R_l:
        mu_hi *= 8.0
        grow += 1
        if grow > 600:
            raise SolverError("failed to bracket the rate constraint from above")
    mu_lo = mu_hi
    while mu_lo > hi or mu_lo >= lo and rate(mu_lo) < R_l:
        mu_lo /= 8.0
        grow += 1
        if grow > 1200:
            raise SolverError("failed to bracket the rate constraint from below")
    for _ in range(RATE_MAX_ITER):
        mu = 0.5 * (mu_lo + mu_hi)
        if mu < lo:
            mu_lo = mu
        elif mu > hi:
            mu_hi = mu
        elif hit_lo < mu < hit_hi or abs((r := rate(mu)) - R_l) <= RATE_TOL_BITS:
            d = _mode_noise(lam, mu)
            return np.ldexp(d, e), math.ldexp(mu, e), lam, d
        elif r > R_l:
            mu_lo = mu
        else:
            mu_hi = mu
    raise SolverError(f"rate bisection did not converge: R={R_l}, "
                      f"mu=[{math.ldexp(mu_lo, e)},{math.ldexp(mu_hi, e)}]")


def _eigen_solve(P: np.ndarray, R_l: float, mu0: float, ws=None) -> tuple:
    """(U, pos, d, mu, lam_n, d_n) of the SCNM solve on Hermitian P or, given
    the weights' square roots ws, on P * outer(ws, ws), exactly Hermitian too.

    SolverError unless R_l > 0. LAPACK zheevd reads the lower triangle only.
    U is the eigenbasis; pos selects the modes whose eigenvalue exceeds
    RANK_TOL of the largest (all, as a slice, when the smallest does), and the
    rest is the rate solve on those (_solve_mode_noises, guessing mu0): their
    noises d and multiplier mu in P's units, and the scaled modes lam_n and
    noises d_n that rate them. Other modes, round-off-level negative ones
    included, get no noise. P is not judged here: each design has checked it
    by check_psd, the one PSD rule. LinAlgError when zheevd fails.
    """
    if not R_l > 0:           # NaN fails too
        raise SolverError("vector-wise compression needs R_l > 0")
    w, U, info = _ZHEEVD(P if ws is None else P * (ws[:, None] * ws), lower=1)
    if info:
        raise np.linalg.LinAlgError(f"zheevd failed to converge (info {info})")
    tol = RANK_TOL * max(float(w[-1]), 0.0)
    pos = slice(None) if w[0] > tol else w > tol
    return (U, pos) + _solve_mode_noises(w[pos], R_l, mu0)


def _outcome(R_l: float, solve: tuple, ws=None, **extra) -> CompressionOutcome:
    """The outcome of _eigen_solve's solve at R_l and ws: Q = U diag(d on pos,
    0 elsewhere) U^H, its modes first divided by ws row-wise (W^-1/2 U for
    W^1/2 = diag(ws)), symmetrized once, and its rate from the scaled modes,
    or R_l for a lossless solve (d = 0)."""
    U, pos, d, _, lam, dn = solve
    U = U if ws is None else U / ws[:, None]
    dfull = np.zeros(U.shape[1])
    dfull[pos] = d
    return CompressionOutcome(Q=herm((U * dfull) @ U.conj().T),
                              achieved_rate=_mode_rate(lam, dn) if dn.all() else R_l, **extra)


def scnm(P: np.ndarray, R_l: float) -> CompressionOutcome:
    """Minimize trace(Q) s.t. log2 det(P Q^-1 + I) = R_l, Q >= 0.

    P is Hermitian, as the P update leaves it, and is checked PSD
    (check_psd, else PsdError) before the eigensolve, its only PSD verdict:
    the eigenvalues are not judged again. Q shares P's
    eigenbasis; each mode's noise solves the KKT quadratic
    d^2 + lam*d - mu*lam = 0 at the rate bisection's multiplier mu
    (_solve_mode_noises), whose rate model starts cold: _eigen_solve and
    _outcome, which weighted_scnm and wsinm run too.
    """
    check_psd(P, "P")
    return _outcome(R_l, _eigen_solve(P, R_l, math.nan))


def _per_user(values, K: int, name: str) -> np.ndarray:
    """values as floats; SolverError unless they hold one finite, strictly
    positive value per user."""
    v = np.asarray(values, dtype=float)
    if v.shape != (K,) or not np.all((v > 0) & (v < math.inf)):
        raise SolverError(f"{name} must hold one finite, strictly positive value per user")
    return v


def weighted_scnm(P: np.ndarray, R_l: float, weights: np.ndarray) -> CompressionOutcome:
    """Minimize sum_k w_k Q[k,k] under the same rate constraint.

    Solved by the congruence transform P -> W^1/2 P W^1/2, which leaves the
    log-det constraint invariant, undone on Q's modes, as wsinm does in its
    loop without calling this. P is Hermitian and checked PSD, as scnm's;
    the weights must hold one finite, positive value per user.
    """
    ws = np.sqrt(_per_user(weights, P.shape[0], "weights"))
    check_psd(P, "P")
    return _outcome(R_l, _eigen_solve(P, R_l, math.nan, ws), ws)


def wsinm(P: np.ndarray, R_l: float, interference_base: np.ndarray) -> CompressionOutcome:
    """Interference-aware compression via block coordinate descent.

    Alternates (i) weighted trace minimization at the current weights and
    (ii) the closed-form weight update w_k = 1/(ln2 * X_k), where
    X_k = interference_base[k] + Q[k,k] is user k's interference-plus-noise.
    interference_base holds one finite, positive value per user and must
    exclude the current AP's own Q[k,k] term. P is Hermitian and checked
    PSD, as scnm's, once per call: no iteration judges P or its weighted
    form again, and a weighted mode negative by round-off gets no noise.

    Step (i) is weighted_scnm's _eigen_solve, one zheevd per iteration. The
    weight update reads only diag Q, so an iteration forms just that; the
    outcome is formed once, from the last solve. Each rate solve starts its
    rate model's Newton from the previous multiplier, which changes only
    which comparisons are rated: every solve is the plain bisection's bit for
    bit. The weights w = 1 / (ln2 X), X >= base > 0, need no check.
    """
    K = P.shape[0]
    base = _per_user(interference_base, K, "interference-plus-noise base")
    check_psd(P, "P")
    w = np.ones(K)
    mu = math.nan
    log_w = 0.0                  # sum_k log2 w_k
    trace_vals: list[float] = []
    prev_obj = None
    iters = 0
    for it in range(BCD_MAX_ITER):
        iters = it + 1
        ws = np.sqrt(w)
        solve = _eigen_solve(P, R_l, mu, ws)
        U, pos, d, mu = solve[:4]
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
    return _outcome(R_l, solve, ws, weights=w, bcd_iters=iters, objective_trace=trace_vals)
