# Sequential per-AP LMMSE refinement along one fronthaul chain, tracking
# the error covariance, the pre-compression correlation and the effective
# channel of the forwarded estimate.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compression as comp
from . import metrics
from .config import _check_positive
from .linalg import ensure_psd, herm, herm_solve

# The per-AP products are np.dot calls: the same BLAS zgemm as the @ operator,
# to the same bits, without the ufunc dispatch, which cost about 2 of the 5 us
# of a 20 x 10 x 20 complex product (one BLAS thread, 2-vCPU Xeon).

# rates at or below this are treated as a dead link: it forwards nothing (zero
# bits convey zero information), so the chain after it starts from the prior
ZERO_RATE_TOL = 1e-12

# the compression designs a chain can run: each maps an AP's P, R_l, T, C_pre
# and p to the noise it forwards: its outcome's noise, in the form the chain
# carries (EIU's diagonal noise as its diagonal). Each looks its seqcf
# functions up when called, so a wrapper patched onto the module sees every call
DESIGNS = {
    "eiu": lambda P, R_l, T, C_pre, p: comp.eiu(P, R_l).noise,
    "scnm": lambda P, R_l, T, C_pre, p: comp.scnm(P, R_l).noise,
    "wsinm": lambda P, R_l, T, C_pre, p: comp.wsinm(
        P, R_l, metrics.interference_context(T, C_pre, p)).noise,
}


@dataclass
class ChainState:
    """K x K statistics of the estimate s̃ a chain forwards; s̃ is never formed."""
    C: np.ndarray             # (K,K) error covariance E[(s - s̃)(s - s̃)^H]
    P: np.ndarray             # (K,K) pre-compression correlation
    T: np.ndarray             # (K,K) effective channel: s̃ = T s + noise


def initial_state(K: int, p: float) -> ChainState:
    return ChainState(C=p * np.eye(K, dtype=complex),
                      P=np.zeros((K, K), dtype=complex),
                      T=np.zeros((K, K), dtype=complex))


def gain(C_prev: np.ndarray, H_l: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma, H C): the LMMSE combining matrix Gamma = C H^H (H C H^H +
    sigma2 I)^-1, via a PD solve, and the N x K product H C it is formed from.

    Gamma is K x N, so the chain applies the rank-N update Gamma H only as
    its factors: Gamma H C = Gamma (H C), and no K x K Gamma H is formed.
    """
    _check_positive(sigma2=sigma2)
    HC = np.dot(H_l, C_prev)
    S = np.dot(HC, H_l.conj().T)        # only factored: herm_solve reads its upper triangle
    S.ravel()[::len(S) + 1] += sigma2       # a view of the fresh S's diagonal
    # (S^-1 H C)^H = C H^H S^-1 for Hermitian C
    return herm_solve(S, HC).conj().T, HC


def refine(s_tilde_prev: np.ndarray, Gamma: np.ndarray,
           H_l: np.ndarray, y_l: np.ndarray) -> np.ndarray:
    """Innovation update of a realized estimate.

    run_chain tracks only statistics and never calls this; it states the
    per-AP update that those statistics describe.
    """
    return s_tilde_prev + Gamma @ (y_l - H_l @ s_tilde_prev)


def update_error_cov(C_pre: np.ndarray, Q_l: np.ndarray) -> np.ndarray:
    """C_l = C_pre + Q_l, symmetrized and checked PSD.

    C_pre = (I - Gamma H) C_{l-1} is the error covariance before the AP
    compresses. Q_l may be a diagonal noise given as its diagonal (K,), as
    in update_pre_compression_corr: it is then added to C_pre's diagonal in
    place, to the same bits as the matrix sum.
    """
    if Q_l.ndim == 2:
        return ensure_psd(C_pre + Q_l, name="C")
    C_pre.flat[::len(Q_l) + 1] += Q_l
    return ensure_psd(C_pre, name="C")


def update_pre_compression_corr(P_prev: np.ndarray, Q_prev: np.ndarray, Gamma: np.ndarray,
                                H_l: np.ndarray, GHC: np.ndarray) -> np.ndarray:
    """Correlation of the refined estimate before compression, the paper's
    P_prev + Q_prev + GHC - Q_prev (Gamma H)^H - Gamma H Q_prev, with
    GHC = Gamma (H C_{l-1}) the chain step's product, assembled and
    symmetrized; each design checks it is PSD (linalg.check_psd) before
    it reads it. As Q_prev, the previous AP's noise, is Hermitian,
    Q_prev (Gamma H)^H = (GHQ)^H with GHQ = Gamma (H Q_prev), two K x N x K
    products. Q_prev may be diagonal, given as its diagonal (K,): it is then
    added to P's diagonal and H Q_prev scales H's columns, to the same bits
    as the matrix forms.
    """
    if Q_prev.ndim == 2:
        P, HQ = P_prev + Q_prev, np.dot(H_l, Q_prev)
    else:
        P = P_prev.copy()
        P.ravel()[::len(Q_prev) + 1] += Q_prev       # a view of the copy's diagonal
        HQ = H_l * Q_prev
    GHQ = np.dot(Gamma, HQ)
    P += GHC
    P -= GHQ.conj().T
    P -= GHQ
    return herm(P)


def propagate_combiners(T_prev: np.ndarray, Gamma: np.ndarray, H_l: np.ndarray) -> np.ndarray:
    """Effective-channel step T_l = (I - Gamma H) T_{l-1} + Gamma H, formed as
    T_{l-1} + Gamma (H - H T_{l-1}) from two K x N x K products.

    T_l = sum_i V_il H_i is what the combiners V_il of all APs so far make of
    the user signals, so the chain never has to carry the V_il themselves.
    """
    D = np.dot(H_l, T_prev)
    np.subtract(H_l, D, out=D)
    T = np.dot(Gamma, D)
    T += T_prev
    return T


def centralized(p: float, sigma2: float, H: list) -> ChainState:
    """The compression-free chain over the APs H in closed form.

    Without compression the chain is the batch LMMSE over all its APs, in
    information form C = (I/p + sum_l H_l^H H_l / sigma2)^-1 and T = I - C/p:
    one Gram product and one PD solve instead of one gain step per AP.
    An EIU chain at infinite rates, whose noise is exactly 0, is the per-AP
    recursion it equals; P is left at 0.
    """
    _check_positive(p=p, sigma2=sigma2)
    if not len(H):
        raise ValueError("the chain is empty: H has no AP")
    Hs = np.concatenate(H)
    K = Hs.shape[1]
    J = np.dot(Hs.conj().T, Hs) / sigma2
    J.flat[::K + 1] += 1.0 / p
    C = herm(herm_solve(J, np.eye(K, dtype=complex)))
    T = -C / p
    T.flat[::K + 1] += 1.0
    return ChainState(C=C, P=np.zeros((K, K), dtype=complex), T=T)


def run_chain(p: float, sigma2: float, H: list, strategy: str, rates) -> ChainState:
    """Run the full refine -> compress pass over an ordered AP subset.

    H holds the per-AP channels in chain order and rates gives R_l per AP.
    strategy is one of DESIGNS. A dead link (rate <= ZERO_RATE_TOL) forwards
    nothing, so only the APs after the last one run, from the prior; the APs
    before it are not computed. Only the statistics of the forwarded estimate
    are tracked, so the result is a deterministic function of the channels;
    no per-AP compression outcome is kept. Each AP step applies its gain only
    through the K x N Gamma, so the recursions form no K x K x K product; only
    the compression designs do.
    """
    _check_positive(p=p, sigma2=sigma2)
    if strategy not in DESIGNS:
        raise ValueError(f"unknown compression strategy {strategy!r}")
    if not len(H):
        raise ValueError("the chain is empty: H has no AP")
    rates = np.asarray(rates, dtype=float)
    if len(rates) != len(H):
        raise ValueError("H and rates must have one entry per chain AP")
    if not (rates >= 0.0).all():      # NaN fails too; 0 is a dead link, inf lossless
        raise ValueError("a chain rate is NaN or negative")
    compress = DESIGNS[strategy]
    K = H[0].shape[1]
    st = initial_state(K, p)
    C, P, T = st.C, st.P, st.T
    start = max(np.flatnonzero(rates <= ZERO_RATE_TOL), default=-1) + 1
    # the previous AP's compression noise, a zero diagonal before the first;
    # EIU's is diagonal and carried as its diagonal
    Q_l = np.zeros(K)
    for H_l, R_l in zip(H[start:], rates[start:].tolist()):
        Gamma, HC = gain(C, H_l, sigma2)
        GHC = np.dot(Gamma, HC)
        C_pre = C - GHC           # (I - Gamma H) C_{l-1}, before compression
        T = propagate_combiners(T, Gamma, H_l)
        # Q_l is still the previous AP's noise here
        P = update_pre_compression_corr(P, Q_l, Gamma, H_l, GHC)
        Q_l = compress(P, R_l, T, C_pre, p)
        C = update_error_cov(C_pre, Q_l)
    return ChainState(C=C, P=P, T=T)
