# Two-Path propagation: the ring is split into two arcs, each runs the
# sequential chain independently, and the CPU fuses the two compressed
# estimates with a global LMMSE combiner.
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainState
from .linalg import _DTRTRS, _cholesky, cholesky_solve, ensure_psd, herm, herm_solve

# condition number above which the fusion Gram matrix gets a diagonal bump;
# kept above 1e12 so a merely ill-scaled (e.g. one useless path) fusion is
# still solved exactly
_COND_LIMIT = 1e14
_REG_SCALE = 1e-12
# a Gram whose certified condition number is at most this skips the bump
# rule: 1e-4 of _COND_LIMIT leaves room for eigvalsh's own rounding, so the
# rule would not have bumped it either
_CERT_LIMIT = 1e-4 * _COND_LIMIT
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PathSummary:
    G: np.ndarray         # (K,K) effective channel
    Z: np.ndarray         # (K,K) effective noise covariance


@dataclass(frozen=True)
class FusedEstimate:
    G: np.ndarray         # (2K,K)
    Z: np.ndarray         # (2K,2K) block-diagonal
    V: np.ndarray         # (K,2K) global LMMSE combiner


def split_paths(L: int) -> tuple[list, list]:
    """Two contiguous arcs of the AP ring, each ending adjacent to the CPU.

    The CPU sits at the last AP's location (index L-1). The first arc takes
    the extra AP when L is odd.
    """
    if L < 2:
        raise ValueError("Two-Path mode needs at least 2 APs")
    L1 = (L + 1) // 2
    path1 = list(range(L1 - 1, -1, -1))   # ends at index 0, ring-adjacent to L-1
    path2 = list(range(L1, L))            # ends at index L-1
    return path1, path2


def summarize_path(chain: ChainState, p: float) -> PathSummary:
    """Effective channel G = T and noise Z = C - p (I-T)(I-T)^H of one path."""
    D = np.eye(chain.T.shape[0]) - chain.T
    Z = chain.C - p * (D @ D.conj().T)
    return PathSummary(G=chain.T, Z=ensure_psd(Z, name="Z"))


def _gram(G: np.ndarray, Z: np.ndarray, p: float) -> np.ndarray:
    """The fusion Gram matrix p G G^H + Z, exactly Hermitian."""
    return herm(p * (G @ G.conj().T) + Z)


def _certified_factor(S: np.ndarray) -> tuple:
    """(c, bound): the upper Cholesky factor c of Hermitian S (_cholesky) and
    an upper bound on cond_2(S) read from it in O(n^2), inf when potrf fails
    or its factor is not finite.

    With S = U^H U, cond_2(S) = lam_max(S) ||U^-1||_2^2, and lam_max(S) <= tr S.
    The comparison matrix M(U) (|u_ii| on the diagonal, -|u_ij| above it)
    bounds |U^-1| <= M(U)^-1 entrywise (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 8.12), so ||U^-1||_2^2 <= n ||M(U)^-1||_1^2, and
    M(U)^-1 >= 0 makes ||M(U)^-1||_1 the largest entry of x in M(U)^T x = 1:
    one real dtrtrs, which reads c's upper triangle only. That bounds the
    condition number B of the computed U^H U = S + E. potrf keeps ||E||_2
    within about n (n + 1) eps ||S||_2 (ibid., Thm 10.3), taken here with a
    factor 4 as delta, which also covers the rounding of B itself; then
    cond_2(S) <= B / (1 - delta (1 + B)).
    """
    c, ok = _cholesky(S)
    if not ok:
        return c, math.inf
    n = len(S)
    M = -np.abs(c)
    M.flat[::n + 1] *= -1.0
    x_max = max(_DTRTRS(M, np.ones(n), trans=1)[0].tolist())
    # products of floats: an overflow gives inf, where ** would raise
    bound = sum(S.diagonal().real.tolist()) * n * x_max * x_max
    delta = 4.0 * (n + 1) ** 2 * _EPS
    slack = 1.0 - delta * (1.0 + bound)
    return c, bound / slack if slack > 0.0 else math.inf


def _fusion_gram(G: np.ndarray, Z: np.ndarray, p: float) -> np.ndarray:
    """p G G^H + Z, with a diagonal bump when nearly singular."""
    n = G.shape[0]
    S = _gram(G, Z, p)
    # S is Hermitian: its singular values are the |eigenvalues|, so one
    # eigvalsh gives the 2-norm condition number before and after the bump
    ev = np.linalg.eigvalsh(S)
    w = np.abs(ev)
    if w.max() > _COND_LIMIT * w.min():
        bump = _REG_SCALE * np.trace(S).real / n
        S = S + bump * np.eye(n)
        w = np.abs(ev + bump)
        if w.max() > w.min() / np.finfo(float).eps:
            raise np.linalg.LinAlgError("fusion Gram matrix is singular")
    return S


def fuse(p1: PathSummary, p2: PathSummary, p: float) -> FusedEstimate:
    """Global LMMSE combination of the two path estimates at the CPU.

    The Gram matrix S is factored once. When its certified condition number
    (_certified_factor) is at most _CERT_LIMIT, _fusion_gram would leave S
    unbumped, and the solve on that factor is herm_solve(S, G) bit for bit.
    Otherwise _fusion_gram's eigvalsh rule decides the bump, or rejects S.
    """
    K = p1.G.shape[1]
    G = np.vstack([p1.G, p2.G])
    Z = np.zeros((2 * K, 2 * K), dtype=complex)
    Z[:K, :K] = p1.Z
    Z[K:, K:] = p2.Z
    c, bound = _certified_factor(_gram(G, Z, p))
    if bound <= _CERT_LIMIT:
        X = cholesky_solve(c, G)
    else:
        X = herm_solve(_fusion_gram(G, Z, p), G)
    return FusedEstimate(G=G, Z=Z, V=p * X.conj().T)


def sinr_fused(fused: FusedEstimate) -> np.ndarray:
    """Per-user LMMSE SINR of the stacked two-path observation model.

    Computed from u_k = (V G)_kk = p g_k^H S^-1 g_k with S the full Gram
    matrix: by a rank-one identity the SINR excluding user k's own column is
    u/(1 - u), which avoids solving one deflated (possibly singular) system
    per user.
    """
    u = np.real(np.sum(fused.V.T * fused.G, axis=0))
    u = np.clip(u, 0.0, 1.0 - np.finfo(float).eps)
    return u / (1.0 - u)
