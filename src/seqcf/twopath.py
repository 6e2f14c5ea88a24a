# Two-Path propagation: the ring is split into two arcs, each runs the
# sequential chain independently, and the CPU fuses the two compressed
# estimates with a global LMMSE combiner.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainState
from .linalg import ensure_psd, herm, herm_solve

# condition number above which the fusion Gram matrix gets a diagonal bump;
# kept above 1e12 so a merely ill-scaled (e.g. one useless path) fusion is
# still solved exactly
_COND_LIMIT = 1e14
_REG_SCALE = 1e-12


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


def _fusion_gram(G: np.ndarray, Z: np.ndarray, p: float) -> np.ndarray:
    """p G G^H + Z, with a diagonal bump when nearly singular."""
    n = G.shape[0]
    S = herm(p * (G @ G.conj().T) + Z)
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
    """Global LMMSE combination of the two path estimates at the CPU."""
    K = p1.G.shape[1]
    G = np.vstack([p1.G, p2.G])
    Z = np.zeros((2 * K, 2 * K), dtype=complex)
    Z[:K, :K] = p1.Z
    Z[K:, K:] = p2.Z
    V = p * herm_solve(_fusion_gram(G, Z, p), G).conj().T
    return FusedEstimate(G=G, Z=Z, V=V)


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
