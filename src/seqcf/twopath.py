# Two-Path propagation: the ring is split into two arcs, each runs the
# sequential chain independently, and the CPU fuses the two compressed
# estimates with a global LMMSE combiner.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainState
from .linalg import ensure_psd, herm_solve

# relative diagonal ridge on the fusion Gram matrix: each fused entry gets an
# extra noise of _RIDGE times its own power
_RIDGE = 1e-12


@dataclass(frozen=True)
class PathSummary:
    G: np.ndarray         # (K,K) effective channel
    Z: np.ndarray         # (K,K) effective noise covariance


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
    Z = chain.C - p * np.dot(D, D.conj().T)
    return PathSummary(G=chain.T, Z=ensure_psd(Z, name="Z"))


def fuse(paths: list, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Global LMMSE combination of the path estimates at the CPU.

    paths is a sequence of PathSummary; returns the (K, nK) combiner V and
    the stacked channel G. The paths' noises are independent, so the Gram
    matrix is p G G^H with each path's Z added onto its own diagonal block.

    The Gram matrix S, not symmetrized, is solved with a relative ridge on its
    diagonal, S_kk (1 + _RIDGE), by one herm_solve. V is thus the exact LMMSE
    combiner of an observation whose entries each carry _RIDGE of their own
    power as extra noise, so its SINR never exceeds the exact one; and as the
    ridge scales with its row, an ill-scaled path is solved like any other.
    An entry with S_kk <= 0 gets _RIDGE p instead: a path that forwards
    nothing gives S_kk = 0 with a zero row and column, which any positive
    ridge leaves out of the solve, so where no path forwards anything every
    SINR is 0. Each ridge is at least len(S) eps times the largest S_kk on
    its own path: the round-off of Z = C - p (I-T)(I-T)^H on an overloaded
    arc, whose negative modes can exceed _RIDGE S_kk. A ridged S that is
    indefinite beyond that, or not finite, raises LinAlgError.
    """
    G = np.vstack([path.G for path in paths])
    S = p * np.dot(G, G.conj().T)
    K = G.shape[1]
    for i, path in enumerate(paths):
        S[i * K:(i + 1) * K, i * K:(i + 1) * K] += path.Z
    s = S.diagonal().real
    floor = len(S) * np.finfo(float).eps * s.reshape(len(paths), K).max(axis=1)
    ridge = np.maximum(_RIDGE * np.where(s > 0.0, s, p), np.repeat(floor, K))
    S.ravel()[::len(S) + 1] += ridge      # a view of the fresh S's diagonal
    return p * herm_solve(S, G).conj().T, G


def sinr_fused(V: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Per-user LMMSE SINR from fuse's combiner V and stacked channel G.

    Computed from u_k = (V G)_kk = p g_k^H S^-1 g_k with S the full Gram
    matrix: by a rank-one identity the SINR excluding user k's own column is
    u/(1 - u), which avoids solving one deflated (possibly singular) system
    per user.
    """
    u = np.real(np.sum(V.T * G, axis=0))
    u = np.clip(u, 0.0, 1.0 - np.finfo(float).eps)
    return u / (1.0 - u)
