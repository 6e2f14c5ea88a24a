# Small Hermitian/PSD helpers shared by the chain and compression code.
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

# eigenvalues below -PSD_REL_TOL * ||X||_2 indicate a bug, not round-off
PSD_REL_TOL = 1e-10


class PsdError(RuntimeError):
    """A matrix that should be PSD has a genuinely negative eigenvalue."""


def herm(X: np.ndarray) -> np.ndarray:
    """Symmetrize against floating-point drift."""
    return 0.5 * (X + X.conj().T)


def check_psd_spectrum(w: np.ndarray, name: str = "matrix") -> None:
    """Raise PsdError if the ascending eigenvalues w have a genuinely negative one."""
    scale = max(np.max(np.abs(w)), 1e-300)
    if w[0] < -PSD_REL_TOL * scale:
        raise PsdError(f"{name} has negative eigenvalue {w[0]:.3e} (scale {scale:.3e})")


def ensure_psd(X: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Symmetrize X and clip round-off-level negative eigenvalues to zero."""
    X = herm(X)
    w, U = np.linalg.eigh(X)
    check_psd_spectrum(w, name)
    if w[0] >= 0.0:
        return X
    return herm((U * np.clip(w, 0.0, None)) @ U.conj().T)


def complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard circularly symmetric complex Gaussian, unit variance per entry."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def sample_cn(rng: np.random.Generator, Q: np.ndarray, n: int | None = None) -> np.ndarray:
    """Draw from CN(0, Q) via a Hermitian square-root factor of Q.

    Returns shape (K,) for n=None, else (K, n).
    """
    K = Q.shape[0]
    w, U = np.linalg.eigh(herm(Q))
    F = U * np.sqrt(np.clip(w, 0.0, None))
    z = complex_normal(rng, K if n is None else (K, n))
    return F @ z


def herm_solve(S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve S X = B for Hermitian positive definite S (Cholesky path)."""
    return sla.solve(S, B, assume_a="pos")
