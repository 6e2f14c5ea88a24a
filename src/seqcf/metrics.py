# Per-user SINR / SE for a terminated chain, and the interference context
# consumed by the interference-aware compression design, both as closed
# forms in the chain's effective channel T and error covariance C.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compression import LN2


@dataclass(frozen=True)
class SeReport:
    sinr: np.ndarray     # (K,) linear
    se: np.ndarray       # (K,) bits/s/Hz
    sum_se: float
    prelog: float


def interference_context(T: np.ndarray, C: np.ndarray, p: float) -> np.ndarray:
    """Per-user interference-plus-noise of s̃ = T s + z with error cov C.

    C = p (I - T)(I - T)^H + cov(z), so p sum_{j != k} |T_kj|^2 + cov(z)_kk
    equals C_kk - p |1 - T_kk|^2. Given C_pre = (I - Gamma H) C_{l-1}, the
    error covariance before the current AP compresses, it is the SINR
    denominator without that AP's own Q[k,k], the base WSINM designs against.
    """
    return np.diag(C).real - p * np.abs(1.0 - np.diag(T)) ** 2


def sinr_chain(T: np.ndarray, C: np.ndarray, p: float) -> np.ndarray:
    """Per-user SINR p |T_kk|^2 / (C_kk - p |1 - T_kk|^2) at the end of a chain.

    T and C are the chain's effective channel and error covariance after its
    terminal AP's compression.
    """
    num = p * np.abs(np.diag(T)) ** 2
    den = interference_context(T, C, p)
    # a user with a zero effective channel has 0/0 here; its SINR is zero
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def se_from_sinr(sinr: np.ndarray, tau_u: int, tau_c: int) -> SeReport:
    """Spectral efficiency with the uplink-data prelog tau_u / tau_c."""
    sinr = np.asarray(sinr, dtype=float)
    if np.any(sinr < 0):
        raise ValueError("SINR must be non-negative")
    prelog = tau_u / tau_c
    se = prelog * np.log1p(sinr) / LN2      # log2(1 + sinr), not 0 below eps
    return SeReport(sinr=sinr, se=se, sum_se=float(se.sum()), prelog=prelog)
