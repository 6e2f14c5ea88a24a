# Splitting the total fronthaul budget across the APs of a chain. Each scheme
# returns the rates in bits per uplink sample, one entry per chain position.
from __future__ import annotations

import numpy as np

from .config import _check_positive


def equal(R_T: float, L_chain: int) -> np.ndarray:
    """Every AP gets R_T / L."""
    _check(R_T, L_chain)
    return np.full(L_chain, R_T / L_chain)


def linear(R_T: float, L_chain: int) -> np.ndarray:
    """R_l grows linearly with chain position: R_l = 2 R_T l / (L(L+1))."""
    _check(R_T, L_chain)
    l = np.arange(1, L_chain + 1, dtype=float)
    return 2.0 * R_T * l / (L_chain * (L_chain + 1))


def logarithmic(R_T: float, L_chain: int) -> np.ndarray:
    """R_l proportional to log2(l); position 1 gets zero bits."""
    _check(R_T, L_chain)
    if L_chain < 2:
        raise ValueError("logarithmic allocation needs at least 2 chain positions")
    logs = np.log2(np.arange(1, L_chain + 1, dtype=float))
    return R_T * logs / logs.sum()


# each allocation scheme's name and its split of R_T over a chain
SCHEMES = {"ef": equal, "lf": linear, "log": logarithmic}


def schedule(scheme: str, R_T: float, L_chain: int) -> np.ndarray:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown allocation scheme {scheme!r}")
    return SCHEMES[scheme](R_T, L_chain)


def path_budget(R_T: float, L_total: int, L_path: int) -> float:
    """Two-Path budget split, proportional to path length.

    This is the unique split under which equal allocation gives every AP
    R_T / L regardless of the path it sits on.
    """
    _check(R_T, L_path)
    if L_path > L_total:
        raise ValueError(f"a path of {L_path} APs does not fit a ring of {L_total}")
    return R_T * L_path / L_total


def _check(R_T: float, L_chain: int) -> None:
    _check_positive(R_T=R_T)
    if L_chain < 1:
        raise ValueError("chain must contain at least one AP")
