# Splitting the total fronthaul budget across the APs of a chain. Every split
# is R_T w / sum(w) for one weight per chain position, and returns the rates in
# bits per uplink sample, one entry per position.
from __future__ import annotations

import numpy as np

from .config import _check_positive

# each allocation scheme's name and its weights of chain positions l = 1..L:
# EF gives every AP R_T / L, LF a rate that grows with l, LOG none to l = 1
SCHEMES = {"ef": np.ones_like, "lf": lambda l: l, "log": np.log2}


def schedule(scheme: str, R_T: float, L_chain: int) -> np.ndarray:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown allocation scheme {scheme!r}")
    return split(R_T, SCHEMES[scheme](np.arange(1, L_chain + 1, dtype=float)))


def split(R_T: float, weights) -> np.ndarray:
    """R_T shared in proportion to the weights: R_T w / sum(w)."""
    _check_positive(R_T=R_T)
    w = np.asarray(weights, dtype=float)
    if w.size < 1:
        raise ValueError("chain must contain at least one AP")
    total = w.sum()
    if not total > 0:
        raise ValueError(f"the allocation weights of a {w.size}-AP chain "
                         "must sum to more than 0")
    return R_T * w / total
