# Network geometry, 3GPP UMi large-scale fading and Rayleigh channel draws.
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, NetworkConfig

# 3GPP Urban Microcell at 2 GHz: gain_dB(d) = -30.5 - 36.7 log10(d)
_PL_OFFSET_DB = -30.5
_PL_SLOPE = 36.7

# users are never dropped on top of an AP; distances below this floor are
# clamped so the dB gain stays negative
MIN_DISTANCE_M = 1.0


@dataclass(frozen=True)
class Layout:
    ap_positions: np.ndarray   # (L, 2), equally spaced on the ring
    user_positions: np.ndarray  # (K, 2), uniform over the inner disk


@dataclass(frozen=True)
class ChannelRealization:
    H: list          # L matrices, each (N, K); column k is user k's channel
    beta: np.ndarray  # (L, K) linear large-scale gains


def place_network(cfg: NetworkConfig, rng: np.random.Generator) -> Layout:
    """Drop L APs equally spaced on the ring and K users uniformly in the disk.

    Uniformity is over the disk *area*: radius = r_max * sqrt(u).
    """
    angles = 2.0 * np.pi * np.arange(cfg.L) / cfg.L
    ap = cfg.ap_ring_radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    r = cfg.user_disk_radius * np.sqrt(rng.random(cfg.K))
    phi = 2.0 * np.pi * rng.random(cfg.K)
    users = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
    return Layout(ap_positions=ap, user_positions=users)


def pathloss_db(d: float | np.ndarray) -> float | np.ndarray:
    """Large-scale channel gain in dB at distance d meters.

    Distances in [0, 1) m are clamped to 1 m; NaN or negative distances
    raise ConfigError.
    """
    if not np.all(np.asarray(d) >= 0):
        raise ConfigError("distance must be a non-negative number")
    d = np.maximum(d, MIN_DISTANCE_M)
    return _PL_OFFSET_DB - _PL_SLOPE * np.log10(d)


def draw_channels(cfg: NetworkConfig, layout: Layout,
                  rng: np.random.Generator) -> ChannelRealization:
    """Draw H_l with i.i.d. CN(0, beta_kl) entries per user column.

    Antennas are uncorrelated (scaled-identity spatial covariance).
    """
    d = np.linalg.norm(layout.ap_positions[:, None, :]
                       - layout.user_positions[None, :, :], axis=2)  # (L, K)
    beta = 10.0 ** (pathloss_db(d) / 10.0)
    # one draw in complex_normal's stream order: per AP, the real parts, then
    # the imaginary parts
    X = rng.standard_normal((cfg.L, 2, cfg.N, cfg.K))
    H = (X[:, 0] + 1j * X[:, 1]) / np.sqrt(2.0) * np.sqrt(beta)[:, None, :]
    return ChannelRealization(H=list(H), beta=beta)
