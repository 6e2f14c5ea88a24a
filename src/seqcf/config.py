# Scalar network parameters and config-file parsing.
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


# NetworkConfig fields that must be integers, and those that must be finite
# and strictly positive
_INTEGERS = ("L", "N", "K", "tau_c")
_POSITIVE_REALS = ("p", "sigma2", "R_T", "ap_ring_radius", "user_disk_radius")


def as_integer(name: str, value) -> int:
    """value as a Python int; ConfigError unless it is an integer (NumPy
    integers are, bool is not). A Python int does not wrap as a NumPy
    unsigned one would in tau_c - K."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def dbm_to_watt(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class NetworkConfig:
    """All scalar parameters of one network setup (powers in linear watts)."""

    L: int = 12                  # number of APs in the chain
    N: int = 10                  # antennas per AP
    K: int = 20                  # single-antenna users
    p: float = dbm_to_watt(20.0)       # per-user transmit power [W]
    sigma2: float = dbm_to_watt(-85.0)  # receiver noise variance [W]
    tau_c: int = 200             # samples per coherence block
    R_T: float = 500.0           # total fronthaul bits per uplink sample
    ap_ring_radius: float = 300.0
    user_disk_radius: float = 150.0

    @property
    def M(self) -> int:
        return self.L * self.N

    @property
    def tau_p(self) -> int:
        # one pilot sample per user
        return self.K

    @property
    def tau_u(self) -> int:
        return self.tau_c - self.tau_p

    def __post_init__(self):
        for name in _INTEGERS:
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.L < 1 or self.N < 1 or self.K < 1:
            raise ConfigError("L, N and K must be positive integers")
        for name in _POSITIVE_REALS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and strictly positive, got {value!r}")
        if self.tau_u <= 0:
            raise ConfigError("tau_c must exceed tau_p = K")

    def replace(self, **kw) -> "NetworkConfig":
        return dataclasses.replace(self, **kw)


# keys accepted in the flat key=value config file; *_dbm entries are
# converted to linear watts at parse time
_INT_KEYS = set(_INTEGERS)
_FLOAT_KEYS = {"R_T", "ap_ring_radius", "user_disk_radius"}
_DBM_KEYS = {"p_dbm": "p", "sigma2_dbm": "sigma2"}


def parse_config_file(path: str) -> NetworkConfig:
    """Parse a flat ``key = value`` text file into a NetworkConfig.

    Unknown keys are rejected. Lines starting with '#' and blank lines
    are ignored.
    """
    kw = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _INT_KEYS | _FLOAT_KEYS | _DBM_KEYS.keys():
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                num = int(val) if key in _INT_KEYS else float(val)
                kw[_DBM_KEYS.get(key, key)] = dbm_to_watt(num) if key in _DBM_KEYS else num
            except (ValueError, OverflowError) as exc:
                kind = "integer" if key in _INT_KEYS else "number"
                raise ConfigError(f"{path}:{lineno}: {key} = {val!r} is not a valid {kind}"
                                  ) from exc
    return NetworkConfig(**kw)
