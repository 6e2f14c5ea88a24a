# Scalar network parameters and config-file parsing.
import dataclasses
import math
import numbers
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


def as_integer(name: str, value) -> int:
    """value as a Python int; ConfigError unless it is an integer (NumPy
    integers are, bool is not). A Python int does not wrap as a NumPy
    unsigned one would in tau_c - K."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_positive(**values: float) -> None:
    """ConfigError, a ValueError, unless every value is a finite real > 0, not a bool."""
    for name, value in values.items():
        # float first: an isinstance check against numbers.Real costs about 1 µs
        real = isinstance(value, float) or (isinstance(value, numbers.Real)
                                            and not isinstance(value, bool))
        if not (real and 0.0 < value < math.inf):
            raise ConfigError(f"{name} must be finite and strictly positive, got {value!r}")


def dbm_to_watt(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def _field_value(field: dataclasses.Field, value):
    """value as NetworkConfig's field holds it, by the field's own rule: an
    int field a Python int (L, N and K >= 1), a float field a finite float
    > 0. ConfigError otherwise; the annotation decides which rule applies."""
    if field.type is int:
        value = as_integer(field.name, value)
        if field.name in ("L", "N", "K") and value < 1:
            raise ConfigError("L, N and K must be positive integers")
        return value
    _check_positive(**{field.name: value})
    try:
        return float(value)
    except OverflowError:               # a Python int past the largest float
        raise ConfigError(f"{field.name} must be finite, got {value!r}") from None


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
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _field_value(f, getattr(self, f.name)))
        if self.tau_u <= 0:
            raise ConfigError("tau_c must exceed tau_p = K")

    def replace(self, **kw) -> "NetworkConfig":
        return dataclasses.replace(self, **kw)


# the config-file key of each NetworkConfig field: its name, except that the
# powers are given in dBm as <name>_dbm
_IN_DBM = ("p", "sigma2")
_KEYS = {f"{f.name}_dbm" if f.name in _IN_DBM else f.name: f
         for f in dataclasses.fields(NetworkConfig)}


def parse_config_file(path: str, swept: dict | None = None) -> NetworkConfig:
    """Parse a flat ``key = value`` UTF-8 text file into a NetworkConfig.

    Unknown and repeated keys are rejected. Lines starting with '#' and
    blank lines are ignored. swept maps the fields a sweep sets to its first
    value, which replace the file's, so that the file is checked as the
    network the sweep runs. Each value is checked by its field's rule at its
    own line, even one the sweep replaces; the cross-field rule tau_c > K is
    checked on the network the sweep runs. Every error names the path, and
    an error in one value its line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as f:     # a leading BOM is skipped
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ConfigError(f"{path}: cannot read config file: {reason}") from exc
    kw = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        field = _KEYS[key]
        if field.name in kw:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} is given twice")
        try:
            num = field.type(val)
        except ValueError as exc:
            kind = "integer" if field.type is int else "number"
            raise ConfigError(f"{path}:{lineno}: {key} = {val!r} is not a valid {kind}"
                              ) from exc
        try:           # each value is checked at its line, a power in watts
            num = _field_value(field, dbm_to_watt(num) if field.name in _IN_DBM else num)
        except OverflowError:
            raise ConfigError(f"{path}:{lineno}: {key} = {val!r} is out of range"
                              ) from None
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {key} = {val!r}: {exc}") from None
        kw[field.name] = num
    swept = swept or {}
    try:
        return NetworkConfig(**{**kw, **swept})
    except ConfigError as exc:
        where = "".join(f" with {name} = {value!r}" for name, value in swept.items())
        raise ConfigError(f"{path}{where}: {exc}") from exc
