"""Simulation configuration: defaults, flat key=value files, manifests.

Defaults follow the evaluation setup: 400x400 m arena, coverage r=60 m,
slot 100 us, transmit power 30 dBm, processing power 10 dBm, path loss
10^-3.53 at 1 m with exponent 4.2 on device-to-device links and 2.0 on
reflected segments, N=250 reflecting elements, Rician K=10 dB, total
delay budget 50 ms, harvester (24 mW, a=150, b=0.014), BER target 1e-6,
blocklength 1000 at error probability 1e-4.

``SimConfig`` is the only home of these constants: the channel, link
budget, router and metrics read its fields and its derived SI quantities
directly, and no module keeps a copy under another name. The derived
quantities are computed once per config, on first read. A transmission
mode is its bit count b (constellation 2**b): ``target_ber`` and
``threshold_rule`` set the SNR threshold of each b (see ``linkbudget``),
and ``fixed_rate_bits`` pins one b for the fixed-modulation baseline.
Fixed endpoints, when set, must lie inside the arena and more than 1e-9 m
apart, as ``generate_topology`` draws them, and the destination off the
reflector grid. The reflector grid holds at most
``MAX_RIS_PER_SIDE`` surfaces a side (10,000 in all; the densest workload
grid, at r = 30 m, is 27 x 27), counted before any grid is built. The arena
is ``MIN_ARENA_M`` to ``MAX_ARENA_M`` a side, 1 m to 1e6 m: the scan's
unnormalised projection would overflow near 1e154 m and underflow near
1e-154 m, and ``generate_topology``, which draws endpoints until they lie
1e-9 m apart, would never end in an arena under 7e-10 m.
Link-budget keys outside their physical ranges are refused, never clamped:
``rho_l_db <= 0`` (a loss),
``noise_dbm >= -200``, ``tx_power_dbm <= 60``, and path-loss exponents
``alpha_d2d`` and ``alpha_other`` in (0, 10]: a gain that falls with
distance, no faster than the steepest measured exponents (about 6 in
obstructed buildings), which keeps ``d ** -alpha`` finite for any
d > 1e-30 m. The harvester's ``eh_slope * eh_threshold_w`` is at most 700
(2.1 by default), so its curve never overflows, and its saturation power
``mh_mw`` is at most the transmit power: a relay harvests less than a hop
spends (``invariants.check_ledger`` checks it), and the last hop, into the destination, harvests nothing, so a
route's net energy is positive.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config file."""


MAX_RIS_PER_SIDE = 100
MIN_ARENA_M, MAX_ARENA_M = 1.0, 1e6


def as_integer(name: str, value) -> int:
    """``value`` of the integer field ``name`` as an int; numpy's int64 passes, a bool or a float is refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class SimConfig:
    # Topology
    arena_m: float = 400.0
    coverage_m: float = 60.0
    iu_count: int = 400
    ris_spacing_m: float | None = None  # None -> coverage_m / 2
    ris_elements: int = 250
    # Traffic (scalar or one value per IU)
    lambda_off_ms: float | tuple[float, ...] = 4.0
    mu_on_ms: float | tuple[float, ...] = 4.0
    slot_us: float = 100.0
    delta: float = 0.1
    p_th: float = 0.01
    # Channel / link budget
    rho_l_db: float = -35.3
    alpha_d2d: float = 4.2
    alpha_other: float = 2.0
    noise_dbm: float = -100.0
    tx_power_dbm: float = 30.0
    proc_power_dbm: float = 10.0
    rician_k_db: float = 10.0
    blocklength: int = 1000
    epsilon: float = 1e-4
    # Modulation / harvesting / demand
    target_ber: float = 1e-6
    threshold_rule: str = "table3"  # or "eqtext"
    mh_mw: float = 24.0
    eh_slope: float = 150.0
    eh_threshold_w: float = 0.014
    packets: int = 4
    bits_per_packet: int = 8
    # Routing
    total_delay_ms: float = 50.0
    fixed_rate_bits: int = 2  # constellation pinned by the fixed-modulation baseline
    # Optional fixed endpoints (defaults: experiments pick their own)
    source_xy: tuple[float, float] | None = None
    dest_xy: tuple[float, float] | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":  # stored as an int, so the manifest can record it
                object.__setattr__(self, f.name, as_integer(f.name, value))
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v!r}")
        if self.arena_m <= 0 or self.coverage_m <= 0:
            raise ConfigError("arena_m and coverage_m must be positive")
        if self.iu_count < 0:
            raise ConfigError("iu_count must be nonnegative")
        if self.ris_elements < 1:
            raise ConfigError("ris_elements must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if not 0.0 < self.p_th < 1.0:
            raise ConfigError("p_th must lie in (0, 1)")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        if not 0.0 < self.target_ber < 1.0:
            raise ConfigError("target_ber must lie in (0, 1)")
        if self.threshold_rule not in ("table3", "eqtext"):
            raise ConfigError(f"threshold_rule must be 'table3' or 'eqtext', got {self.threshold_rule!r}")
        if not 1 <= self.fixed_rate_bits <= 8:
            raise ConfigError(f"fixed_rate_bits must lie in 1..8, got {self.fixed_rate_bits}")
        if self.slot_us <= 0 or self.total_delay_ms <= 0:
            raise ConfigError("slot_us and total_delay_ms must be positive")
        if self.total_delay_s < self.slot_s:  # a route takes at least one slot
            raise ConfigError(f"total_delay_ms = {self.total_delay_ms!r} is shorter than one slot "
                              f"(slot_us = {self.slot_us!r})")
        if self.packets < 1 or self.bits_per_packet < 1:
            raise ConfigError("packets and bits_per_packet must be >= 1")
        if self.blocklength < 1:
            raise ConfigError(f"blocklength must be >= 1, got {self.blocklength}")
        if self.ris_spacing_m is not None and self.ris_spacing_m <= 0:
            raise ConfigError(f"ris_spacing_m must be positive when set, got {self.ris_spacing_m}")
        for name, to_linear in (("rician_k_db", db_to_linear), ("rho_l_db", db_to_linear),
                                ("tx_power_dbm", dbm_to_watts), ("proc_power_dbm", dbm_to_watts),
                                ("noise_dbm", dbm_to_watts)):
            try:
                linear = to_linear(getattr(self, name))
            except OverflowError:
                linear = math.inf
            # K = 0 is Rayleigh fading; every other linear value scales or divides a power
            if not math.isfinite(linear) or (linear <= 0.0 and name != "rician_k_db"):
                raise ConfigError(f"{name} = {getattr(self, name)!r} is out of range: its linear value is {linear!r}")
        for name, ok, rule in (("rho_l_db", self.rho_l_db <= 0.0, "<= 0"),
                               ("noise_dbm", self.noise_dbm >= -200.0, ">= -200"),
                               ("tx_power_dbm", self.tx_power_dbm <= 60.0, "<= 60"),
                               ("alpha_d2d", 0.0 < self.alpha_d2d <= 10.0, "in (0, 10]"),
                               ("alpha_other", 0.0 < self.alpha_other <= 10.0, "in (0, 10]")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        for name in ("mh_mw", "eh_slope", "eh_threshold_w"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.eh_slope * self.eh_threshold_w > 700.0:  # exp(a b), the harvest curve's largest term, stays finite
            raise ConfigError(f"eh_slope * eh_threshold_w must be <= 700, got {self.eh_slope * self.eh_threshold_w!r}")
        if self.mh_mw * 1e-3 > self.tx_power_w:
            raise ConfigError(f"mh_mw = {self.mh_mw!r} exceeds the transmit power of {self.tx_power_w * 1e3!r} mW")
        for name in ("lambda_off_ms", "mu_on_ms"):
            val = getattr(self, name)
            vals = val if isinstance(val, tuple) else (val,)
            if not vals or any(v <= 0 for v in vals):
                raise ConfigError(f"{name} values must be positive")
            if isinstance(val, tuple) and len(val) != self.iu_count:
                raise ConfigError(f"{name} has {len(val)} per-IU values but iu_count is {self.iu_count}")
        for name in ("source_xy", "dest_xy"):
            xy = getattr(self, name)
            if xy is not None and not all(0.0 <= v <= self.arena_m for v in xy):
                raise ConfigError(f"{name} {xy} lies outside the arena (arena_m = {self.arena_m:g})")
        if None not in (self.source_xy, self.dest_xy) and not math.dist(self.source_xy, self.dest_xy) > 1e-9:
            raise ConfigError(f"source_xy {self.source_xy} and dest_xy {self.dest_xy} must lie more than 1e-9 m apart")
        # np.arange(spacing/2, arena, spacing) holds ceil of this many surfaces a row, and the grid is square
        if (self.arena_m - self.ris_spacing / 2.0) / self.ris_spacing > MAX_RIS_PER_SIDE:
            raise ConfigError(f"a {self.ris_spacing:g} m reflector grid over a {self.arena_m:g} m arena has more "
                              f"than {MAX_RIS_PER_SIDE} surfaces a side; raise coverage_m or ris_spacing_m")
        if not MIN_ARENA_M <= self.arena_m <= MAX_ARENA_M:
            raise ConfigError(f"arena_m must lie in [{MIN_ARENA_M:g}, {MAX_ARENA_M:g}] m, got {self.arena_m:g}")
        if self.dest_xy is not None:  # a scan centred on the destination would face no direction
            from .topology import ris_grid_positions  # deferred: topology imports this module
            if (ris_grid_positions(self.arena_m, self.ris_spacing) == self.dest_xy).all(axis=1).any():
                raise ConfigError(f"dest_xy {self.dest_xy} sits on a reflector of the {self.ris_spacing:g} m grid")

    # Derived quantities, SI units, each computed on first read.

    @cached_property
    def slot_s(self) -> float:
        return self.slot_us * 1e-6

    @cached_property
    def total_delay_s(self) -> float:
        return self.total_delay_ms * 1e-3

    @cached_property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @cached_property
    def proc_power_w(self) -> float:
        return dbm_to_watts(self.proc_power_dbm)

    @cached_property
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @cached_property
    def rho_l(self) -> float:
        return db_to_linear(self.rho_l_db)

    @property
    def ris_spacing(self) -> float:
        return self.coverage_m / 2.0 if self.ris_spacing_m is None else self.ris_spacing_m

    @property
    def total_bits(self) -> int:
        """alpha_k phi, the bits one transfer carries."""
        return self.packets * self.bits_per_packet

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}  # e.g. "float | None", "tuple[float, float] | None"


def _number(key: str, raw) -> int | float:
    """One number of ``key``: its value, or one element of its list or pair."""
    if isinstance(raw, bool):
        raise ConfigError(f"config key '{key}' takes numbers, not booleans, got {raw!r}")
    try:
        return int(str(raw).strip()) if _FIELD_TYPES[key] == "int" else float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key '{key}': cannot parse value {raw!r}") from exc


def _coerce(key: str, raw) -> object:
    """``raw`` as the value of ``key``, by its field's annotation: None where it ends in ``| None``, a
    string for ``str``, a tuple where it names one (a pair for ``tuple[float, float]``), else a number."""
    kind = _FIELD_TYPES[key]
    if raw is None or (isinstance(raw, str) and raw.strip().lower() in ("none", "null")):
        if kind.endswith("| None"):
            return None
        raise ConfigError(f"config key '{key}' cannot be null")
    if kind == "str":
        return str(raw).strip()
    if isinstance(raw, str) and "," in raw:
        raw = [p for p in (s.strip() for s in raw.split(",")) if p]
    pair = kind.startswith("tuple[float, float]")
    if not isinstance(raw, (list, tuple)):
        if pair:
            raise ConfigError(f"config key '{key}' needs exactly two values, got {raw!r}")
        return _number(key, raw)
    if "tuple" not in kind:
        raise ConfigError(f"config key '{key}' does not accept a list")
    if pair and len(raw) != 2:
        raise ConfigError(f"config key '{key}' needs exactly two values")
    return tuple(_number(key, v) for v in raw)


def config_from_mapping(mapping: dict) -> SimConfig:
    """Build a config from a flat mapping; unknown keys are rejected by name."""
    overrides = {}
    for key, raw in mapping.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        overrides[key] = _coerce(key, raw)
    return SimConfig(**overrides)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's mapping; a key set twice is refused, not resolved by the last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config key '{key}' is set twice")
        out[key] = value
    return out


def load_config(path: str | Path) -> SimConfig:
    """Load a flat ``key = value`` file or a JSON run manifest.

    Lines starting with ``#`` and blank lines are ignored. A JSON file may
    either be a flat mapping or a manifest with a ``"config"`` entry. Either
    refuses a key set twice.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
        if "config" in data and isinstance(data["config"], dict):
            data = data["config"]
        return config_from_mapping(data)
    mapping, first = {}, {}  # key: value, key: the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if first.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}:{lineno}: config key '{key}' is set twice (first on line {first[key]})")
        mapping[key] = value.split("#", 1)[0].strip()
    return config_from_mapping(mapping)
