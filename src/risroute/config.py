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

Every number field of ``SimConfig`` and of ``experiments.ExperimentPlan``
has one row in ``RANGES``: the interval each of its values lies in, with
the reason as the row's comment. ``check_numbers`` reads it for both
records: it stores each value as its annotation's type, an int or a float
(so the manifest can record it), refuses a bool or a non-number, and
checks every element of a tuple. Bad values are refused, never clamped.
The rules that tie fields together come after it:
- a route takes at least one slot, so the budget is at least ``slot_us``;
- each dB key has a finite linear value, and only ``rician_k_db``'s may be
  0 (Rayleigh fading); every other one scales or divides a power;
- the harvester's ``eh_slope * eh_threshold_w`` is at most 700 (2.1 by
  default), so its curve never overflows, and its saturation power
  ``mh_mw`` is at most the transmit power: a relay harvests less than a
  hop spends (``invariants.check_ledger`` checks it), and the last hop,
  into the destination, harvests nothing, so a route's net energy is
  positive;
- a per-IU ``lambda_off_ms`` or ``mu_on_ms`` holds one value per IU;
- fixed endpoints, when set, lie inside the arena and more than 1e-9 m
  apart, as ``generate_topology`` draws them, and the destination off the
  reflector grid;
- the reflector grid holds at most ``MAX_RIS_PER_SIDE`` surfaces a side
  (10,000 in all; the densest workload grid, at r = 30 m, is 27 x 27),
  counted before any grid is built.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path


class ConfigError(ValueError):
    """Bad key, bad value, or unreadable config file."""


MAX_RIS_PER_SIDE = 100

# Each number field's interval, for ``SimConfig`` and ``experiments.ExperimentPlan`` (module docstring),
# written as a refusal prints it; fields that share a reason share a line.
RANGES = {
    # the scan's unnormalised projection would overflow near 1e154 m and underflow near 1e-154 m, and
    # generate_topology, which draws endpoints until they lie 1e-9 m apart, would never end under 7e-10 m
    "arena_m": "[1, 1e6]",
    "coverage_m": "(0, inf)", "ris_spacing_m": "(0, inf)",  # ris_spacing_m when set; the grid cap follows
    "iu_count": "[0, inf)", "ris_elements": "[1, inf)", "blocklength": "[1, inf)",
    "packets": "[1, inf)", "bits_per_packet": "[1, inf)",  # a transfer carries at least one bit
    "lambda_off_ms": "(0, inf)", "mu_on_ms": "(0, inf)",  # a scalar, or each per-IU value
    "slot_us": "(0, inf)", "total_delay_ms": "(0, inf)",  # a budget of at least one slot follows
    # a tolerance, a probability threshold and an error probability, each strictly inside its ends
    "delta": "(0, 1)", "p_th": "(0, 1)", "target_ber": "(0, 1)",
    # a block error probability: above 1/2, Qinv(epsilon) < 0 and the short-packet rate exceeds the
    # Shannon rate, and the normal approximation is stated for epsilon below 1/2; at 1/2 the two rates meet
    "epsilon": "(0, 0.5]",
    "rho_l_db": "(-inf, 0]",  # a loss
    # a gain that falls with distance, no faster than the steepest measured exponents (about 6 in
    # obstructed buildings), which keeps d ** -alpha finite for any d > 1e-30 m
    "alpha_d2d": "(0, 10]", "alpha_other": "(0, 10]",
    # physical ranges; these and the other dB keys are finite, and each one's linear value is checked later
    "noise_dbm": "[-200, inf)", "tx_power_dbm": "(-inf, 60]",
    "proc_power_dbm": "(-inf, inf)", "rician_k_db": "(-inf, inf)",
    "mh_mw": "(0, inf)", "eh_slope": "(0, inf)", "eh_threshold_w": "(0, inf)",  # their joint bounds follow
    "fixed_rate_bits": "[1, 8]",  # a constellation of 2 to 256 points
    "source_xy": "(-inf, inf)", "dest_xy": "(-inf, inf)",  # finite; the arena bounds them later
    # ExperimentPlan; SeedSequence refuses a negative seed too, but only after the manifest is written
    "seed": "[0, inf)", "replications": "[1, inf)", "threads": "[1, inf)",
    "coverage_grid": "(0, inf)", "density_grid": "[0, inf)",  # each a grid point's coverage_m or iu_count
    "vmax_grid": "[0, inf)",  # a negative or NaN speed would run static routes
}


def _stored(name: str, integer: bool, value) -> int | float:
    """One value of the number field ``name`` as stored, an int (numpy's int64 passes) or a float,
    refused when it is a bool, no number, or outside its interval."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a real number'}, got {value!r}")
    try:
        number = int(value) if integer else float(value)
    except OverflowError:  # an int past the float range lies outside every interval, as NaN does
        number = math.nan
    interval = RANGES[name]
    low, high = (float(end) for end in interval[1:-1].split(","))
    if not ((low <= number) if interval[0] == "[" else (low < number)) or \
            not ((number <= high) if interval[-1] == "]" else (number < high)):
        raise ConfigError(f"{name} must lie in {interval}, got {value!r}")
    return number


def check_numbers(record) -> None:
    """Store every number field of ``record``, a ``SimConfig`` or an ``ExperimentPlan``, by its
    annotation and ``RANGES`` (module docstring): a tuple element by element, and never empty; an
    endpoint pair as a pair."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name not in RANGES or (value is None and f.type.endswith("| None")):
            continue
        if f.type.startswith("tuple[float, float]") and not (isinstance(value, tuple) and len(value) == 2):
            raise ConfigError(f"{f.name} must be a pair of numbers, got {value!r}")
        if isinstance(value, tuple) and "tuple" in f.type:
            if not value:
                raise ConfigError(f"{f.name} must hold at least one value")
            value = tuple(_stored(f.name, "int" in f.type, v) for v in value)
        else:
            value = _stored(f.name, "int" in f.type, value)
        object.__setattr__(record, f.name, value)


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
        check_numbers(self)
        if self.threshold_rule not in ("table3", "eqtext"):
            raise ConfigError(f"threshold_rule must be 'table3' or 'eqtext', got {self.threshold_rule!r}")
        if self.total_delay_s < self.slot_s:  # a route takes at least one slot
            raise ConfigError(f"total_delay_ms = {self.total_delay_ms!r} is shorter than one slot "
                              f"(slot_us = {self.slot_us!r})")
        for name, to_linear in (("rician_k_db", db_to_linear), ("rho_l_db", db_to_linear),
                                ("tx_power_dbm", dbm_to_watts), ("proc_power_dbm", dbm_to_watts),
                                ("noise_dbm", dbm_to_watts)):
            try:
                linear = to_linear(getattr(self, name))
            except OverflowError:
                linear = math.inf
            if not math.isfinite(linear) or (linear <= 0.0 and name != "rician_k_db"):
                raise ConfigError(f"{name} = {getattr(self, name)!r} is out of range: its linear value is {linear!r}")
        if self.eh_slope * self.eh_threshold_w > 700.0:  # exp(a b), the harvest curve's largest term, stays finite
            raise ConfigError(f"eh_slope * eh_threshold_w must be <= 700, got {self.eh_slope * self.eh_threshold_w!r}")
        if self.mh_mw * 1e-3 > self.tx_power_w:
            raise ConfigError(f"mh_mw = {self.mh_mw!r} exceeds the transmit power of {self.tx_power_w * 1e3!r} mW")
        for name in ("lambda_off_ms", "mu_on_ms"):
            val = getattr(self, name)
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


def _number(key: str, raw) -> object:
    """One number of ``key`` parsed from text by its field's annotation; a JSON value passes as it is,
    for ``check_numbers`` to store or refuse."""
    if not isinstance(raw, str):
        return raw
    try:
        return int(raw.strip()) if _FIELD_TYPES[key] == "int" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': cannot parse value {raw!r}") from exc


def _coerce(key: str, raw) -> object:
    """``raw`` as the value of ``key``, by its field's annotation: None where it ends in ``| None``, a
    string for ``str``, a tuple for a list or a comma-separated text, else a number; ``SimConfig``
    checks the shape and the range."""
    kind = _FIELD_TYPES[key]
    if raw is None or (isinstance(raw, str) and raw.strip().lower() in ("none", "null")):
        if kind.endswith("| None"):
            return None
        raise ConfigError(f"config key '{key}' cannot be null")
    if kind == "str":
        return str(raw).strip()
    if isinstance(raw, str) and "," in raw:
        raw = [p for p in (s.strip() for s in raw.split(",")) if p]
    return tuple(_number(key, v) for v in raw) if isinstance(raw, (list, tuple)) else _number(key, raw)


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
