"""Fading, cascaded reflection gains, phase alignment, and achievable rate.

Channel entries follow the amplitude/phase convention value = a exp(-j t),
and a reflecting surface applies diag(exp(+j theta_n)) with unit amplitude.
Effective gains are h_out Phi h_in for one reflection and
h_out Phi_j H Phi_i h_in for two, with total path loss the product of the
per-segment losses: rho_L^2 (d_in d_out)^-alpha, resp. rho_L^3 with the
middle segment included.

For a single served user the per-element alignment theta_n = t_in,n +
t_out,n makes every cascaded term real positive, so the reflected SNR
peaks at P (sum_n a_in,n a_out,n)^2 rho_L^2 (d_in d_out)^-alpha / sigma^2.
The router uses only that closed form; the cascade h_out Phi h_in for an
arbitrary Phi lives in ``tests/test_channel.py`` as the oracle it is
checked against. Two surfaces have no closed form: their phases are
aligned alternately, one surface at a time, and the cascade is evaluated.

A fading draw advances the generator when it is made, but its arrays
are built on first read, so a draw no link reads costs only the draw.

The link-budget constants P, rho_L, alpha and sigma^2 live only in
``SimConfig``: every SNR here reads them from the config it is handed,
and the caller passes the config's K to ``sample_fading``.

The short-packet achievable rate is the normal approximation

    R(g) = log2(1+g) - Qinv(eps)/ln2 * sqrt((g^2+2g) / (M_b (1+g)^2)),

clamped at zero (a negative value means no transmission).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcinv

from .config import SimConfig

TWO_PI = 2.0 * math.pi


class FadingVector:
    """Element-wise fading, value = amplitudes * exp(-1j * phases).

    1-D for device-surface segments, 2-D (out x in) for the surface-to-
    surface segment; rectangular shapes are allowed when element counts
    differ. ``source`` returns (amplitudes, phases); it runs on the first
    read of either and is then dropped. ``values`` is built once, on its
    first read.
    """

    __slots__ = ("_source", "_amplitudes", "_phases", "_values")

    def __init__(self, source):
        self._source = source
        self._values = None

    def _build(self) -> None:
        amp, ph = self._source()
        amp = np.asarray(amp, dtype=float)
        ph = np.mod(np.asarray(ph, dtype=float), TWO_PI)
        if amp.shape != ph.shape:
            raise ValueError("amplitudes and phases must share a shape")
        if not np.isfinite(amp).all() or (amp < 0).any():
            raise ValueError("amplitudes must be finite and nonnegative")
        self._amplitudes, self._phases, self._source = amp, ph, None

    @property
    def amplitudes(self) -> np.ndarray:
        if self._source is not None:
            self._build()
        return self._amplitudes

    @property
    def phases(self) -> np.ndarray:
        if self._source is not None:
            self._build()
        return self._phases

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.amplitudes * np.exp(-1j * self.phases)
        return self._values

    def __len__(self) -> int:
        return self.amplitudes.shape[0]


def sample_fading(n: int | tuple[int, ...], rician_k_db: float, rng: np.random.Generator) -> FadingVector:
    """Independent Rician draws with unit mean power and uniform phases.

    The line-of-sight part carries K/(K+1) of the power at a uniformly
    drawn phase; the scattered part is circularly symmetric Gaussian with
    the remaining 1/(K+1). ``rng`` is advanced here, by the phases and then
    the real and imaginary normals; the arrays are built on first read.
    """
    shape = (n,) if isinstance(n, int) else tuple(n)
    if any(s < 1 for s in shape):
        raise ValueError("fading shape components must be >= 1")
    k = 10.0 ** (rician_k_db / 10.0)
    los_amp, scatter_amp = math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0))
    phase = rng.uniform(0.0, TWO_PI, size=shape)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)

    def arrays():
        h = los_amp * np.exp(1j * phase) + scatter_amp * (re + 1j * im) / math.sqrt(2.0)
        return np.abs(h), np.mod(-np.angle(h), TWO_PI)

    return FadingVector(arrays)


def direct_snr(cfg: SimConfig, h: complex, d: float) -> float:
    """P rho_L d^-alpha |h|^2 / sigma^2 on a direct device-device link."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return cfg.tx_power_w * cfg.rho_l * d ** (-cfg.alpha_d2d) * abs(h) ** 2 / cfg.noise_w


def optimal_single_reflection_snr(
    cfg: SimConfig,
    h_in: FadingVector,
    h_out: FadingVector,
    d_in: float,
    d_out: float,
) -> float:
    """Closed-form aligned SNR: P (sum a_in a_out)^2 rho_L^2 (d_in d_out)^-alpha / sigma^2."""
    if len(h_in) != len(h_out):
        raise ValueError("element counts of h_in and h_out must agree")
    coherent = float(np.sum(h_in.amplitudes * h_out.amplitudes))
    return (
        cfg.tx_power_w
        * coherent**2
        * cfg.rho_l**2
        * d_in ** (-cfg.alpha_other)
        * d_out ** (-cfg.alpha_other)
        / cfg.noise_w
    )


def double_reflection_sinr(
    cfg: SimConfig,
    h_in: FadingVector,
    phase_i: np.ndarray,
    h_mid: FadingVector,
    phase_j: np.ndarray,
    h_out: FadingVector,
    d_in: float,
    d_mid: float,
    d_out: float,
) -> float:
    """SNR through surfaces i then j, phases in radians:
    P |h_out Phi_j H Phi_i h_in|^2 rho_L^3 (d_in d_mid d_out)^-alpha / sigma^2."""
    mid = h_mid.values
    if mid.ndim != 2:
        raise ValueError("h_mid must be a 2-D out x in fading matrix")
    n_out, n_in = mid.shape
    if len(h_in) != n_in or len(phase_i) != n_in:
        raise ValueError("h_in/phase_i length must match h_mid columns")
    if len(h_out) != n_out or len(phase_j) != n_out:
        raise ValueError("h_out/phase_j length must match h_mid rows")
    inner = mid @ (np.exp(1j * phase_i) * h_in.values)
    gain = complex(np.sum(h_out.values * np.exp(1j * phase_j) * inner))
    return (
        cfg.tx_power_w
        * abs(gain) ** 2
        * cfg.rho_l**3
        * d_in ** (-cfg.alpha_other)
        * d_mid ** (-cfg.alpha_other)
        * d_out ** (-cfg.alpha_other)
        / cfg.noise_w
    )


def alternating_double_phases(
    h_in: FadingVector,
    h_mid: FadingVector,
    h_out: FadingVector,
    rounds: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-surface alignment for a double reflection, alternated a fixed
    number of rounds; returns the phases of surfaces i and j in [0, 2 pi).

    Each half-step aligns one surface for its effective incident/outgoing
    vectors with the other held fixed, which cannot decrease the cascade
    magnitude; 20 rounds is plenty for the magnitudes involved here.
    """
    mid = h_mid.values
    v_in = h_in.values
    v_out = h_out.values
    diag_i = np.ones(mid.shape[1], dtype=complex)
    diag_j = np.ones(mid.shape[0], dtype=complex)
    for _ in range(rounds):
        inner = mid @ (diag_i * v_in)
        diag_j = np.exp(-1j * np.angle(v_out * inner))
        outgoing = (v_out * diag_j) @ mid
        diag_i = np.exp(-1j * np.angle(outgoing * v_in))
    return np.mod(np.angle(diag_i), TWO_PI), np.mod(np.angle(diag_j), TWO_PI)


def q_inv(epsilon: float) -> float:
    """Inverse Gaussian Q function via erfc^-1 (relative error well under 1e-10)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return math.sqrt(2.0) * float(erfcinv(2.0 * epsilon))


def finite_blocklength_rate(gamma, blocklength: int, epsilon: float):
    """Short-packet achievable rate in bits per channel use, clamped at 0.

    Accepts scalars or arrays for gamma. blocklength is the channel-use
    count M_b; epsilon the tolerated block error probability.
    """
    if blocklength < 1:
        raise ValueError("blocklength must be >= 1")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    qi = q_inv(epsilon)
    dispersion = np.sqrt((g**2 + 2.0 * g) / (blocklength * (1.0 + g) ** 2))
    r = np.log2(1.0 + g) - (qi / math.log(2.0)) * dispersion
    r = np.maximum(r, 0.0)
    return float(r) if np.isscalar(gamma) else r


def shannon_rate(gamma) -> float:
    """Delay-unconstrained limit of the achievable rate (M_b -> infinity)."""
    g = np.asarray(gamma, dtype=float)
    r = np.log2(1.0 + g)
    return float(r) if np.isscalar(gamma) else r
