"""Fading, cascaded reflection gains, phase alignment, and achievable rate.

A channel entry is its complex gain h = a exp(-j t), amplitude a and phase
t, and a reflecting surface applies diag(exp(+j theta_n)) with unit amplitude.
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

A fading draw is the array of its complex gains, built when it is drawn;
the router draws only what it reads. Direct and single-reflection SNRs
read the amplitudes |h|; the alignment and the double cascade read the
gains themselves. A draw is built in its own output array: one complex
output and one real scratch array per call, whatever the shape, and the
generator calls of the draw written out term by term.

The link-budget constants P, rho_L, alpha and sigma^2 live only in
``SimConfig``: every SNR here reads them from the config it is handed,
and the caller passes the config's K to ``sample_fading``.

The short-packet achievable rate is the normal approximation

    R(g) = log2(1+g) - Qinv(eps)/ln2 * sqrt((g^2+2g) / (M_b (1+g)^2)),

clamped at zero (a negative value means no transmission). Qinv is
sqrt(2) erfc^-1(2 eps) = -Phi^-1(eps), with Phi the standard normal CDF;
``q_inv`` takes it from ``statistics.NormalDist``, so the simulator does
not import SciPy. Both rates rate one float gamma, as the router passes it.
"""

from __future__ import annotations

import functools
import math
import statistics

import numpy as np

from .config import SimConfig

TWO_PI = 2.0 * math.pi


def sample_fading(n: int | tuple[int, ...], rician_k_db: float, rng: np.random.Generator) -> np.ndarray:
    """Independent Rician draws with unit mean power and uniform phases, as their complex gains g.

    The line-of-sight part carries K/(K+1) of the power at a uniformly
    drawn phase; the scattered part is circularly symmetric Gaussian with
    the remaining 1/(K+1). ``rng`` is advanced by the phases and then the
    real and imaginary normals. 1-D for device-surface segments, 2-D
    (out x in) for the surface-to-surface segment.

    A draw allocates its complex output and one real scratch array, no
    more: the phases go into the scratch, their cosines and sines straight
    into the output's real and imaginary parts, and each part's normals
    refill the scratch before they are scaled and added in place. On a
    250x250 draw that is 1.5 MB at the peak. The generator calls and
    their order are those of the draw written out term by term, and so
    are the bits.
    """
    shape = (n,) if isinstance(n, int) else tuple(n)
    if any(s < 1 for s in shape):
        raise ValueError("fading shape components must be >= 1")
    k = 10.0 ** (rician_k_db / 10.0)
    los_amp, scatter_amp = math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0)) / math.sqrt(2.0)
    # los_amp exp(j phase) + scatter_amp (re + j im) by parts, built in the output; cos and sin give
    # np.exp(1j * phase) bit for bit
    gains = np.empty(shape, dtype=complex)
    scratch = rng.uniform(0.0, TWO_PI, size=shape)
    np.cos(scratch, out=gains.real)
    np.sin(scratch, out=gains.imag)
    for part in (gains.real, gains.imag):
        part *= los_amp
        rng.standard_normal(out=scratch)
        scratch *= scatter_amp
        part += scratch
    return gains


def direct_snr(cfg: SimConfig, h: complex | float, d: float) -> float:
    """P rho_L d^-alpha |h|^2 / sigma^2 on a direct device-device link; ``h`` may be the amplitude |h|."""
    if d <= 0:
        raise ValueError("distance must be positive")
    return cfg.tx_power_w * cfg.rho_l * d ** (-cfg.alpha_d2d) * abs(h) ** 2 / cfg.noise_w


def optimal_single_reflection_snr(
    cfg: SimConfig,
    h_in: np.ndarray,
    h_out: np.ndarray,
    d_in: float,
    d_out: float,
) -> float:
    """Closed-form aligned SNR over the gains ``h_in`` and ``h_out``, of amplitudes a = |h|:
    P (sum a_in a_out)^2 rho_L^2 (d_in d_out)^-alpha / sigma^2."""
    if len(h_in) != len(h_out):
        raise ValueError("element counts of h_in and h_out must agree")
    coherent = float(np.sum(np.abs(h_in) * np.abs(h_out)))
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
    h_in: np.ndarray,
    phase_i: np.ndarray,
    h_mid: np.ndarray,
    phase_j: np.ndarray,
    h_out: np.ndarray,
    d_in: float,
    d_mid: float,
    d_out: float,
) -> float:
    """SNR through surfaces i then j, phases in radians:
    P |h_out Phi_j H Phi_i h_in|^2 rho_L^3 (d_in d_mid d_out)^-alpha / sigma^2."""
    if h_mid.ndim != 2:
        raise ValueError("h_mid must be a 2-D out x in fading matrix")
    n_out, n_in = h_mid.shape
    if len(h_in) != n_in or len(phase_i) != n_in:
        raise ValueError("h_in/phase_i length must match h_mid columns")
    if len(h_out) != n_out or len(phase_j) != n_out:
        raise ValueError("h_out/phase_j length must match h_mid rows")
    inner = h_mid @ (np.exp(1j * phase_i) * h_in)
    gain = complex(np.sum(h_out * np.exp(1j * phase_j) * inner))
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
    h_in: np.ndarray,
    h_mid: np.ndarray,
    h_out: np.ndarray,
    rounds: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-surface alignment for a double reflection, alternated a fixed
    number of rounds; returns the phases of surfaces i and j in [0, 2 pi).

    Each half-step aligns one surface for its effective incident/outgoing
    vectors with the other held fixed, which cannot decrease the cascade
    magnitude. 20 rounds stop short of convergence: on 8 draws (K = 10 dB,
    250 elements; ``h_in``, ``h_mid``, ``h_out`` drawn in that order from
    ``np.random.default_rng(seed)``, seeds 0-7) the cascade power |h_out
    Phi_j H Phi_i h_in|^2 after 20 rounds was 0.14-0.41 dB below that after
    200 rounds, the same to 3 decimals whether the rounds read the gains as
    drawn or after an amplitude/phase round trip.
    """
    diag_i = np.ones(h_mid.shape[1], dtype=complex)
    diag_j = np.ones(h_mid.shape[0], dtype=complex)
    for _ in range(rounds):
        inner = h_mid @ (diag_i * h_in)
        diag_j = np.exp(-1j * np.angle(h_out * inner))
        outgoing = (h_out * diag_j) @ h_mid
        diag_i = np.exp(-1j * np.angle(outgoing * h_in))
    return np.mod(np.angle(diag_i), TWO_PI), np.mod(np.angle(diag_j), TWO_PI)


@functools.cache
def q_inv(epsilon: float) -> float:
    """Inverse Gaussian Q function, sqrt(2) erfc^-1(2 eps) = -Phi^-1(eps).

    Phi^-1 is the standard library's ``statistics.NormalDist().inv_cdf``
    (Wichura's AS 241), so the simulator needs no SciPy.
    ``tests/test_channel.py`` checks it against ``math.sqrt(2.0) *
    scipy.special.erfcinv(2 * epsilon)`` to within 10 ulp.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return -statistics.NormalDist().inv_cdf(epsilon)


SCALAR_MAX = 1e150  # from here on, M_b (1 + gamma)**2 may overflow and the ratio is taken as 1


def finite_blocklength_rate(gamma: float, blocklength: int, epsilon: float) -> float:
    """Short-packet achievable rate in bits per channel use, clamped at 0.

    ``gamma`` is the SNR as a float >= 0, ``blocklength`` the channel-use
    count M_b and ``epsilon`` the tolerated block error probability. The
    rate is taken in Python floats, except ``log2``, which is numpy's
    (``math.log2`` differs in the last bit for some gammas).

    From ``SCALAR_MAX`` on, (gamma^2 + 2 gamma) / (1 + gamma)^2 is 1 to
    within an ulp, and the squares overflow (gamma^2 from 1.34e154, M_b
    (1 + gamma)^2 from 1.34e154 / sqrt(M_b)), so the ratio is taken as 1.
    """
    if blocklength < 1:
        raise ValueError("blocklength must be >= 1")
    qi = q_inv(epsilon)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    one = 1.0 + gamma
    if gamma < SCALAR_MAX:
        dispersion = math.sqrt((gamma * gamma + 2.0 * gamma) / (blocklength * one**2))
    else:
        dispersion = math.sqrt(1.0 / blocklength)
    return max(float(np.log2(one)) - (qi / math.log(2.0)) * dispersion, 0.0)


def shannon_rate(gamma: float) -> float:
    """Delay-unconstrained limit of the achievable rate (M_b -> infinity), log2(1 + gamma)."""
    return float(np.log2(1.0 + gamma))
