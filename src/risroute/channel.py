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

A fading draw is built when it is drawn, and the router draws only what
it reads. Every device-surface segment and every relay link is drawn as
its amplitudes |h| alone (``sample_amplitudes``), and only the
surface-to-surface matrix H as complex gains (``sample_fading``). Direct
and single-reflection SNRs read |h|. So does the double cascade, through
its end segments: with D = diag(h / |h|), every Phi and D diagonal,
h_out Phi_j H Phi_i h_in = |h_out| Phi_j (D_out H D_in) Phi_i |h_in|, and
``alternating_double_phases`` gives the same phases on both sides round
by round. D_out H D_in has H's law, as H's elements are independent and
circularly symmetric, so the SNR's law is that of complex ends. Circular
symmetry also gives |h| one law whatever the line-of-sight phase, so an
amplitude draw draws no phase.

A complex draw is built in polar form, in its own output array: one
complex output and three ``POLAR_BLOCK`` temporaries per call, whatever
the shape. A circularly symmetric Gaussian of power 1/(K+1) is
sqrt(E/(K+1)) exp(j psi) with E ~ Exp(1) and psi uniform on [0, 2 pi)
independent (Box and Muller's polar form), so each element,
los exp(j phi) + sqrt(E/(K+1)) exp(j psi), has the Rician law from two
uniforms and one exponential. One ``random((*shape, 2))`` call draws
every element's u0 then u1 (phi = 2 pi u0, psi = 2 pi u1). After every
uniform, E is drawn block by block, one ``standard_exponential(out=...)``
call a block: the generator fills each block in C order from the same
stream, so the blocks hold the bits one size-long call would. Each
phasor is taken from its half-angle tangent t = tan(pi u) as
(1 - t^2) / (1 + t^2) and 2t / (1 + t^2), within an ulp of cos and sin:
numpy vectorises float64 tan under AVX-512 but not cos and sin (on
62,500 elements 0.2 against 2.5 ms). The arithmetic runs in place, in
blocks of ``POLAR_BLOCK`` elements, so a steady-state draw takes no page
faults; with full-size temporaries it took hundreds.

The link-budget constants P, rho_L, alpha and sigma^2 live only in
``SimConfig``: every SNR here reads them from the config it is handed,
and the caller passes the config's K to each draw.

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
# elements per pass of a draw's arithmetic: three 64 KiB temporaries, below glibc's default 128 KiB mmap
# threshold, so they never depend on how far glibc has raised it; on a 250x250 draw 8192 took 2.17 ms where
# 3072 took 2.42 (medians of 120 interleaved rounds, 2-vCPU Xeon VM), with the same bits
POLAR_BLOCK = 8192


def sample_fading(n: int | tuple[int, ...], rician_k_db: float, rng: np.random.Generator) -> np.ndarray:
    """Independent Rician draws with unit mean power and uniform phases, as their complex gains g.

    The line-of-sight part carries K/(K+1) of the power at a uniformly
    drawn phase; the scattered part is circularly symmetric Gaussian with
    the remaining 1/(K+1). Each element is los_amp exp(j phi) + sqrt(E
    scatter_power) exp(j psi) (module docstring); the router draws only the
    2-D (out x in) surface-to-surface segment this way.

    u = ``rng.random((*shape, 2))`` is drawn straight into the output, u0
    into each element's real slot and u1 into its imaginary slot. Then,
    one ``POLAR_BLOCK`` block at a time in C order,
    E = ``rng.standard_exponential(out=...)`` is drawn into a block
    temporary, which becomes the radius r = sqrt(E scatter_power). Per
    element, with t = tan(pi u) the half-angle tangent of each phase and
    w = 2 a / (1 + t^2) for its amplitude a, a exp(j phase) is
    (w - a) + j t w. The scattered phasor goes first, which frees u0's
    slot for the line-of-sight sum. A draw allocates its complex output
    and three ``POLAR_BLOCK`` temporaries: 1.2 MB on a 250x250 draw,
    1.0 MB of it the output.
    """
    shape, los_amp, scatter_power = _rician(n, rician_k_db)
    gains = np.empty(shape, dtype=complex)
    size = gains.size
    slots = gains.reshape(-1).view(float).reshape(size, 2)  # the real and imaginary slot of each element
    rng.random(out=slots)
    block = min(POLAR_BLOCK, size)
    tangents, weights, radii = np.empty(block), np.empty(block), np.empty(block)
    for start in range(0, size, block):
        stop = min(start + block, size)
        real, imag = slots[start:stop, 0], slots[start:stop, 1]
        t, w, r = tangents[: stop - start], weights[: stop - start], radii[: stop - start]
        rng.standard_exponential(out=r)  # this block's E, in C order after every uniform
        r *= scatter_power
        np.sqrt(r, out=r)
        # the scattered phasor: r sin psi into the imaginary slot, r cos psi into the radius block
        np.multiply(imag, math.pi, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=w)
        w += 1.0
        np.divide(r, w, out=w)
        w += w
        np.multiply(t, w, out=imag)
        np.subtract(w, r, out=r)
        # the line-of-sight phasor, added to it
        np.multiply(real, math.pi, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=w)
        w += 1.0
        np.divide(2.0 * los_amp, w, out=w)
        t *= w
        imag += t
        w -= los_amp
        np.add(w, r, out=real)
    return gains


def sample_amplitudes(n: int | tuple[int, ...], rician_k_db: float, rng: np.random.Generator) -> np.ndarray:
    """Independent draws of the amplitudes |g| of ``sample_fading``'s law, with no phase.

    Each is hypot(los_amp + scatter_amp x, scatter_amp y): by circular
    symmetry of the scattered part, the law of |los_amp exp(j phase) +
    scatter_amp (x + j y)|. ``rng`` is advanced by one ``standard_normal((2,
    *shape))`` call, every x before every y; no cos or sin is computed.
    """
    shape, los_amp, scatter_power = _rician(n, rician_k_db)
    parts = rng.standard_normal((2, *shape))
    parts *= math.sqrt(scatter_power) / math.sqrt(2.0)
    parts[0] += los_amp
    return np.hypot(parts[0], parts[1])


def _rician(n: int | tuple[int, ...], rician_k_db: float) -> tuple[tuple[int, ...], float, float]:
    """The shape of a draw of ``n``, and the line-of-sight amplitude sqrt(K/(K+1)) and the scattered
    power 1/(K+1) at ``rician_k_db``; each scattered part of an amplitude draw has the scale
    sqrt(1/(K+1)) / sqrt(2)."""
    shape = (n,) if isinstance(n, int) else tuple(n)
    if any(s < 1 for s in shape):
        raise ValueError("fading shape components must be >= 1")
    k = 10.0 ** (rician_k_db / 10.0)
    return shape, math.sqrt(k / (k + 1.0)), 1.0 / (k + 1.0)


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
    """Closed-form aligned SNR over the amplitudes a = |h| of each segment, as ``sample_amplitudes``
    draws them: P (sum a_in a_out)^2 rho_L^2 (d_in d_out)^-alpha / sigma^2."""
    if len(h_in) != len(h_out):
        raise ValueError("element counts of h_in and h_out must agree")
    coherent = float(np.sum(h_in * h_out))
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
    magnitude. The aligning phasor exp(-j angle(z)) of each effective term
    z is taken as conj(z) / |z| (``_unit_conjugate``). 20 rounds stop short
    of convergence: on 8 draws (K = 10 dB, 250 elements; ``h_in``,
    ``h_mid``, ``h_out`` drawn in that order by ``sample_fading`` from
    ``np.random.default_rng(seed)``, seeds 0-7) the cascade power |h_out
    Phi_j H Phi_i h_in|^2 after 20 rounds was 0.07-0.34 dB below that after
    200 rounds (0.076, 0.174, 0.194, 0.205, 0.213, 0.229, 0.271, 0.337 dB at
    stream version 8), the same to 3 decimals whether the rounds read the
    gains as drawn or after an amplitude/phase round trip.
    """
    # amplitude ends are cast to complex once here rather than in each of the 3 * rounds products
    h_in, h_out = np.asarray(h_in, dtype=complex), np.asarray(h_out, dtype=complex)
    diag_i = np.ones(h_mid.shape[1], dtype=complex)
    diag_j = np.ones(h_mid.shape[0], dtype=complex)
    for _ in range(rounds):
        inner = h_mid @ (diag_i * h_in)
        diag_j = _unit_conjugate(h_out * inner)
        outgoing = (h_out * diag_j) @ h_mid
        diag_i = _unit_conjugate(outgoing * h_in)
    return np.mod(np.angle(diag_i), TWO_PI), np.mod(np.angle(diag_j), TWO_PI)


def _unit_conjugate(z: np.ndarray) -> np.ndarray:
    """exp(-j angle(z)) of each entry as conj(z) / |z|, overwriting ``z``; 1 where z == 0, as
    ``np.angle`` gives 0 there."""
    mag = np.abs(z)
    if not mag.all():
        zero = mag == 0.0
        z[zero] = 1.0
        mag[zero] = 1.0
    np.conjugate(z, out=z)
    z /= mag
    return z


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
