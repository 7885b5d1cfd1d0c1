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
sqrt(2) erfc^-1(2 eps), and erfc^-1(y) = -ndtri(y/2) / sqrt(2), so ``ndtri``
here is a port of S. Moshier's Cephes ``ndtri``, the routine SciPy runs for
both: the same coefficient tables and the same operation order, in plain
``math``. It gives SciPy's bits exactly (``tests/test_channel.py`` checks
``q_inv`` against ``scipy.special.erfcinv`` and ``ndtri`` against
``scipy.special.ndtri`` with ``==``), so the simulator does not import SciPy.
"""

from __future__ import annotations

import functools
import math

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


# Cephes ndtri (S. Moshier), as SciPy 1.17 runs it: sqrt(2 pi), exp(-2), and
# the rational approximations P/Q for |y - 1/2| <= 1/2 - exp(-2) (0), then in
# 1/x with x = sqrt(-2 ln y) for x < 8 (1) and x >= 8 (2); Q's leading 1 is
# implicit.
S2PI = 2.50662827463100050242e0
EXP_M2 = 0.13533528323661269189
P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
      1.39312609387279679503e1, -1.23916583867381258016e0)
Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
      -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
      1.59056225126211695515e1, -1.18331621121330003142e0)
P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
      4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
      -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
      1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
      -3.80806407691578277194e-2, -9.33259480895457427372e-4)
P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
      1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
      3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
      2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
      2.89247864745380683936e-6, 6.79019408009981274425e-9)


def polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule, highest degree first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def p1evl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule for a monic polynomial whose leading 1 is left out of ``coef``."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF for 0 < y0 < 1, SciPy's bits exactly.

    Cephes ``ndtri`` line for line; ``math.log`` raises on 0, 1 and values
    outside [0, 1].
    """
    y, negate = y0, True
    if y > 1.0 - EXP_M2:
        y, negate = 1.0 - y, False
    if y > EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * polevl(y2, P0) / p1evl(y2, Q0))
        return x * S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * polevl(z, P1) / p1evl(z, Q1)
    else:
        x1 = z * polevl(z, P2) / p1evl(z, Q2)
    x = x0 - x1
    return -x if negate else x


@functools.cache
def q_inv(epsilon: float) -> float:
    """Inverse Gaussian Q function, sqrt(2) erfc^-1(2 eps).

    SciPy's ``erfcinv(y)`` is ``-ndtri(y/2) * sqrt(1/2)`` with Cephes
    ``ndtri``, ported above, so this is ``math.sqrt(2.0) *
    float(scipy.special.erfcinv(2 * epsilon))`` bit for bit (the oracle
    test in ``tests/test_channel.py``), without SciPy.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return math.sqrt(2.0) * (-ndtri(epsilon) * math.sqrt(0.5))


SCALAR_MAX = 1e150  # below this, (1 + gamma)**2 stays finite and the scalar paths apply


def finite_blocklength_rate(gamma, blocklength: int, epsilon: float):
    """Short-packet achievable rate in bits per channel use, clamped at 0.

    Accepts scalars or arrays for gamma. blocklength is the channel-use
    count M_b; epsilon the tolerated block error probability.

    A float gamma in [0, ``SCALAR_MAX``) takes a scalar path in Python
    floats, free of numpy's per-call cost on 0-d arrays. Every path rates a
    gamma with the same bits, alone or in an array: ``(1 + gamma)**2`` is
    libm's ``pow`` throughout (``np.float_power`` on arrays, where ``**2``
    would square and differ in the last bit for some gammas), and ``log2``
    is numpy's (``math.log2`` differs in the last bit for some gammas).
    """
    if blocklength < 1:
        raise ValueError("blocklength must be >= 1")
    qi = q_inv(epsilon)
    if isinstance(gamma, float) and 0.0 <= gamma < SCALAR_MAX:
        one = 1.0 + gamma
        dispersion = math.sqrt((gamma * gamma + 2.0 * gamma) / (blocklength * one**2))
        return max(float(np.log2(one)) - (qi / math.log(2.0)) * dispersion, 0.0)
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    dispersion = np.sqrt((g**2 + 2.0 * g) / (blocklength * np.float_power(1.0 + g, 2.0)))
    r = np.log2(1.0 + g) - (qi / math.log(2.0)) * dispersion
    r = np.maximum(r, 0.0)
    return float(r) if np.isscalar(gamma) else r


def shannon_rate(gamma) -> float:
    """Delay-unconstrained limit of the achievable rate (M_b -> infinity); a float gamma skips the
    0-d array, with the same bits."""
    if isinstance(gamma, float):
        return float(np.log2(1.0 + gamma))
    g = np.asarray(gamma, dtype=float)
    r = np.log2(1.0 + g)
    return float(r) if np.isscalar(gamma) else r
