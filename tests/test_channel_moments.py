"""Closed-form moments of the channel path, drawn through the simulator's own functions.

Rician fading with unit mean power and factor K (Simon & Alouini, *Digital Communication over
Fading Channels*, 2005) has

    E|h|   = sqrt(pi / (4 (K+1))) L_{1/2}(-K),
             L_{1/2}(-K) = exp(-K/2) [(1+K) I0(K/2) + K I1(K/2)],   0.977624 at K = 10 dB,
    E|h|^2 = 1,   Var|h|^2 = (1 + 2K) / (1 + K)^2,

whatever the phase of the line-of-sight part, so the amplitudes drawn without one
(``sample_amplitudes``) must have this law too; from K = 30 dB on the series below gives way to the
large-K expansion E|h| = sqrt(K/(K+1)) (1 + 1/(4K) + 1/(32K^2) + O(K^-3)). Elements independent,
the aligned single reflection's coherent power has
E[(sum_n a_in,n a_out,n)^2] = N + N (N-1) (E|h|)^4 (Wu & Zhang, IEEE TWC 2019).

The surface-to-surface draw (250 x 250, in polar form since stream version 7) must have the same
law: its E|h|, E|h|^2 and Var|h|^2 are checked against the closed forms, E h and E h^2 against 0
(circular symmetry), and |h| against ``sample_amplitudes`` by the KS distance below.

The double reflection has no closed form. Its cascade power |h_out Phi_j H Phi_i h_in|^2, with the
phases of ``alternating_double_phases`` (20 rounds), is checked against an alternating alignment
written here and run 200 rounds on the same draws: on the 8 documented draws the simulator's power
sits ``DOCUMENTED_GAPS_DB`` below the oracle's, and the seed-303 mean gap (0.257 +- 0.016 dB at
stream version 8) lies within ``GAP_DB``. Single draws spread wider than the documented ones
(0.054-0.540 dB over those 50 draws), so the documented draws are pinned one by one, not to a
range. Its mean with the polar ``h_mid`` is also set against its mean with version 6's
normal-pair ``h_mid``, and its mean with amplitude ends, as the router draws them, against its
mean with complex ends.

Each check compares a sample mean with its closed form, or the documented gap, within ``K_SE``
standard errors; the bound and the sample sizes were fixed before the first run. Drawn with K
inverted, E|h| at -10 dB reads 63 SE off; with the coherent gain halved, the reflection mean is off
by a factor of 4; with one alignment round, the cascade power sits 2.6-3.3 dB below the oracle's.
With the 2-D draw's E taken without its square root, its scale missing a sqrt 2, or one phase used
for both of its phasors, the 2-D moment, KS and cascade-mean checks fail; with its line-of-sight
phase on [0, pi), the circular-symmetry and cascade checks do.
The amplitude draws are also set against |sample_fading| by a two-sample Kolmogorov-Smirnov
distance at level ``KS_ALPHA``.
"""

import math

import numpy as np
import pytest
from scipy import special

from risroute.channel import (
    alternating_double_phases,
    direct_snr,
    double_reflection_sinr,
    optimal_single_reflection_snr,
    sample_amplitudes,
    sample_fading,
)
from risroute.config import SimConfig

K_SE = 4.0
DRAWS = 100_000
REFLECTIONS = 2_000
CASCADES = 50
MATRICES = 2  # 250 x 250 draws per check of the 2-D law: 125,000 elements
KS_ALPHA = 1e-3
GAP_DB = (0.14, 0.41)  # the mean 20-round cascade power below 200 rounds (``alternating_double_phases``)
# the gap on each documented draw (seeds 0-7) at stream version 8; GAP_DB was their range at version 6
DOCUMENTED_GAPS_DB = (0.271, 0.205, 0.076, 0.213, 0.174, 0.337, 0.229, 0.194)
CFG = SimConfig()
# P = 1 W, rho_L = 1, sigma^2 = 1 W, every exponent 2: direct_snr at 1 m is |h|^2
UNIT = SimConfig(rho_l_db=0.0, alpha_d2d=2.0, alpha_other=2.0, noise_dbm=30.0, tx_power_dbm=30.0)


def bessel_i(order: int, x: float) -> float:
    """The modified Bessel function I_order(x) by its power series sum_m (x/2)^(2m+order) / (m! (m+order)!)."""
    term = (x / 2.0) ** order / math.factorial(order)
    total, m = term, 0
    while term > 1e-17 * total:
        m += 1
        term *= (x / 2.0) ** 2 / (m * (m + order))
        total += term
    return total


def rician_mean_amplitude(k_db: float) -> float:
    """E|h| for unit mean power: sqrt(pi / (4 (K+1))) L_{1/2}(-K), by its large-K expansion beyond
    K = 1000 (the Bessel series overflows from K = 1430), where the two agree to 3e-11."""
    k = 10.0 ** (k_db / 10.0)
    if k > 1e3:
        return math.sqrt(k / (k + 1.0)) * (1.0 + 1.0 / (4.0 * k) + 1.0 / (32.0 * k * k))
    laguerre = math.exp(-k / 2.0) * ((1.0 + k) * bessel_i(0, k / 2.0) + k * bessel_i(1, k / 2.0))
    return math.sqrt(math.pi / (4.0 * (k + 1.0))) * laguerre


def test_the_series_against_scipy():
    for x in (0.0, 0.05, 0.5, 1.0, 2.5, 5.0, 20.0):
        assert bessel_i(0, x) == pytest.approx(float(special.i0(x)), rel=1e-14, abs=0.0)
        assert bessel_i(1, x) == pytest.approx(float(special.i1(x)), rel=1e-14, abs=0.0)


def test_the_closed_form_at_known_points():
    assert round(rician_mean_amplitude(10.0), 6) == 0.977624
    assert rician_mean_amplitude(-400.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)  # Rayleigh
    assert rician_mean_amplitude(400.0) == 1.0  # pure line of sight
    k = 1e3  # the series at the last K it is used, against the expansion
    assert rician_mean_amplitude(30.0) == pytest.approx(
        math.sqrt(k / (k + 1.0)) * (1.0 + 1.0 / (4.0 * k) + 1.0 / (32.0 * k * k)), rel=3e-11, abs=0.0)


@pytest.mark.parametrize("k_db", [-10.0, 0.0, 10.0])
def test_rician_amplitude_and_power_means(k_db):
    h = sample_fading(DRAWS, k_db, np.random.default_rng(301))
    mean = rician_mean_amplitude(k_db)
    amplitude_se = math.sqrt((1.0 - mean**2) / DRAWS)
    assert abs(float(np.mean(np.abs(h))) - mean) <= K_SE * amplitude_se
    k = 10.0 ** (k_db / 10.0)
    power_se = math.sqrt((1.0 + 2.0 * k) / (1.0 + k) ** 2 / DRAWS)
    assert abs(float(np.mean(direct_snr(UNIT, h, 1.0))) - 1.0) <= K_SE * power_se


@pytest.mark.parametrize("k_db", [-10.0, 10.0, 400.0])
def test_amplitude_draw_means(k_db):
    a = sample_amplitudes(DRAWS, k_db, np.random.default_rng(304))
    mean = rician_mean_amplitude(k_db)
    amplitude_se = math.sqrt((1.0 - mean**2) / DRAWS)
    assert abs(float(np.mean(a)) - mean) <= K_SE * amplitude_se
    k = 10.0 ** (k_db / 10.0)
    power_se = math.sqrt((1.0 + 2.0 * k) / (1.0 + k) ** 2 / DRAWS)
    assert abs(float(np.mean(a * a)) - 1.0) <= K_SE * power_se


def ks_distance(x: np.ndarray, y: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic sup_t |F_x(t) - F_y(t)| of the empirical CDFs."""
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(np.sort(x), both, side="right") / len(x)
    cdf_y = np.searchsorted(np.sort(y), both, side="right") / len(y)
    return float(np.max(np.abs(cdf_x - cdf_y)))


@pytest.mark.parametrize("k_db", [-10.0, 10.0])
def test_amplitude_draws_against_the_complex_draw(k_db):
    a = sample_amplitudes(DRAWS, k_db, np.random.default_rng(305))
    h = np.abs(sample_fading(DRAWS, k_db, np.random.default_rng(306)))
    critical = math.sqrt(-math.log(KS_ALPHA / 2.0) / 2.0) * math.sqrt(2.0 / DRAWS)  # equal sample sizes
    assert ks_distance(a, h) <= critical


def check_aligned_single_reflection_mean(k_db, draw_in, draw_out, seed):
    n, d_in, d_out = CFG.ris_elements, 20.0, 30.0
    path = CFG.tx_power_w * CFG.rho_l**2 * d_in ** (-CFG.alpha_other) * d_out ** (-CFG.alpha_other) / CFG.noise_w
    rng = np.random.default_rng(seed)
    coherent_power = np.array([
        optimal_single_reflection_snr(CFG, draw_in(n, k_db, rng), draw_out(n, k_db, rng), d_in, d_out)
        for _ in range(REFLECTIONS)
    ]) / path
    want = n + n * (n - 1) * rician_mean_amplitude(k_db) ** 4
    se = float(np.std(coherent_power, ddof=1)) / math.sqrt(REFLECTIONS)
    assert abs(float(np.mean(coherent_power)) - want) <= K_SE * se


@pytest.mark.parametrize("k_db", [0.0, 10.0])
def test_aligned_single_reflection_mean(k_db):
    check_aligned_single_reflection_mean(k_db, sample_fading, sample_fading, 302)


@pytest.mark.parametrize("k_db", [0.0, 10.0])
def test_aligned_single_reflection_mean_over_amplitude_draws(k_db):
    # as the router draws them, both as amplitudes, and with a complex h_in
    check_aligned_single_reflection_mean(k_db, sample_amplitudes, sample_amplitudes, 307)
    check_aligned_single_reflection_mean(k_db, sample_fading, sample_amplitudes, 308)


def oracle_cascade_power(h_in: np.ndarray, h_mid: np.ndarray, h_out: np.ndarray, rounds: int = 200) -> float:
    """|h_out Phi_j H Phi_i h_in|^2 after ``rounds`` alternating rounds from unit phases: each half-round
    turns every term through one surface real positive, the other surface held."""
    v_i = np.ones(h_mid.shape[1], dtype=complex)
    for _ in range(rounds):
        at_j = h_out * (h_mid @ (v_i * h_in))
        v_j = np.conj(at_j) / np.abs(at_j)
        at_i = ((h_out * v_j) @ h_mid) * h_in
        v_i = np.conj(at_i) / np.abs(at_i)
    return abs(np.sum(h_out * v_j * (h_mid @ (v_i * h_in)))) ** 2


def cascade_gap_db(rng: np.random.Generator) -> float:
    """dB by which the simulator's aligned double cascade (P = rho_L = sigma^2 = 1, unit distances) falls
    short of the oracle's on one draw of ``h_in``, ``h_mid``, ``h_out`` (K = 10 dB, 250 elements), in
    that order from ``rng``."""
    n = CFG.ris_elements
    h_in, h_mid, h_out = (sample_fading(shape, 10.0, rng) for shape in (n, (n, n), n))
    phase_i, phase_j = alternating_double_phases(h_in, h_mid, h_out)
    power = double_reflection_sinr(UNIT, h_in, phase_i, h_mid, phase_j, h_out, 1.0, 1.0, 1.0)
    return 10.0 * math.log10(oracle_cascade_power(h_in, h_mid, h_out) / power)


def test_double_cascade_gap_on_the_documented_draws():
    gaps = [cascade_gap_db(np.random.default_rng(seed)) for seed in range(8)]
    assert gaps == pytest.approx(DOCUMENTED_GAPS_DB, abs=1e-3), gaps


def test_double_cascade_mean_gap():
    rng = np.random.default_rng(303)
    gaps = np.array([cascade_gap_db(rng) for _ in range(CASCADES)])
    se = float(np.std(gaps, ddof=1)) / math.sqrt(CASCADES)
    assert GAP_DB[0] - K_SE * se <= float(np.mean(gaps)) <= GAP_DB[1] + K_SE * se


def matrix_draws(k_db: float, seed: int) -> np.ndarray:
    """The elements of ``MATRICES`` surface-to-surface draws (250 x 250) from one generator, flattened."""
    n, rng = CFG.ris_elements, np.random.default_rng(seed)
    return np.concatenate([sample_fading((n, n), k_db, rng).ravel() for _ in range(MATRICES)])


@pytest.mark.parametrize("k_db", [-10.0, 0.0, 10.0])
def test_2d_draw_amplitude_and_power_moments(k_db):
    h = matrix_draws(k_db, 309)
    count, mean = len(h), rician_mean_amplitude(k_db)
    assert abs(float(np.mean(np.abs(h))) - mean) <= K_SE * math.sqrt((1.0 - mean**2) / count)
    k = 10.0 ** (k_db / 10.0)
    power, power_var = h.real**2 + h.imag**2, (1.0 + 2.0 * k) / (1.0 + k) ** 2
    assert abs(float(np.mean(power)) - 1.0) <= K_SE * math.sqrt(power_var / count)
    # the sample variance's standard error from the sample's fourth central moment
    sample_var = float(np.var(power, ddof=1))
    var_se = math.sqrt((float(np.mean((power - np.mean(power)) ** 4)) - sample_var**2) / count)
    assert abs(sample_var - power_var) <= K_SE * var_se


@pytest.mark.parametrize("k_db", [-10.0, 10.0])
def test_2d_draw_is_circularly_symmetric(k_db):
    # E h = 0 and E h^2 = 0; a complex mean's standard error is sqrt(E|x|^2 / count), with
    # E|h|^2 = 1 and E|h^2|^2 = E|h|^4 = 1 + Var|h|^2
    h = matrix_draws(k_db, 310)
    k = 10.0 ** (k_db / 10.0)
    assert abs(complex(np.mean(h))) <= K_SE * math.sqrt(1.0 / len(h))
    fourth = 1.0 + (1.0 + 2.0 * k) / (1.0 + k) ** 2
    assert abs(complex(np.mean(h * h))) <= K_SE * math.sqrt(fourth / len(h))


@pytest.mark.parametrize("k_db", [-10.0, 10.0])
def test_2d_draw_amplitudes_against_the_amplitude_draw(k_db):
    h = np.abs(matrix_draws(k_db, 311))
    a = sample_amplitudes(DRAWS, k_db, np.random.default_rng(312))
    critical = math.sqrt(-math.log(KS_ALPHA / 2.0) / 2.0) * math.sqrt((len(a) + len(h)) / (len(a) * len(h)))
    assert ks_distance(a, h) <= critical


def normal_pair_h_mid(shape: tuple[int, int], k_db: float, rng: np.random.Generator) -> np.ndarray:
    """The surface-to-surface draw of stream version 6, the oracle of the polar draw's law: los exp(j phase)
    + scatter (x + j y), scatter = sqrt(1/(K+1)) / sqrt 2, drawing the phases, then every x, then every y."""
    k = 10.0 ** (k_db / 10.0)
    los_amp, scatter_amp = math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0)) / math.sqrt(2.0)
    phasor = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=shape))
    real, imag = rng.standard_normal(shape), rng.standard_normal(shape)
    return los_amp * phasor + scatter_amp * (real + 1j * imag)


def aligned_cascade_powers(draw_ends, draw_mid, seed: int) -> np.ndarray:
    """|h_out Phi_j H Phi_i h_in|^2 under ``alternating_double_phases`` on ``CASCADES`` draws (K = 10 dB, 250
    elements) of ``h_in`` = ``draw_ends``, ``h_mid`` = ``draw_mid`` and ``h_out`` = ``draw_ends``, in that order
    from one generator."""
    n, rng = CFG.ris_elements, np.random.default_rng(seed)
    powers = []
    for _ in range(CASCADES):
        h_in, h_mid, h_out = draw_ends(n, 10.0, rng), draw_mid((n, n), 10.0, rng), draw_ends(n, 10.0, rng)
        phase_i, phase_j = alternating_double_phases(h_in, h_mid, h_out)
        powers.append(double_reflection_sinr(UNIT, h_in, phase_i, h_mid, phase_j, h_out, 1.0, 1.0, 1.0))
    return np.array(powers)


def test_aligned_double_cascade_mean_against_the_normal_pair_draw():
    polar = aligned_cascade_powers(sample_fading, sample_fading, 313)
    normal = aligned_cascade_powers(sample_fading, normal_pair_h_mid, 314)
    se = math.sqrt(float(np.var(polar, ddof=1) + np.var(normal, ddof=1)) / CASCADES)
    assert abs(float(np.mean(polar) - np.mean(normal))) <= K_SE * se


def test_aligned_double_cascade_mean_over_amplitude_ends():
    # as the router draws them: h_in and h_out as amplitudes, h_mid as complex gains
    amplitude = aligned_cascade_powers(sample_amplitudes, sample_fading, 315)
    complex_ends = aligned_cascade_powers(sample_fading, sample_fading, 316)
    se = math.sqrt(float(np.var(amplitude, ddof=1) + np.var(complex_ends, ddof=1)) / CASCADES)
    assert abs(float(np.mean(amplitude) - np.mean(complex_ends))) <= K_SE * se
