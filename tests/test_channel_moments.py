"""Closed-form moments of the channel path, drawn through the simulator's own functions.

Rician fading with unit mean power and factor K (Simon & Alouini, *Digital Communication over
Fading Channels*, 2005) has

    E|h|   = sqrt(pi / (4 (K+1))) L_{1/2}(-K),
             L_{1/2}(-K) = exp(-K/2) [(1+K) I0(K/2) + K I1(K/2)],   0.977624 at K = 10 dB,
    E|h|^2 = 1,   Var|h|^2 = (1 + 2K) / (1 + K)^2,

and, elements independent, the aligned single reflection's coherent power has
E[(sum_n a_in,n a_out,n)^2] = N + N (N-1) (E|h|)^4 (Wu & Zhang, IEEE TWC 2019).

The double reflection has no closed form. Its cascade power |h_out Phi_j H Phi_i h_in|^2, with the
phases of ``alternating_double_phases`` (20 rounds), is checked against an alternating alignment
written here and run 200 rounds on the same draws: the simulator's power sits the documented
0.14-0.41 dB below the oracle's.

Each check compares a sample mean with its closed form, or the documented gap, within ``K_SE``
standard errors; the bound and the sample sizes were fixed before the first run. Drawn with K
inverted, E|h| at -10 dB reads 63 SE off; with the coherent gain halved, the reflection mean is off
by a factor of 4; with one alignment round, the cascade power sits 2.6-3.3 dB below the oracle's.
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
    sample_fading,
)
from risroute.config import SimConfig

K_SE = 4.0
DRAWS = 100_000
REFLECTIONS = 2_000
CASCADES = 50
GAP_DB = (0.14, 0.41)  # the 20-round cascade power below 200 rounds (``alternating_double_phases``)
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
    """E|h| for unit mean power: sqrt(pi / (4 (K+1))) L_{1/2}(-K)."""
    k = 10.0 ** (k_db / 10.0)
    laguerre = math.exp(-k / 2.0) * ((1.0 + k) * bessel_i(0, k / 2.0) + k * bessel_i(1, k / 2.0))
    return math.sqrt(math.pi / (4.0 * (k + 1.0))) * laguerre


def test_the_series_against_scipy():
    for x in (0.0, 0.05, 0.5, 1.0, 2.5, 5.0, 20.0):
        assert bessel_i(0, x) == pytest.approx(float(special.i0(x)), rel=1e-14, abs=0.0)
        assert bessel_i(1, x) == pytest.approx(float(special.i1(x)), rel=1e-14, abs=0.0)


def test_the_closed_form_at_known_points():
    assert round(rician_mean_amplitude(10.0), 6) == 0.977624
    assert rician_mean_amplitude(-400.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15)  # Rayleigh


@pytest.mark.parametrize("k_db", [-10.0, 0.0, 10.0])
def test_rician_amplitude_and_power_means(k_db):
    h = sample_fading(DRAWS, k_db, np.random.default_rng(301))
    mean = rician_mean_amplitude(k_db)
    amplitude_se = math.sqrt((1.0 - mean**2) / DRAWS)
    assert abs(float(np.mean(np.abs(h))) - mean) <= K_SE * amplitude_se
    k = 10.0 ** (k_db / 10.0)
    power_se = math.sqrt((1.0 + 2.0 * k) / (1.0 + k) ** 2 / DRAWS)
    assert abs(float(np.mean(direct_snr(UNIT, h, 1.0))) - 1.0) <= K_SE * power_se


@pytest.mark.parametrize("k_db", [0.0, 10.0])
def test_aligned_single_reflection_mean(k_db):
    n, d_in, d_out = CFG.ris_elements, 20.0, 30.0
    path = CFG.tx_power_w * CFG.rho_l**2 * d_in ** (-CFG.alpha_other) * d_out ** (-CFG.alpha_other) / CFG.noise_w
    rng = np.random.default_rng(302)
    coherent_power = np.array([
        optimal_single_reflection_snr(CFG, sample_fading(n, k_db, rng), sample_fading(n, k_db, rng), d_in, d_out)
        for _ in range(REFLECTIONS)
    ]) / path
    want = n + n * (n - 1) * rician_mean_amplitude(k_db) ** 4
    se = float(np.std(coherent_power, ddof=1)) / math.sqrt(REFLECTIONS)
    assert abs(float(np.mean(coherent_power)) - want) <= K_SE * se


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
    assert all(GAP_DB[0] <= round(gap, 2) <= GAP_DB[1] for gap in gaps), gaps


def test_double_cascade_mean_gap():
    rng = np.random.default_rng(303)
    gaps = np.array([cascade_gap_db(rng) for _ in range(CASCADES)])
    se = float(np.std(gaps, ddof=1)) / math.sqrt(CASCADES)
    assert GAP_DB[0] - K_SE * se <= float(np.mean(gaps)) <= GAP_DB[1] + K_SE * se
