import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import kstest

from risroute.channel import (
    SCALAR_MAX,
    TWO_PI,
    alternating_double_phases,
    direct_snr,
    double_reflection_sinr,
    finite_blocklength_rate,
    optimal_single_reflection_snr,
    q_inv,
    sample_amplitudes,
    sample_fading,
    shannon_rate,
)
from risroute.config import SimConfig

PARAMS = SimConfig()
# rho_L = 1, P = 1 W, sigma^2 = 1 W, every exponent 2
UNIT = SimConfig(rho_l_db=0.0, alpha_d2d=2.0, alpha_other=2.0, noise_dbm=30.0, tx_power_dbm=30.0)


def q_integral(x: float) -> float:
    val, _ = integrate.quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, np.inf)
    return val


def q_inv_bisection(eps: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_integral(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rate_oracle(gamma: np.ndarray, blocklength: int, epsilon: float) -> np.ndarray:
    """The finite-blocklength rate of each element of a numpy array (0-d or 1-D) of gammas >= 0.

    ``(1 + gamma)**2`` goes through ``np.float_power``, libm's ``pow`` as in the float path's ``**2``
    (numpy's ``**2`` squares inside an array and differs in the last bit for some gammas), and the
    ratio is taken as 1 from ``SCALAR_MAX`` on, where the squares would overflow.
    """
    big = gamma >= SCALAR_MAX
    g_small = np.where(big, 0.0, gamma)  # keeps the squares finite where the ratio is saturated
    squared = (g_small**2 + 2.0 * g_small) / (blocklength * np.float_power(1.0 + g_small, 2.0))
    dispersion = np.sqrt(np.where(big, 1.0 / blocklength, squared))
    return np.maximum(np.log2(1.0 + gamma) - (q_inv(epsilon) / math.log(2.0)) * dispersion, 0.0)


def shannon_oracle(gamma: np.ndarray) -> np.ndarray:
    return np.log2(1.0 + gamma)


def ones_vector(n):
    return np.ones(n, dtype=complex)


def phases_of(h):
    """The phases t of the gains h = a exp(-j t), in [0, 2 pi)."""
    return np.mod(-np.angle(h), TWO_PI)


# -- the arbitrary-phase single-reflection cascade, kept here as the oracle for
# -- the closed form the router uses (optimal_single_reflection_snr)


def single_reflection_sinr(params, h_in, phases, h_out, d_in, d_out):
    """P |h_out diag(exp(j phases)) h_in|^2 rho_L^2 (d_in d_out)^-alpha / sigma^2."""
    gain = np.sum(h_out * np.exp(1j * np.asarray(phases)) * h_in)
    return (params.tx_power_w * abs(gain) ** 2 * params.rho_l**2
            * (d_in * d_out) ** (-params.alpha_other) / params.noise_w)


def aligned_phases(h_in, h_out):
    """Per-element alignment theta_n = t_in,n + t_out,n (single served user)."""
    return phases_of(h_in) + phases_of(h_out)


def tangent_phasor(u, amp):
    """amp exp(j 2 pi u) of a draw from the half-angle tangent t = tan(pi u): (w - amp) + j t w with
    w = 2 amp / (1 + t^2), i.e. amp (1 - t^2) / (1 + t^2) and amp 2t / (1 + t^2)."""
    t = np.tan(math.pi * u)
    w = 2.0 * amp / (1.0 + t * t)
    return w - amp, t * w


def cos_sin_phasor(u, amp):
    """amp exp(j 2 pi u) by cos and sin of the phase 2 pi u."""
    phase = TWO_PI * u
    return amp * np.cos(phase), amp * np.sin(phase)


def written_out_fading(n, rician_k_db, rng, phasor=tangent_phasor):
    """The Rician draw written out term by term, one temporary per term, as the byte oracle of
    ``sample_fading``: u = ``rng.random((*shape, 2))``, then E = ``rng.standard_exponential(shape)``,
    and the gains los exp(j 2 pi u0) + r exp(j 2 pi u1) with r = sqrt(E / (K+1)), each term by
    ``phasor``."""
    shape = (n,) if isinstance(n, int) else tuple(n)
    k = 10.0 ** (rician_k_db / 10.0)
    u = rng.random((*shape, 2))
    r = np.sqrt(rng.standard_exponential(shape) * (1.0 / (k + 1.0)))
    los_re, los_im = phasor(u[..., 0], math.sqrt(k / (k + 1.0)))
    scatter_re, scatter_im = phasor(u[..., 1], r)
    gains = np.empty(shape, dtype=complex)
    gains.real, gains.imag = los_re + scatter_re, los_im + scatter_im
    return gains


class FixedDraws:
    """A stand-in generator for a 2-D draw: ``random`` returns the given (u0, u1) pairs and
    ``standard_exponential`` the given E."""

    def __init__(self, uniforms, exponentials):
        self.uniforms, self.exponentials = np.asarray(uniforms, dtype=float), np.asarray(exponentials, dtype=float)

    def random(self, out):
        out[...] = self.uniforms.reshape(out.shape)
        return out

    def standard_exponential(self, size):
        return self.exponentials.reshape(size).copy()


class TestFadingSampler:
    def test_pure_los_limit(self):
        rng = np.random.default_rng(1)
        h = sample_fading(1000, rician_k_db=90.0, rng=rng)
        assert np.all(np.abs(np.abs(h) - 1.0) < 1e-3)

    def test_unit_mean_power(self):
        rng = np.random.default_rng(2)
        h = sample_fading(1_000_000, rician_k_db=10.0, rng=rng)
        msq = float(np.mean(np.abs(h) ** 2))
        # var of |h|^2 for K=10 linear Rician is (1+2K)/(1+K)^2 ~ 0.174
        assert abs(msq - 1.0) < 4 * math.sqrt(0.174 / 1e6)

    def test_rayleigh_limit_ks(self):
        rng = np.random.default_rng(3)
        h = sample_fading(100_000, rician_k_db=-300.0, rng=rng)
        stat = kstest(np.abs(h), "rayleigh", args=(0.0, math.sqrt(0.5)))
        assert stat.pvalue > 1e-3

    def test_phase_range_and_shape(self):
        rng = np.random.default_rng(4)
        h = sample_fading((8, 5), rician_k_db=10.0, rng=rng)
        assert h.shape == (8, 5) and h.dtype == complex
        assert np.all((phases_of(h) >= 0) & (phases_of(h) < 2 * math.pi))

    @pytest.mark.parametrize("rician_k_db", [-400.0, -10.0, 0.0, 10.0, 400.0])
    @pytest.mark.parametrize("shape", [1, 7, 250, (3, 5), (250, 250)])
    def test_same_stream_and_gains_as_written_out(self, shape, rician_k_db):
        for seed in range(6):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            h = sample_fading(shape, rician_k_db, rng)
            want = written_out_fading(shape, rician_k_db, oracle_rng)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert h.dtype == want.dtype and h.shape == want.shape
            assert h.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("rician_k_db", [-10.0, 10.0, 400.0])
    @pytest.mark.parametrize("shape", [(3, 5), (250, 250)])
    def test_2d_gains_within_1e_15_of_cos_and_sin(self, shape, rician_k_db):
        # the 2-D recipe with cos and sin of each phase in place of its tangent; the largest gap
        # measured here was 8.9e-16 (numpy 2.4.6, AVX-512 and baseline)
        for seed in range(6):
            h = sample_fading(shape, rician_k_db, np.random.default_rng(seed))
            want = written_out_fading(shape, rician_k_db, np.random.default_rng(seed), phasor=cos_sin_phasor)
            assert np.abs(h.real - want.real).max() <= 1e-15 and np.abs(h.imag - want.imag).max() <= 1e-15

    def test_2d_phasor_at_the_edges_of_its_range(self):
        # phases 2 pi u at 0, pi/2, just below pi, pi (where tan(pi u) reaches 1.6e16), just above pi
        # and just below 2 pi, first as the line-of-sight phase, then as the scattered one
        edges = [0.0, 0.25, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]
        u = np.concatenate([edges, np.random.default_rng(8).random(994)])
        # K = 400 dB: los_amp is 1.0 and E = 0, so the gains are the line-of-sight phasor itself
        h = sample_fading((2, 500), 400.0, FixedDraws(np.stack([u, u[::-1]], axis=-1), np.zeros(1000)))
        # K = -400 dB: the scattered power 1/(K+1) is 1.0 and E = 1, so r = 1 and los_amp is 1e-20
        h_scatter = sample_fading((2, 500), -400.0, FixedDraws(np.stack([u[::-1], u], axis=-1), np.ones(1000)))
        for gains in (h, h_scatter):
            real, imag = gains.ravel().real, gains.ravel().imag
            assert np.all(np.isfinite(real)) and np.all(np.isfinite(imag))
            assert np.abs(real - np.cos(TWO_PI * u)).max() <= 1e-15
            assert np.abs(imag - np.sin(TWO_PI * u)).max() <= 1e-15
        assert (h.real[0, 0], h.imag[0, 0]) == (1.0, 0.0)

    def test_a_draw_allocates_its_output_and_one_scratch_array(self):
        # a 250x250 draw holds its complex output (250 * 250 * 16 B = 1.0 MB) and one real scratch
        # array (250 * 250 * 8 B = 0.5 MB) at its peak, and two block temporaries (2 * 24 KiB); 1.5 MB
        # plus 64 KiB for those and small objects is the bound, and 1.5 MB plus 50,608 B was measured.
        # ``written_out_fading``, one temporary per term, peaks at 5.50 MB.
        rng = np.random.default_rng(22)
        sample_fading((250, 250), 10.0, rng)  # warm-up
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            sample_fading((250, 250), 10.0, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak - before <= 250 * 250 * (16 + 8) + 64 * 1024, peak - before

    def test_rejects_an_empty_shape(self):
        with pytest.raises(ValueError, match=">= 1"):
            sample_fading((3, 0), 10.0, np.random.default_rng(5))


class TestAmplitudeSampler:
    """``sample_amplitudes`` against its formula; its law is checked in ``tests/test_channel_moments.py``."""

    @pytest.mark.parametrize("rician_k_db", [-400.0, -10.0, 10.0, 400.0])
    @pytest.mark.parametrize("shape", [1, 7, 250, (3, 5)])
    def test_same_stream_and_amplitudes_as_written_out(self, shape, rician_k_db):
        # hypot(los + scatter x, scatter y), x and y from one standard_normal((2, *shape)) call
        dims = (shape,) if isinstance(shape, int) else shape
        k = 10.0 ** (rician_k_db / 10.0)
        los_amp, scatter_amp = math.sqrt(k / (k + 1.0)), math.sqrt(1.0 / (k + 1.0)) / math.sqrt(2.0)
        for seed in range(3):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            a = sample_amplitudes(shape, rician_k_db, rng)
            x, y = oracle_rng.standard_normal((2, *dims))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert a.dtype == float and a.shape == dims
            assert a.tobytes() == np.hypot(los_amp + scatter_amp * x, scatter_amp * y).tobytes()

    def test_rejects_an_empty_shape(self):
        with pytest.raises(ValueError, match=">= 1"):
            sample_amplitudes((3, 0), 10.0, np.random.default_rng(5))


class TestDirectSnr:
    def test_zero_gain(self):
        assert direct_snr(PARAMS, 0.0, 30.0) == 0.0

    def test_power_law(self):
        a = direct_snr(PARAMS, 1.0, 30.0)
        b = direct_snr(PARAMS, 1.0, 60.0)
        assert a / b == pytest.approx(2**4.2, rel=1e-12)

    def test_frozen_value_against_db_domain_oracle(self):
        # 10^((-35.3 - 42 log10(30) + 130)/10) evaluated independently
        got = direct_snr(PARAMS, 1.0, 30.0)
        assert got == pytest.approx(1845.400908911592, rel=1e-10)

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            direct_snr(PARAMS, 1.0, 0.0)


class TestSingleReflection:
    def test_coherent_gain_n_squared(self):
        n = 16
        assert single_reflection_sinr(UNIT, ones_vector(n), np.zeros(n), ones_vector(n),
                                      1.0, 1.0) == pytest.approx(n**2, rel=1e-12)
        assert optimal_single_reflection_snr(UNIT, np.ones(n), np.ones(n), 1.0, 1.0) == pytest.approx(n**2, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="element counts"):
            optimal_single_reflection_snr(UNIT, np.ones(1), np.ones(5), 1.0, 1.0)

    def test_optimal_phases_zero_channel_phases(self):
        h = ones_vector(6)
        assert np.allclose(aligned_phases(h, h), 0.0)

    def test_two_element_coherence(self):
        h = ones_vector(2)
        aligned = optimal_single_reflection_snr(UNIT, np.abs(h), np.abs(h), 1.0, 1.0)
        anti = single_reflection_sinr(UNIT, h, np.array([0.0, math.pi]), h, 1.0, 1.0)
        assert aligned == pytest.approx(4.0, rel=1e-12)
        assert anti == pytest.approx(0.0, abs=1e-20)

    def test_closed_form_equals_aligned_cascade(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            h_in = sample_fading(32, 10.0, rng)
            h_out = sample_fading(32, 10.0, rng)
            via_cascade = single_reflection_sinr(PARAMS, h_in, aligned_phases(h_in, h_out), h_out, 25.0, 35.0)
            closed = optimal_single_reflection_snr(PARAMS, np.abs(h_in), np.abs(h_out), 25.0, 35.0)
            assert via_cascade == pytest.approx(closed, rel=1e-10)

    def test_optimum_beats_random_phases_n250(self):
        rng = np.random.default_rng(11)
        h_in = sample_fading(250, 10.0, rng)
        h_out = sample_fading(250, 10.0, rng)
        best = optimal_single_reflection_snr(UNIT, np.abs(h_in), np.abs(h_out), 1.0, 1.0)
        v = h_out * h_in
        random_phases = rng.uniform(0, 2 * math.pi, size=(10_000, 250))
        gains = np.abs(np.exp(1j * random_phases) @ v) ** 2
        assert best >= gains.max()

    def test_grid_search_oracle_small_n(self):
        # 64-level per-element alignment against 64 global directions can
        # lose at most the quantization factor cos^2(pi/64)
        rng = np.random.default_rng(12)
        levels = np.arange(64) * 2 * math.pi / 64
        for n in (2, 4, 8):
            for _ in range(20):
                h_in = sample_fading(n, 10.0, rng)
                h_out = sample_fading(n, 10.0, rng)
                opt = optimal_single_reflection_snr(UNIT, np.abs(h_in), np.abs(h_out), 1.0, 1.0)
                v = h_out * h_in
                term_phase = np.angle(v)  # phase of each cascaded term pre-shift
                best_grid = 0.0
                for psi in levels:
                    want = psi - term_phase
                    snapped = levels[np.argmin(np.abs(np.angle(np.exp(1j * (levels[None, :] - want[:, None])))), axis=1)]
                    val = np.abs(np.sum(v * np.exp(1j * snapped))) ** 2
                    best_grid = max(best_grid, float(val))
                assert opt >= best_grid - 1e-9 * best_grid
                assert best_grid >= opt * math.cos(math.pi / 64) ** 2 * (1 - 1e-9)


def alternating_double_phases_v3(h_in, h_mid, h_out, rounds=20):
    """The alignment of stream version 3, each half-step's phasor taken as exp(-j angle(z)): the
    oracle of ``alternating_double_phases``, which takes it as conj(z) / |z|."""
    diag_i = np.ones(h_mid.shape[1], dtype=complex)
    diag_j = np.ones(h_mid.shape[0], dtype=complex)
    for _ in range(rounds):
        inner = h_mid @ (diag_i * h_in)
        diag_j = np.exp(-1j * np.angle(h_out * inner))
        outgoing = (h_out * diag_j) @ h_mid
        diag_i = np.exp(-1j * np.angle(outgoing * h_in))
    return np.mod(np.angle(diag_i), TWO_PI), np.mod(np.angle(diag_j), TWO_PI)


def unit_gain(h_in, phase_i, h_mid, phase_j, h_out):
    """|h_out Phi_j H Phi_i h_in|^2 read through the SNR at unit power, loss, noise and distances."""
    return double_reflection_sinr(UNIT, h_in, phase_i, h_mid, phase_j, h_out, 1.0, 1.0, 1.0)


class TestDoubleReflection:
    def test_identity_middle_reduces_to_single(self):
        rng = np.random.default_rng(13)
        n = 12
        h_in = sample_fading(n, 10.0, rng)
        h_out = sample_fading(n, 10.0, rng)
        phase_i = aligned_phases(h_in, h_out)
        identity = np.eye(n, dtype=complex)
        double = double_reflection_sinr(PARAMS, h_in, phase_i, identity, np.zeros(n), h_out, 25.0, 1.0, 35.0)
        single = single_reflection_sinr(PARAMS, h_in, phase_i, h_out, 25.0, 35.0)
        assert double == pytest.approx(single * PARAMS.rho_l, rel=1e-12)

    def test_triple_path_loss_power_law(self):
        rng = np.random.default_rng(14)
        n = 6
        h_in = sample_fading(n, 10.0, rng)
        h_mid = sample_fading((n, n), 10.0, rng)
        h_out = sample_fading(n, 10.0, rng)
        pi, pj = alternating_double_phases(h_in, h_mid, h_out)
        near = double_reflection_sinr(PARAMS, h_in, pi, h_mid, pj, h_out, 10.0, 15.0, 20.0)
        far = double_reflection_sinr(PARAMS, h_in, pi, h_mid, pj, h_out, 20.0, 30.0, 40.0)
        assert near / far == pytest.approx(2 ** (3 * PARAMS.alpha_other), rel=1e-12)

    def test_alternating_beats_random_pairs(self):
        rng = np.random.default_rng(15)
        n = 4
        h_in = sample_fading(n, 10.0, rng)
        h_mid = sample_fading((n, n), 10.0, rng)
        h_out = sample_fading(n, 10.0, rng)
        pi, pj = alternating_double_phases(h_in, h_mid, h_out, rounds=20)
        assert np.all((pi >= 0) & (pi < 2 * math.pi)) and np.all((pj >= 0) & (pj < 2 * math.pi))
        best = unit_gain(h_in, pi, h_mid, pj, h_out)
        draws = rng.uniform(0, 2 * math.pi, size=(10_000, 2, n))
        for k in range(10_000):
            g = (h_out * np.exp(1j * draws[k, 1])) @ h_mid @ (np.exp(1j * draws[k, 0]) * h_in)
            assert abs(g) ** 2 <= best * (1 + 1e-9)

    def test_alternating_monotone_in_rounds(self):
        rng = np.random.default_rng(16)
        n = 8
        h_in = sample_fading(n, 10.0, rng)
        h_mid = sample_fading((n, n), 10.0, rng)
        h_out = sample_fading(n, 10.0, rng)
        gains = []
        for rounds in (1, 2, 5, 10, 20):
            pi, pj = alternating_double_phases(h_in, h_mid, h_out, rounds=rounds)
            gains.append(unit_gain(h_in, pi, h_mid, pj, h_out))
        assert all(a <= b + 1e-9 * abs(b) for a, b in zip(gains, gains[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_sinr_within_1e_12_of_the_angle_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h_in = sample_fading(250, 10.0, rng)
        h_mid = sample_fading((250, 250), 10.0, rng)
        h_out = sample_fading(250, 10.0, rng)
        pi, pj = alternating_double_phases(h_in, h_mid, h_out)
        got = double_reflection_sinr(PARAMS, h_in, pi, h_mid, pj, h_out, 20.0, 30.0, 25.0)
        pi, pj = alternating_double_phases_v3(h_in, h_mid, h_out)
        want = double_reflection_sinr(PARAMS, h_in, pi, h_mid, pj, h_out, 20.0, 30.0, 25.0)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [32, 250])
    def test_complex_ends_give_the_sinr_of_their_amplitudes_over_a_rotated_h_mid(self, n):
        # h_out Phi_j H Phi_i h_in = |h_out| Phi_j (D_out H D_in) Phi_i |h_in| with D = diag(h / |h|), and
        # the alignment reads the draws only through that cascade, so the router may draw the ends as
        # amplitudes; the largest relative gap measured here was 1.6e-15
        rng = np.random.default_rng(318)
        for _ in range(8):
            h_in, h_mid, h_out = (sample_fading(shape, 10.0, rng) for shape in (n, (n, n), n))
            pi, pj = alternating_double_phases(h_in, h_mid, h_out)
            want = double_reflection_sinr(PARAMS, h_in, pi, h_mid, pj, h_out, 20.0, 30.0, 25.0)
            a_in, a_out = np.abs(h_in), np.abs(h_out)
            rotated = (h_out / a_out)[:, None] * h_mid * (h_in / a_in)
            pi, pj = alternating_double_phases(a_in, rotated, a_out)
            got = double_reflection_sinr(PARAMS, a_in, pi, rotated, pj, a_out, 20.0, 30.0, 25.0)
            assert got == pytest.approx(want, rel=1e-12)

    def test_a_zero_gain_gives_finite_phases(self):
        rng = np.random.default_rng(17)
        n = 8
        h_in = sample_fading(n, 10.0, rng)
        h_mid = sample_fading((n, n), 10.0, rng)
        h_out = sample_fading(n, 10.0, rng)
        h_out[3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pi, pj = alternating_double_phases(h_in, h_mid, h_out)
        assert np.all(np.isfinite(pi)) and np.all(np.isfinite(pj))
        assert pj[3] == 0.0  # the phasor 1 of np.angle(0) = 0, as in the oracle
        want_i, want_j = alternating_double_phases_v3(h_in, h_mid, h_out)
        assert unit_gain(h_in, pi, h_mid, pj, h_out) == pytest.approx(
            unit_gain(h_in, want_i, h_mid, want_j, h_out), rel=1e-12)

    def test_dimension_checks(self):
        n = 4
        good = sample_fading(n, 10.0, np.random.default_rng(0))
        bad_mid = sample_fading((n, n + 1), 10.0, np.random.default_rng(1))
        with pytest.raises(ValueError):
            unit_gain(good, np.zeros(n), bad_mid, np.zeros(n), good)


class TestFiniteBlocklengthRate:
    def test_zero_snr(self):
        assert finite_blocklength_rate(0.0, 1000, 1e-4) == 0.0

    def test_shannon_limit(self):
        for g in (1.0, 10.0, 100.0):
            r = finite_blocklength_rate(g, 10**9, 1e-4)
            assert abs(r - math.log2(1 + g)) <= 1e-3

    def test_frozen_value_bisection_oracle(self):
        # dispersion term built from a bisected Q-integral inverse
        qi = q_inv_bisection(1e-4)
        g, mb = 10.0, 1000
        expected = math.log2(11) - qi / math.log(2) * math.sqrt((g * g + 2 * g) / (mb * (1 + g) ** 2))
        assert expected == pytest.approx(3.2904651294626572, rel=1e-12)
        assert finite_blocklength_rate(g, mb, 1e-4) == pytest.approx(expected, rel=1e-9)

    def test_q_inv_against_bisection(self):
        # quad's tail accuracy limits the oracle to ~1e-8 in x
        for eps in (1e-6, 1e-4, 1e-2, 0.25, 0.5):
            assert q_inv(eps) == pytest.approx(q_inv_bisection(eps), abs=1e-7)

    def test_monotone_grid(self):
        gammas = np.linspace(0.0, 200.0, 50).tolist()
        blocklengths = np.unique(np.logspace(1, 6, 50).astype(int)).tolist()
        table = np.array([[finite_blocklength_rate(g, mb, 1e-4) for g in gammas] for mb in blocklengths])
        assert np.all(np.diff(table, axis=1) >= -1e-12)  # in gamma
        assert np.all(np.diff(table, axis=0) >= -1e-12)  # in blocklength
        eps_sweep = [finite_blocklength_rate(10.0, 1000, e) for e in np.logspace(-8, -1, 30)]
        assert all(a <= b + 1e-12 for a, b in zip(eps_sweep, eps_sweep[1:]))

    def test_negative_clamped_to_zero(self):
        assert finite_blocklength_rate(1e-4, 10, 1e-6) == 0.0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            finite_blocklength_rate(-1e-12, 1000, 1e-4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_snr_saturates_the_dispersion(self):
        """Where the squares overflow (gamma^2 from 1.34e154; M_b (1 + gamma)^2 from 4.2e152 at
        M_b = 1000) the rate is log2(1 + gamma) less the dispersion term at (gamma^2 + 2 gamma) /
        (1 + gamma)^2 = 1, and it is continuous across ``SCALAR_MAX``."""
        qi = q_inv(1e-4)
        gammas = [5e152, 1.35e154, 1e200, 1e300]
        want = [math.log2(1.0 + g) - qi / math.log(2.0) * math.sqrt(1.0 / 1000) for g in gammas]
        assert [finite_blocklength_rate(g, 1000, 1e-4) for g in gammas] == pytest.approx(want, rel=1e-15)
        edge = [math.nextafter(SCALAR_MAX, 0.0), SCALAR_MAX]
        below, at = (finite_blocklength_rate(g, 1000, 1e-4) for g in edge)
        assert below == pytest.approx(at, rel=1e-15)

    def test_invalid_epsilon(self):
        for eps in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                finite_blocklength_rate(1.0, 1000, eps)
            with pytest.raises(ValueError, match="epsilon"):
                q_inv(eps)

    def test_shannon_rate(self):
        assert shannon_rate(3.0) == pytest.approx(2.0, rel=1e-12)


class TestScalarRatePath:
    """The rates take one float gamma, as the router passes it. They must give, bit for bit, what
    the numpy oracles above give that gamma, alone in a 0-d array (as every reflected hop was rated
    before the float path existed) or inside a 1-D array."""

    @staticmethod
    def gammas() -> list[float]:
        rng = np.random.default_rng(94)
        edges = [0.0, 5e-324, 1e-300, 1.0, math.nextafter(SCALAR_MAX, 0.0), SCALAR_MAX, 1e300]
        return edges + rng.exponential(1.0, 40_000).tolist() + (10.0 ** rng.uniform(-12.0, 12.0, 60_000)).tolist()

    def test_finite_blocklength_rate_equals_the_0d_numpy_path(self):
        gammas = self.gammas()
        got = [finite_blocklength_rate(g, 200, 1e-5) for g in gammas]
        want = [float(rate_oracle(np.array(g), 200, 1e-5)) for g in gammas]
        assert len(gammas) > 100_000 and got[0] == 0.0
        assert got == want, [g for g, a, b in zip(gammas, got, want) if a != b][:5]

    def test_array_elements_equal_their_scalar_calls(self):
        gammas = self.gammas()
        got = rate_oracle(np.array(gammas), 200, 1e-5).tolist()
        want = [finite_blocklength_rate(g, 200, 1e-5) for g in gammas]
        assert got == want, [g for g, a, b in zip(gammas, got, want) if a != b][:5]

    def test_shannon_rate_equals_the_0d_numpy_path(self):
        gammas = self.gammas()
        assert [shannon_rate(g) for g in gammas] == [float(shannon_oracle(np.array(g))) for g in gammas]

    def test_floats_take_the_scalar_path(self, monkeypatch):
        monkeypatch.setattr(np, "asarray", None)  # no array is built
        rates = finite_blocklength_rate(10.0, 1000, 1e-4), shannon_rate(3.0)
        assert all(type(r) is float and r > 0.0 for r in rates)


class TestQinv:
    """Q^-1 from the standard library against SciPy as a test-only oracle."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        yield
        q_inv.cache_clear()

    def test_q_inv_within_10_ulp_of_erfcinv(self):
        """sqrt(2) erfcinv(2 eps) over 100,000 log-uniform eps in (1e-300, 0.5); the largest gap
        measured was 8 ulp of the oracle (Python 3.11, SciPy 1.17)."""
        rng = np.random.default_rng(91)
        eps = 10.0 ** rng.uniform(-300.0, math.log10(0.5), 100_000)
        eps = eps[(eps > 1e-300) & (eps < 1.0)]
        oracle = math.sqrt(2.0) * special.erfcinv(2.0 * eps)
        got = np.array([q_inv(e) for e in eps.tolist()])
        ulps = np.abs(got - oracle) / np.spacing(oracle)
        assert ulps.max() <= 10.0, eps[ulps > 10.0][:5]

    def test_cached(self):
        q_inv.cache_clear()
        finite_blocklength_rate(10.0, 1000, 1e-4)
        finite_blocklength_rate(2.0, 1000, 1e-4)
        assert q_inv.cache_info().misses == 1 and q_inv.cache_info().hits == 1
