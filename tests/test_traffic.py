import math
import warnings

import numpy as np
import pytest

from risroute.traffic import (
    BUSY,
    IDLE,
    TrafficField,
    chain_law,
    deferral_window,
    duration_estimate,
    idle_wait_estimate,
    switch_probability,
)

MS = 1e-3
LAM = 4 * MS  # mean OFF length
MU = 4 * MS  # mean ON length
SLOT = 0.1 * MS


def make_field(lam=LAM, mu=MU, count=1, slot=SLOT, delta=0.1, p_th=0.01, seed=0):
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (count,))
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (count,))
    return TrafficField(chain_law(lam, mu, slot, delta, p_th), np.random.default_rng(np.random.SeedSequence([seed])))


def oracle_matrix(lam, mu, slot=SLOT):
    """Per-slot transition matrix [[p00, p01], [p10, p11]], from numpy's exp."""
    p00, p11 = np.exp(-slot / lam), np.exp(-slot / mu)
    return np.array([[p00, 1.0 - p00], [1.0 - p11, p11]])


def oracle_busy_after(lam, mu, state, n):
    """P(busy after n slots | state), by matrix power."""
    return np.linalg.matrix_power(oracle_matrix(lam, mu), n)[state, 1]


class Draws:
    """Stand-in generator whose uniform draws are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u


class TestTransitionMatrix:
    def test_off_switch_probability_exact(self):
        field = make_field()
        assert field.law.p01[0] == pytest.approx(1 - math.exp(-0.025), rel=1e-15)
        assert field.law.p01[0] == pytest.approx(0.024690087971667385, rel=1e-12)
        assert field.law.p10[0] == pytest.approx(0.024690087971667385, rel=1e-12)

    def test_off_switch_probability_monte_carlo_oracle(self):
        # fraction of exponential OFF periods ending within one slot
        rng = np.random.default_rng(2024)
        draws = rng.exponential(LAM, size=1_000_000)
        frac = float(np.mean(draws < SLOT))
        p01 = make_field().law.p01[0]
        sigma = math.sqrt(p01 * (1 - p01) / 1_000_000)
        assert abs(frac - p01) < 4 * sigma

    def test_rows_sum_to_one_over_random_profiles(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lam, mu, ts = rng.uniform(0.1, 50, size=3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                field = make_field(lam * MS, mu * MS, slot=ts * MS)
            p = oracle_matrix(lam * MS, mu * MS, ts * MS)
            assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert abs(field.law.p01[0] - p[0, 1]) < 1e-15 and abs(field.law.p10[0] - p[1, 0]) < 1e-15
            assert 0 <= field.law.pi[0] <= 1 and abs(field.law.rho[0]) <= 1

    def test_infinite_off_mean_limit(self):
        field = make_field(lam=1e9)
        assert field.law.p01[0] < 1e-9 and field.law.pi[0] < 1e-9
        never = make_field(lam=math.inf)
        assert never.law.p01[0] == 0.0 and never.law.pi[0] == 0.0

    def test_invalid_rows_rejected(self):
        # means that cannot give a stochastic matrix are refused
        for lam, mu in ((math.nan, MU), (LAM, math.nan), (0.0, MU), (LAM, -1.0)):
            with pytest.raises(ValueError):
                make_field(lam, mu)


class TestChainStep:
    """One-slot observations are single steps of the chain."""

    def test_absorbing_idle_under_zero_flip(self):
        field = make_field(lam=math.inf)  # p01 = 0
        rng = np.random.default_rng(0)
        assert field.state[0] == IDLE
        for slot in range(1, 101):
            assert field.states_at(slot, np.array([0]), rng)[0] == IDLE

    def test_forced_busy_to_idle(self):
        with pytest.warns(UserWarning):
            field = make_field(lam=math.inf, mu=1e-300)  # p10 = 1
        field.state[0] = BUSY
        assert field.states_at(1, np.array([0]), np.random.default_rng(0))[0] == IDLE

    def test_stationary_busy_fraction(self):
        # long-run busy fraction approaches mu/(mu+lambda); 2-state chain has
        # autocorrelation rho, variance inflated by at most (1+rho)/(1-rho)
        chains, slots = 20_000, 100
        field = make_field(count=chains, seed=99)
        rng = np.random.default_rng(99)
        idx = np.arange(chains)
        busy = sum(int(field.states_at(slot, idx, rng).sum()) for slot in range(1, slots + 1))
        frac = busy / (chains * slots)
        rho = field.law.rho[0]
        sigma = math.sqrt(0.25 * (1 + rho) / (1 - rho) / (chains * slots))
        assert abs(frac - 0.5) < 3 * sigma

    def test_jump_matches_matrix_power_oracle(self):
        # uniforms just below / above the oracle's P(busy) must give busy / idle
        for n in (1, 2, 7, 40, 333):
            for s0 in (IDLE, BUSY):
                field = make_field(count=2)
                field.state[:] = s0
                p = oracle_busy_after(LAM, MU, s0, n)
                got = field.states_at(n, np.array([0, 1]), Draws([p * (1 - 1e-9), p * (1 + 1e-9)]))
                assert got.tolist() == [BUSY, IDLE]


class TestDurationEstimators:
    def test_idleness_frozen_value(self):
        assert duration_estimate(LAM, SLOT, 0.1) == pytest.approx(4.214420626313054, rel=1e-12)

    def test_busyness_frozen_value(self):
        assert duration_estimate(MU, SLOT, 0.1) == pytest.approx(4.214420626313054, rel=1e-12)

    def test_vanishing_tolerance(self):
        assert duration_estimate(LAM, SLOT, 1e-12) < 1e-9
        assert duration_estimate(MU, SLOT, 1e-12) < 1e-9

    def test_linearity_in_mean(self):
        a = duration_estimate(4 * MS, SLOT, 0.1)
        b = duration_estimate(8 * MS, SLOT, 0.1)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_delta_out_of_range_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                duration_estimate(LAM, SLOT, bad)

    def test_idleness_against_chain_survival_oracle(self):
        # step idle chains slot by slot; the largest n with empirical
        # survival >= 1-delta must sit within one slot of the analytic value
        delta = 0.1
        p01 = oracle_matrix(LAM, MU)[0, 1]
        rng = np.random.default_rng(42)
        chains = 100_000
        alive = np.ones(chains, dtype=bool)
        survival_n = 0
        analytic = duration_estimate(LAM, SLOT, delta)
        for n in range(1, 200):
            flips = rng.random(chains) < p01
            alive &= ~flips
            if alive.mean() >= 1 - delta:
                survival_n = n
            else:
                break
        assert abs(survival_n - analytic) <= 1.0

    def test_busyness_against_chain_survival_oracle(self):
        delta = 0.2
        p10 = oracle_matrix(LAM, 6 * MS)[1, 0]
        rng = np.random.default_rng(43)
        chains = 100_000
        alive = np.ones(chains, dtype=bool)
        survival_n = 0
        analytic = duration_estimate(6 * MS, SLOT, delta)
        for n in range(1, 400):
            flips = rng.random(chains) < p10
            alive &= ~flips
            if alive.mean() >= 1 - delta:
                survival_n = n
            else:
                break
        assert abs(survival_n - analytic) <= 1.0

    def test_duty_cycle_complement(self):
        # nu_I strictly falls and nu_B strictly rises as the duty cycle grows
        xi = np.linspace(0.1, 0.9, 9)
        nub = duration_estimate(xi * LAM / (1 - xi), SLOT, 0.1)
        nui = duration_estimate(MU * (1 - xi) / xi, SLOT, 0.1)
        assert (np.diff(nub) > 0).all()
        assert (np.diff(nui) < 0).all()


class TestIdleWait:
    def test_clamp_gives_one_slot(self):
        assert idle_wait_estimate(MU, SLOT, switch_probability(MU, SLOT)) == 1.0
        assert idle_wait_estimate(MU, SLOT, 0.5) == 1.0

    def test_frozen_value(self):
        assert idle_wait_estimate(MU, SLOT, 0.01) == pytest.approx(37.15267093620766, rel=1e-12)

    def test_matches_geometric_quantile_brute_force(self):
        # largest integer n with p11^(n-1) p10 >= p_th equals floor(eta)
        # (cases chosen inside the unclamped regime p10 >= p_th)
        for mu_ms, p_th in ((4, 0.01), (2, 0.005), (8, 0.005), (1, 0.001)):
            p = oracle_matrix(LAM, mu_ms * MS)
            eta = idle_wait_estimate(mu_ms * MS, SLOT, p_th)
            n = 0
            while p[1, 1] ** n * p[1, 0] >= p_th:
                n += 1
            assert n == math.floor(eta)

    def test_nondecreasing_in_mu_deep_in_regime(self):
        # the estimate rises with mu only while p10 >> e * p_th; at
        # p_th=1e-4 the whole 1..20 ms sweep sits in that regime
        values = idle_wait_estimate(np.linspace(1.0, 20.0, 40) * MS, SLOT, 1e-4)
        assert (np.diff(values) >= -1e-12).all()

    def test_not_monotone_near_clamp(self):
        # by the formula itself, larger mu can need a SHORTER wait once
        # p10 approaches p_th; the 2 ms vs 8 ms pair at p_th=0.01 flips
        fast, slow = idle_wait_estimate(np.array([2 * MS, 8 * MS]), SLOT, 0.01)
        assert slow < fast

    def test_always_at_least_one_slot(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            mu = float(rng.uniform(0.5, 50))
            p_th = float(rng.uniform(1e-6, 0.999))
            assert idle_wait_estimate(mu * MS, SLOT, p_th) >= 1.0


class TestDeferralWindow:
    def test_singleton(self):
        eta = idle_wait_estimate(MU, SLOT, 0.01)
        assert deferral_window(np.array([eta])) == math.ceil(eta)

    def test_min_over_two_profiles(self):
        field = make_field(mu=np.array([8 * MS, 2 * MS]), count=2, p_th=0.01)
        slow, fast = (idle_wait_estimate(mu, SLOT, 0.01) for mu in (8 * MS, 2 * MS))
        assert field.law.eta_idle.tolist() == [slow, fast]
        expected = math.ceil(min(slow, fast))
        assert deferral_window(field.law.eta_idle) == expected
        # evaluated both: the 8 ms profile wins here (see regime note above)
        assert expected == math.ceil(slow)

    def test_identical_profiles(self):
        field = make_field(count=5, p_th=0.01)
        assert deferral_window(field.law.eta_idle) == math.ceil(idle_wait_estimate(MU, SLOT, 0.01))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            deferral_window(np.empty(0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_estimate_is_an_infinite_wait(self):
        # p10 / p_th overflows for a subnormal p_th: no budget fits the wait, and nothing raises or warns
        eta = idle_wait_estimate(MU, SLOT, 5e-324)
        assert eta == math.inf
        assert deferral_window(np.array([eta])) == math.inf
        assert deferral_window(np.array([eta, 2.5])) == 3


class TestTrafficField:
    def test_deterministic_and_stationary_start(self):
        f1 = make_field(count=2000, seed=8)
        f2 = make_field(count=2000, seed=8)
        assert np.array_equal(f1.state, f2.state)
        assert abs(f1.state.mean() - 0.5) < 0.05

    def test_lazy_jump_distribution(self):
        # observing after n slots must match the n-step law
        count = 50_000
        field = make_field(count=count, seed=12)
        start = field.state.copy()
        states = field.states_at(25, np.arange(count), np.random.default_rng(np.random.SeedSequence([13])))
        for s0 in (IDLE, BUSY):
            mask = start == s0
            expected = oracle_busy_after(LAM, MU, s0, 25)
            got = states[mask].mean()
            sigma = math.sqrt(expected * (1 - expected) / mask.sum())
            assert abs(got - expected) < 4 * sigma

    def test_clock_cannot_rewind(self):
        field = make_field(count=3, seed=1)
        rng = np.random.default_rng(2)
        field.states_at(10, np.array([0, 1, 2]), rng)
        with pytest.raises(ValueError):
            field.states_at(5, np.array([0]), rng)

    def test_same_slot_repeat_consumes_no_randomness(self):
        field = make_field(count=4, seed=1)
        rng = np.random.default_rng(2)
        a = field.states_at(7, np.array([0, 1, 2, 3]), rng)
        before = rng.bit_generator.state
        b = field.states_at(7, np.array([0, 1, 2, 3]), rng)
        assert np.array_equal(a, b)
        assert rng.bit_generator.state == before

    def test_arrays_match_scalar_formulas_bit_for_bit(self):
        # the per-IU arrays must equal the one-user formulas evaluated with math;
        # np.exp differs from math.exp in the last bit at every mean here but 4 ms
        lam = np.array([4 * MS, 4.52 * MS, 3.56 * MS, 0.88 * MS])
        mu = np.array([4 * MS, 0.65 * MS, 1.88 * MS, 1.2 * MS])
        delta, p_th = 0.3, 0.02
        field = make_field(lam, mu, count=4, delta=delta, p_th=p_th)
        for j in range(4):
            p01 = 1.0 - math.exp(-SLOT / lam[j])
            p10 = 1.0 - math.exp(-SLOT / mu[j])
            assert field.law.p01[j] == p01 and field.law.p10[j] == p10
            assert field.law.pi[j] == p01 / (p01 + p10) and field.law.rho[j] == 1.0 - p01 - p10
            assert field.law.nu_idle[j] == (lam[j] / SLOT) * math.log(1.0 / (1.0 - delta))
            assert field.law.eta_idle[j] == (mu[j] / SLOT) * math.log(max(p10 / p_th, 1.0)) + 1.0


class TestProfileValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            make_field(lam=-1.0, mu=1.0, slot=0.1)
        with pytest.raises(ValueError):
            make_field(lam=1.0, mu=1.0, slot=0.0)

    def test_large_slot_warns(self):
        with pytest.warns(UserWarning):
            make_field(lam=1 * MS, mu=1 * MS, slot=0.5 * MS)

    def test_large_slot_warns_once_per_field(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            make_field(lam=1 * MS, mu=1 * MS, count=500, slot=0.5 * MS)
        assert len(caught) == 1
