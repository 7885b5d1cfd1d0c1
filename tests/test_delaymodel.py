import math
import operator
from functools import reduce

import numpy as np
import pytest

from risroute import traffic
from risroute.delaymodel import DelayBudget

TD = 0.050
PSI = 7
UNREAD = math.nan  # the remaining budget passed to advances below the hop span: never read, a pin would record NaN


def fresh_budget():
    return DelayBudget.start(TD, PSI)


def chain(total, psi, psi_list, waits):
    """Limits T_d0..T_di from the production recursion: the start's, then what each hop's advance returns."""
    budget = DelayBudget.start(total, psi)
    return [budget.current_limit, *(budget.advance(wait, psi_i, UNREAD) for psi_i, wait in zip(psi_list, waits))]


# -- analysis forms of the budget, kept here as oracles for DelayBudget --------


def recursion_reference(total, psi, psi_list, waits):
    """Independent expansion of the Table-II row-1/2 recursion. The earlier waits are added left to
    right, as the budget adds them: builtin ``sum`` compensates float sums from Python 3.12 on."""
    limits = [total / psi]
    for i, psi_i in enumerate(psi_list, start=1):
        earlier = reduce(operator.add, waits[: i - 1], 0.0)
        last = waits[i - 1]
        limits.append((total - earlier - limits[-1]) / (psi - psi_i) + (limits[-1] - last))
    return limits


def closed_form_case1(total, psi, psi_list):
    """No-wait budget at hop i = len(psi_list), straight from the telescoped form."""
    i = len(psi_list)
    acc = 0.0
    for p in range(1, i + 1):
        term = 1.0 / (psi - psi_list[p - 1])
        for q in range(p + 1, i + 1):
            term *= 1.0 - 1.0 / (psi - psi_list[q - 1])
        acc += term
    tail = 1.0 / psi
    for n in range(1, i + 1):
        tail *= 1.0 - 1.0 / (psi - psi_list[n - 1])
    return total * (acc + tail)


def taylor_wait(mu, slot, p_th):
    """Small-T_s/mu Taylor form of the deferral wait, in seconds."""
    return mu * math.log(slot / (mu * p_th)) + slot


def first_hop_budget_taylor(total, psi, psi_1, mu, slot, p_th):
    """First-hop budget with the Taylor wait (analysis form)."""
    lead = total * ((1.0 / (psi - psi_1)) * (1.0 - 1.0 / psi) + 1.0 / psi)
    return lead - taylor_wait(mu, slot, p_th)


class TestStartAndFirstHop:
    def test_source_share(self):
        assert fresh_budget().current_limit == pytest.approx(TD / PSI, rel=1e-15)
        assert TD / PSI == pytest.approx(0.0071428571428571435, rel=1e-12)

    def test_first_hop_no_wait(self):
        b = fresh_budget()
        assert b.advance(0.0, 1, UNREAD) == pytest.approx(0.014285714285714287, rel=1e-12)

    def test_first_hop_full_wait_consumes_carry(self):
        b = fresh_budget()
        t0 = b.current_limit
        got = b.advance(t0, 1, UNREAD)
        assert got == pytest.approx((TD - TD / PSI) / (PSI - 1), rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            DelayBudget.start(0.0, 7)
        with pytest.raises(ValueError):
            DelayBudget.start(1.0, 0)
        b = fresh_budget()
        with pytest.raises(ValueError):
            b.advance(-1.0, 1, UNREAD)
        with pytest.raises(ValueError):
            b.advance(-1.0, PSI, 0.01)
        with pytest.raises(ValueError):
            b.pin_next(-1.0, 0.01)


class TestClosedForm:
    def test_single_hop_shape(self):
        got = closed_form_case1(TD, PSI, [1])
        want = TD * (1 / (PSI - 1) + (1 / PSI) * (1 - 1 / (PSI - 1)))
        assert got == pytest.approx(want, rel=1e-14)
        assert fresh_budget().advance(0.0, 1, UNREAD) == pytest.approx(got, rel=1e-14)

    def test_two_hop_expansion(self):
        got = closed_form_case1(TD, PSI, [1, 2])
        want = TD * (
            1 / (PSI - 2)
            + (1 / (PSI - 1)) * (1 - 1 / (PSI - 2))
            + (1 / PSI) * (1 - 1 / (PSI - 1)) * (1 - 1 / (PSI - 2))
        )
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.021428571428571432, rel=1e-12)

    def test_matches_recursion_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            psi = int(rng.integers(2, 11))
            depth = int(rng.integers(1, 7))
            psi_list = sorted(int(rng.integers(0, psi)) for _ in range(depth))
            total = float(rng.uniform(0.001, 1.0))
            limits = chain(total, psi, psi_list, [0.0] * depth)
            closed = closed_form_case1(total, psi, psi_list)
            assert abs(closed - limits[-1]) <= 1e-12 * abs(limits[-1])

    def test_monotone_in_hop_index(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            psi = int(rng.integers(2, 11))
            depth = int(rng.integers(2, 7))
            psi_list = [int(rng.integers(0, psi)) for _ in range(depth)]
            vals = chain(1.0, psi, psi_list, [0.0] * depth)
            assert vals[0] == 1.0 / psi
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_overshoot_pinned_to_the_remaining_budget(self):
        # a relay at the hop span gets the route's remaining budget at any hop, not only the first,
        # and records its wait and its limit
        b = fresh_budget()
        limits = [b.advance(0.0, 1, UNREAD), b.advance(0.001, PSI, 0.03)]
        assert limits == [chain(TD, PSI, [1], [0.0])[1], 0.03]
        assert (b.waited, b.current_limit) == (0.001, 0.03)

    def test_recursion_bit_for_bit_against_reference(self):
        rng = np.random.default_rng(35)
        for _ in range(500):
            psi = int(rng.integers(2, 11))
            depth = int(rng.integers(1, 7))
            psi_list = [int(rng.integers(0, psi)) for _ in range(depth)]
            waits = [float(w) for w in rng.uniform(0, 0.01, size=depth)]
            assert chain(1.0, psi, psi_list, waits) == recursion_reference(1.0, psi, psi_list, waits)


class TestCaseTwo:
    def test_zero_waits_reduce_to_case_one(self):
        b = fresh_budget()
        got = b.advance(0.0, 1, UNREAD)
        assert got == pytest.approx(closed_form_case1(TD, PSI, [1]), rel=1e-13)

    def test_first_hop_matches_taylor_form(self):
        # with the Taylor wait plugged into the recursion both evaluations
        # are the same algebra; the regime T_s/(mu p_th) > 1 must hold
        mu, slot, p_th = 4e-3, 1e-4, 0.01
        assert slot / (mu * p_th) > 1
        b = fresh_budget()
        got = b.advance(taylor_wait(mu, slot, p_th), 1, UNREAD)
        want = first_hop_budget_taylor(TD, PSI, 1, mu, slot, p_th)
        assert got == pytest.approx(want, rel=1e-12)

    def test_taylor_gap_reported(self):
        # the router waits the exact estimate; the Taylor form is close to it here
        mu, slot, p_th = 4e-3, 1e-4, 0.01
        exact = float(traffic.idle_wait_estimate(mu, slot, p_th)) * slot
        p10 = 1.0 - math.exp(-slot / mu)
        assert exact == pytest.approx(mu * math.log(p10 / p_th) + slot, rel=1e-12)
        gap = abs(exact - taylor_wait(mu, slot, p_th))
        assert 0.0 < gap < 1e-4  # higher-order Taylor terms are small here

    def test_first_hop_budget_increases_with_mu(self):
        # the wait term mu*ln(T_s/(mu p_th)) shrinks with mu exactly when
        # 1 < T_s/(mu p_th) < e; sweep inside that window (p_th=0.01:
        # mu between T_s/(e p_th)=3.68 ms and T_s/p_th=10 ms)
        def budget(mu):
            return fresh_budget().advance(taylor_wait(float(mu), 1e-4, 0.01), 1, UNREAD)

        vals = [budget(m) for m in np.linspace(4e-3, 9.9e-3, 50)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        # outside the window the trend flips, by the same formula
        low = [budget(m) for m in np.linspace(0.5e-3, 3e-3, 20)]
        assert low[0] > low[-1]

    def test_wait_lengths_must_match_index(self):
        # every hop adds exactly its wait and sets one limit, pinned or not,
        # and a refused wait records neither
        b = fresh_budget()
        first = b.advance(0.001, 1, UNREAD)
        for psi_next in (2, PSI):
            with pytest.raises(ValueError):
                b.advance(-1.0, psi_next, 0.01)
        assert (b.waited, b.current_limit) == (0.001, first)
        b.advance(0.002, PSI, 0.01)
        got = b.advance(0.0, 3, UNREAD)
        assert (b.waited, b.current_limit) == (0.001 + 0.002 + 0.0, got)
        # the recursion carries on from the pinned limit
        assert got == (TD - 0.003 - 0.01) / (PSI - 3) + 0.01


class TestRisIuVariant:
    def test_all_d2d_flags_collapse_to_only_iu(self):
        # relay-only row: w_k = beta_k t_k, so a hop that found an idle relay
        # (beta_k = 0) records no wait and the recursion is the all-busy one
        t = [0.0012, 0.0007, 0.0009]
        beta = [1, 0, 1]
        waits = [b * w for b, w in zip(beta, t)]
        got = chain(TD, PSI, [1, 2, 4], waits)
        assert got == pytest.approx(recursion_reference(TD, PSI, [1, 2, 4], waits), rel=1e-13)
        assert got[-1] > chain(TD, PSI, [1, 2, 4], t)[-1]  # the skipped wait stays in the budget

    def test_all_ris_flags_same_recursion(self):
        # reflector hops pay t'' (the decision slot plus any deferral) and
        # feed the same recursion
        waits = [0.0012, 0.0007]
        b = fresh_budget()
        b.advance(waits[0], 1, UNREAD)
        got = b.advance(waits[1], 3, UNREAD)
        prev = recursion_reference(TD, PSI, [1], waits)[1]  # T_d1
        expected = (TD - waits[0] - prev) / (PSI - 3) + (prev - waits[1])
        assert got == pytest.approx(expected, rel=1e-13)

    def test_mixed_flags_hand_expansion(self):
        # four-hop record, alternating relay waits t' and reflector waits t''
        t = [0.001, 0.0004, 0.0016, 0.0002]
        psi_seq = [1, 2, 2, 5]
        limits = chain(TD, PSI, psi_seq, t)
        assert limits == pytest.approx(recursion_reference(TD, PSI, psi_seq, t), rel=1e-13)
        prev = limits[3]  # T_d3 feeds the hop-4 recursion
        expected = (TD - sum(t[:3]) - prev) / (PSI - 5) + (prev - t[3])
        assert limits[4] == pytest.approx(expected, rel=1e-13)


class TestBudgetProperties:
    def test_sandwich_between_extreme_cases(self):
        # same waits: all-busy budget <= mixed budget <= no-wait budget
        rng = np.random.default_rng(33)
        for _ in range(300):
            psi = int(rng.integers(3, 11))
            depth = int(rng.integers(1, 6))
            psi_list = sorted(int(rng.integers(0, psi)) for _ in range(depth))
            waits = [float(w) for w in rng.uniform(0, 0.01, size=depth)]
            flags = [bool(b) for b in rng.integers(0, 2, size=depth)]
            mixed = chain(1.0, psi, psi_list, [w if f else 0.0 for w, f in zip(waits, flags)])
            allb = chain(1.0, psi, psi_list, waits)
            none = chain(1.0, psi, psi_list, [0.0] * depth)
            assert allb[-1] <= mixed[-1] + 1e-12
            assert mixed[-1] <= none[-1] + 1e-12

    def test_conservation_under_full_consumption(self):
        # waiting exactly the budget everywhere never oversubscribes T_d
        rng = np.random.default_rng(34)
        for _ in range(200):
            psi = int(rng.integers(2, 11))
            b = DelayBudget.start(1.0, psi)
            total_waited = 0.0
            for i in range(1, psi):
                wait = b.current_limit
                total_waited += wait
                b.advance(wait, i, UNREAD)
            assert total_waited <= 1.0 + 1e-9

    def test_overshoot_guard(self, monkeypatch):
        # at or past the hop span advance pins through pin_next, whose calls count the pins; below it never
        pins, pin_next = [], DelayBudget.pin_next

        def recorded(budget, wait_s, limit):
            pins.append(limit)
            return pin_next(budget, wait_s, limit)

        monkeypatch.setattr(DelayBudget, "pin_next", recorded)
        b = fresh_budget()
        b.advance(0.0, PSI - 1, UNREAD)
        assert pins == []
        assert b.advance(0.0, PSI, 0.02) == 0.02 and b.advance(0.001, PSI + 3, 0.015) == 0.015
        assert pins == [0.02, 0.015]
        assert (b.waited, b.current_limit) == (0.001, 0.015)

    def test_negative_budget_not_clamped(self):
        b = DelayBudget.start(0.01, 3)
        limit = b.advance(0.5, 1, UNREAD)  # absurd wait
        assert limit < 0.0
