"""Every config ``SimConfig`` accepts routes to an end: a success or a failure
reason, never an exception, under every policy and with moving IUs.

The draws reach the extremes of each key's accepted range (dB keys far past
any physical value, ratios near 0 and 1). Sizes are bounded so each example
routes in milliseconds: at most 40 IUs, 6 elements a surface, 16-bit
transfers and a 2000 m arena, whose reflector grid ``SimConfig`` caps.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from risroute import router
from risroute.config import ConfigError, SimConfig
from risroute.experiments import derive_rng, run_one_route
from risroute.metrics import compute_route_metrics


DEFAULTS = SimConfig()


def floats(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def configs(draw):
    """Keyword arguments for a ``SimConfig``, many of them refused by it; each key
    is its default or a draw from a range reaching past what ``SimConfig`` accepts."""

    def key(name, values):
        return draw(st.one_of(st.just(getattr(DEFAULTS, name)), values))

    arena = key("arena_m", floats(1.0, 2000.0))
    iu_count = draw(st.integers(0, 40))
    traffic_mean = floats(1e-3, 1e3)
    per_iu = st.lists(traffic_mean, min_size=iu_count, max_size=iu_count).map(tuple)
    point = st.one_of(st.none(), st.tuples(floats(0.0, arena), floats(0.0, arena)))
    unit = floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return dict(
        arena_m=arena,
        coverage_m=key("coverage_m", floats(0.1, 3000.0)),
        iu_count=iu_count,
        ris_spacing_m=draw(st.one_of(st.none(), floats(0.1, 3000.0))),
        ris_elements=draw(st.integers(1, 6)),
        lambda_off_ms=key("lambda_off_ms", st.one_of(traffic_mean, per_iu)),
        mu_on_ms=key("mu_on_ms", st.one_of(traffic_mean, per_iu)),
        slot_us=key("slot_us", floats(1.0, 1e4)),
        delta=key("delta", unit),
        p_th=key("p_th", unit),
        rho_l_db=key("rho_l_db", floats(-1000.0, 0.0)),
        alpha_d2d=key("alpha_d2d", floats(0.0, 10.0, exclude_min=True)),
        alpha_other=key("alpha_other", floats(0.0, 10.0, exclude_min=True)),
        noise_dbm=key("noise_dbm", floats(-200.0, 400.0)),
        tx_power_dbm=key("tx_power_dbm", floats(-400.0, 60.0)),
        proc_power_dbm=key("proc_power_dbm", floats(-400.0, 400.0)),
        rician_k_db=key("rician_k_db", floats(-1000.0, 400.0)),
        blocklength=key("blocklength", st.integers(1, 10**9)),
        epsilon=key("epsilon", unit),
        target_ber=key("target_ber", unit),
        threshold_rule=draw(st.sampled_from(["table3", "eqtext"])),
        mh_mw=key("mh_mw", floats(1e-6, 2e3)),
        eh_slope=key("eh_slope", floats(1e-6, 1e3)),
        eh_threshold_w=key("eh_threshold_w", floats(1e-9, 1.0)),
        packets=draw(st.integers(1, 4)),
        bits_per_packet=draw(st.integers(1, 4)),
        total_delay_ms=key("total_delay_ms", floats(1e-3, 500.0)),
        fixed_rate_bits=draw(st.integers(1, 8)),
        source_xy=draw(point),
        dest_xy=draw(point),
    )


# a long slot warns by design; numpy warnings (a subnormal p_th's infinite wait, say) fail the test
@pytest.mark.filterwarnings("ignore:slot duration is not small", "error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(kwargs=configs(), variant=st.sampled_from(sorted(router.BASELINE_POLICIES)),
       v_max=st.one_of(st.just(0.0), floats(0.0, 50.0)), seed=st.integers(0, 2**32 - 1))
def test_accepted_config_routes_to_an_end(kwargs, variant, v_max, seed):
    try:
        cfg = SimConfig(**kwargs)
    except ConfigError:
        assume(False)
    ledger = run_one_route(cfg, derive_rng(seed, 0), router.BASELINE_POLICIES[variant],
                           mobility_rng=derive_rng(seed, 1), v_max=v_max)
    assert ledger.success == (ledger.failure_reason is None)
    if ledger.success:
        row = compute_route_metrics(ledger, cfg)
        assert all(math.isfinite(row[c]) and row[c] > 0 for c in ("D_T", "D_T_normalized", "E_eff"))
