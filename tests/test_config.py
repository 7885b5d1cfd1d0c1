import json
import math

import numpy as np
import pytest

from risroute.config import ConfigError, SimConfig, load_config

NON_FINITE = [
    ("alpha_d2d", math.nan),
    ("total_delay_ms", math.inf),
    ("noise_dbm", -math.inf),
    ("ris_spacing_m", math.nan),
    ("lambda_off_ms", (4.0, math.nan)),
    ("mu_on_ms", (math.inf, 4.0)),
    ("source_xy", (20.0, math.inf)),
    ("dest_xy", (math.nan, 200.0)),
]


class TestRejectsBadNumbers:
    @pytest.mark.parametrize("key,value", NON_FINITE)
    def test_non_finite_rejected_by_constructor(self, key, value):
        with pytest.raises(ConfigError, match=key):
            SimConfig(**{key: value})

    @pytest.mark.parametrize("key,value", NON_FINITE)
    def test_non_finite_rejected_from_file(self, key, value, tmp_path):
        text = ", ".join(repr(v) for v in value) if isinstance(value, tuple) else repr(value)
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    @pytest.mark.parametrize("bits", [0, 9, -2])
    def test_fixed_rate_bits_outside_constellations_rejected(self, bits, tmp_path):
        with pytest.raises(ConfigError, match="fixed_rate_bits"):
            SimConfig(fixed_rate_bits=bits)
        path = tmp_path / "bits.cfg"
        path.write_text(f"fixed_rate_bits = {bits}\n")
        with pytest.raises(ConfigError, match="fixed_rate_bits"):
            load_config(path)

    @pytest.mark.parametrize("key,value", [("lambda_off_ms", [True, 4.0]), ("source_xy", [True, 5]),
                                           ("coverage_m", True), ("ris_spacing_m", False), ("iu_count", True)])
    def test_json_booleans_rejected(self, key, value, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"config key '{key}' takes numbers, not booleans"):
            load_config(path)

    def test_constellation_range_accepted(self):
        assert [SimConfig(fixed_rate_bits=b).fixed_rate_bits for b in (1, 8)] == [1, 8]


# values a downstream constructor would refuse later, mid-run
OUT_OF_RANGE = [
    ("blocklength", 0),
    ("blocklength", -5),
    ("ris_spacing_m", 0.0),
    ("ris_spacing_m", -30.0),
    ("mh_mw", 0.0),
    ("eh_slope", -150.0),
    ("eh_threshold_w", 0.0),
    ("ris_elements", 0),
    # outside the link-budget keys' physical ranges
    ("rho_l_db", 3000.0),
    ("noise_dbm", -3000.0),
    ("tx_power_dbm", 3000.0),
    ("alpha_d2d", -50.0),
    ("alpha_other", -5.0),
    ("alpha_d2d", 2000.0),
    ("alpha_other", 10.5),
    # the harvester: an overflowing curve, a saturation above the transmit power (1000 mW)
    ("eh_slope", 60000.0),
    ("mh_mw", 1000.5),
]


# dB values whose linear value overflows to inf or underflows to 0 (K may be 0: Rayleigh)
UNREPRESENTABLE_DB = [
    ("rician_k_db", 4000.0),
    ("tx_power_dbm", 4000.0),
    ("rho_l_db", 4000.0),
    ("noise_dbm", -4000.0),
    ("proc_power_dbm", 4000.0),
    ("tx_power_dbm", -4000.0),
]


class TestRejectsOutOfRange:
    @pytest.mark.parametrize("key,value", OUT_OF_RANGE)
    def test_rejected_by_constructor_and_from_file(self, key, value, tmp_path):
        with pytest.raises(ConfigError, match=key):
            SimConfig(**{key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)


    @pytest.mark.parametrize("key,value", UNREPRESENTABLE_DB)
    def test_db_value_without_finite_linear_value_rejected(self, key, value, tmp_path):
        with pytest.raises(ConfigError, match=key):
            SimConfig(**{key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)

    def test_rayleigh_k_accepted(self):
        assert SimConfig(rician_k_db=-4000.0).rician_k_db == -4000.0


class TestDeadKeys:
    @pytest.mark.parametrize("key,value", [("v_max_mps", 5.0), ("throughput_term", "bits")])
    def test_old_manifest_key_is_unknown(self, key, value, tmp_path):
        config = SimConfig().to_dict()
        config[key] = value
        path = tmp_path / "manifest_trajectory.json"
        path.write_text(json.dumps({"schema": 1, "config": config}))
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(path)


class TestPerIuLists:
    @pytest.mark.parametrize("key", ["lambda_off_ms", "mu_on_ms"])
    def test_length_must_equal_iu_count(self, key):
        with pytest.raises(ConfigError, match=f"{key} has 3 per-IU values but iu_count is 4"):
            SimConfig(iu_count=4, **{key: (1.0, 2.0, 3.0)})
        assert SimConfig(iu_count=3, **{key: (1.0, 2.0, 3.0)}).iu_count == 3


class TestReflectorGridCap:
    def test_refused_before_any_grid_is_built(self, monkeypatch):
        # coverage 0.1 m would lay an 8000 x 8000 grid, and with dest_xy set the config builds the grid
        from risroute import topology

        def build(*args):
            raise AssertionError("built a grid")

        monkeypatch.setattr(topology, "ris_grid_positions", build)
        for kwargs in ({"coverage_m": 0.1}, {"coverage_m": 0.1, "dest_xy": (380.0, 200.0)},
                       {"ris_spacing_m": 3.9}, {"arena_m": 1e300}):
            with pytest.raises(ConfigError, match="more than 100 surfaces a side"):
                SimConfig(**kwargs)

    def test_cap_counts_surfaces_as_the_grid_does(self):
        from risroute.config import MAX_RIS_PER_SIDE
        from risroute.topology import ris_grid_positions

        edge = 400.0 / (MAX_RIS_PER_SIDE + 0.5)  # (400 - s/2) / s == 100 surfaces a row
        spacings = [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf), 3.9, 4.0, 15.0]
        for spacing in spacings:
            row = np.arange(spacing / 2.0, 400.0, spacing).size  # one row, as the grid lays it
            try:
                SimConfig(ris_spacing_m=spacing)
            except ConfigError:
                assert row > MAX_RIS_PER_SIDE
            else:
                assert row <= MAX_RIS_PER_SIDE
                assert ris_grid_positions((400.0, 400.0), spacing).shape == (row * row, 2)
        assert SimConfig(ris_spacing_m=4.0).ris_spacing == 4.0  # 100 x 100 surfaces is the largest grid
        assert SimConfig(coverage_m=30.0).coverage_m == 30.0  # the densest workload grid, 27 x 27
