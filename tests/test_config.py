import json
import math

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
