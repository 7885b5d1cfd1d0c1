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

# (file name, text, key): a list or pair element that is no number
MALFORMED_ELEMENTS = [
    pytest.param("list.cfg", "lambda_off_ms = 1, abc\n", "lambda_off_ms", id="flat-list"),
    pytest.param("pair.json", '{"source_xy": ["x", 1]}', "source_xy", id="json-pair"),
    pytest.param("nested.json", '{"lambda_off_ms": [[1], 2]}', "lambda_off_ms", id="json-nested-list"),
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

    @pytest.mark.parametrize("name,text,key", MALFORMED_ELEMENTS)
    def test_malformed_element_rejected(self, name, text, key, tmp_path):
        # each raised a bare ValueError or TypeError: only a scalar value's conversion was guarded
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"config key '{key}': cannot parse value"):
            load_config(path)

    def test_constellation_range_accepted(self):
        assert [SimConfig(fixed_rate_bits=b).fixed_rate_bits for b in (1, 8)] == [1, 8]

    def test_numpy_integers_accepted_as_int(self):
        cfg = SimConfig(iu_count=np.int64(50), packets=np.int32(2))
        assert (cfg.iu_count, cfg.packets) == (50, 2) and type(cfg.iu_count) is type(cfg.packets) is int


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
    # an integer key given a bool or a non-integral value
    ("iu_count", 50.5),
    ("blocklength", 10.5),
    ("packets", 1.5),
    ("iu_count", True),
    ("fixed_rate_bits", True),
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


class TestKeySetTwice:
    def test_flat_file_names_the_line(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("iu_count = 100\n# a comment\ndelta = 0.2\niu_count = 200\n")
        with pytest.raises(ConfigError, match=r"twice.cfg:4: config key 'iu_count' is set twice \(first on line 1\)"):
            load_config(path)

    def test_json_key_refused(self, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"iu_count": 100, "iu_count": 300}')
        with pytest.raises(ConfigError, match="config key 'iu_count' is set twice"):
            load_config(path)

    def test_manifest_config_key_refused(self, tmp_path):
        path = tmp_path / "manifest_trajectory.json"
        path.write_text('{"schema": 1, "config": {"delta": 0.2, "packets": 2, "delta": 0.3}}')
        with pytest.raises(ConfigError, match="key 'delta' is set twice"):
            load_config(path)


class TestKeyClasses:
    """A file value is read by its field's annotation: nullable, string, list, pair or number."""

    @pytest.mark.parametrize("text,key,value", [
        ("ris_spacing_m = none", "ris_spacing_m", None), ("source_xy = null", "source_xy", None),
        ("threshold_rule = eqtext ", "threshold_rule", "eqtext"), ("mu_on_ms = 3", "mu_on_ms", 3.0),
        ("source_xy = 10, 20", "source_xy", (10.0, 20.0)), ("iu_count = 3", "iu_count", 3),
        ("iu_count = 2\nlambda_off_ms = 1, 2", "lambda_off_ms", (1.0, 2.0)),
    ])
    def test_accepted(self, text, key, value, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(text + "\n")
        assert getattr(load_config(path), key) == value

    @pytest.mark.parametrize("text,message", [
        ("coverage_m = none", "config key 'coverage_m' cannot be null"),
        ("threshold_rule = null", "config key 'threshold_rule' cannot be null"),
        ("coverage_m = 60, 70", "config key 'coverage_m' does not accept a list"),
        ("ris_spacing_m = 10, 20", "config key 'ris_spacing_m' does not accept a list"),
        ("dest_xy = 5", "config key 'dest_xy' needs exactly two values, got"),
        ("source_xy = 1, 2, 3", "config key 'source_xy' needs exactly two values"),
    ])
    def test_refused(self, text, message, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=message):
            load_config(path)


class TestDelayBudget:
    """A route takes at least one slot, so ``SimConfig`` refuses a budget shorter than one, by the
    derived SI values the router reads."""

    def test_budget_below_one_slot_is_refused(self, tmp_path):
        message = r"total_delay_ms = 0.05 is shorter than one slot \(slot_us = 100.0\)"
        with pytest.raises(ConfigError, match=message):
            SimConfig(total_delay_ms=0.05)  # half a slot
        path = tmp_path / "short.cfg"
        path.write_text("total_delay_ms = 0.05\n")
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        with pytest.raises(ConfigError, match="slot_us = 60000.0"):
            SimConfig(slot_us=60000.0)  # the default 50 ms budget is shorter than this slot

    def test_budget_of_exactly_one_slot_is_accepted(self):
        cfg = SimConfig(total_delay_ms=0.1)  # 0.1 * 1e-3 >= 100 * 1e-6 in floats
        assert cfg.total_delay_s >= cfg.slot_s


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
                assert ris_grid_positions(400.0, spacing).shape == (row * row, 2)
        assert SimConfig(ris_spacing_m=4.0).ris_spacing == 4.0  # 100 x 100 surfaces is the largest grid
        assert SimConfig(coverage_m=30.0).coverage_m == 30.0  # the densest workload grid, 27 x 27


class TestProjectionRange:
    """The bounds that keep the scan's unnormalised projection products finite and nonzero."""

    def test_an_arena_past_either_bound_is_refused(self):
        # at 1e160 m a grid of 12 surfaces a side passes the cap, but the scan's projection products
        # overflow to inf near 1e154 m and the scans lose rows; at 5e-10 m the endpoint draw never
        # finds two points 1e-9 m apart, and generate_topology never returned
        for arena in (1e160, math.nextafter(1e6, math.inf), math.nextafter(1.0, 0.0), 5e-10):
            with pytest.raises(ConfigError, match=r"arena_m must lie in \[1, 1e\+06\] m"):
                SimConfig(arena_m=arena, coverage_m=max(arena / 6, 60.0))
        for arena in (1.0, 1e6):
            assert SimConfig(arena_m=arena, coverage_m=max(arena / 6, 60.0)).arena_m == arena

    @pytest.mark.parametrize("kwargs,key", [
        ({"source_xy": (1.0, 2.0, 3.0)}, "source_xy"),
        ({"dest_xy": (5.0,)}, "dest_xy"),
        ({"source_xy": (1.0, 2.0, 3.0), "dest_xy": (5.0, 6.0)}, "source_xy"),  # math.dist refused the lengths
        ({"source_xy": (5.0, 6.0), "dest_xy": (1.0, 2.0, 3.0)}, "dest_xy"),
        ({"source_xy": 5.0}, "source_xy"),
        ({"dest_xy": ("5", 6.0)}, "dest_xy"),
        ({"source_xy": (True, 6.0)}, "source_xy"),
        ({"dest_xy": [5.0, 6.0]}, "dest_xy"),
    ])
    def test_an_endpoint_that_is_not_two_numbers_is_refused(self, kwargs, key):
        with pytest.raises(ConfigError, match=f"{key} must be a pair of numbers"):
            SimConfig(**kwargs)
        assert SimConfig(source_xy=(5, 6.0), dest_xy=(np.float64(1.0), 2)).source_xy == (5, 6.0)

    def test_endpoints_within_1e_9_m_are_refused(self):
        # a destination 1e-300 m from the source: the square of its offset underflows, and the
        # source's scan never found it
        for source, dest in (((0.0, 0.0), (1e-300, 0.0)), ((0.0, 0.0), (0.0, 1e-9)), ((20.0, 200.0), (20.0, 200.0))):
            with pytest.raises(ConfigError, match="must lie more than 1e-9 m apart"):
                SimConfig(source_xy=source, dest_xy=dest)
        assert SimConfig(source_xy=(0.0, 0.0), dest_xy=(0.0, math.nextafter(1e-9, 1.0))).dest_xy[1] > 1e-9
