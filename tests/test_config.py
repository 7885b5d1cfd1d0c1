import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from risroute.config import RANGES, ConfigError, SimConfig, load_config

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

# (file name, text, key, message): a list or pair element that is no number
MALFORMED_ELEMENTS = [
    pytest.param("list.cfg", "lambda_off_ms = 1, abc\n", "lambda_off_ms",
                 "config key 'lambda_off_ms': cannot parse value 'abc'", id="flat-list"),
    pytest.param("pair.json", '{"source_xy": ["x", 1]}', "source_xy",
                 "config key 'source_xy': cannot parse value 'x'", id="json-pair"),
    pytest.param("nested.json", '{"lambda_off_ms": [[1], 2]}', "lambda_off_ms",
                 "lambda_off_ms must be a real number, got [1]", id="json-nested-list"),
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
        number = "an integer" if key == "iu_count" else "a real number"
        with pytest.raises(ConfigError, match=f"{key} must be {number}, got {value[0] if isinstance(value, list) else value}"):
            load_config(path)

    @pytest.mark.parametrize("name,text,key,message", MALFORMED_ELEMENTS)
    def test_malformed_element_rejected(self, name, text, key, message, tmp_path):
        # each raised a bare ValueError or TypeError: only a scalar value's conversion was guarded
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
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
        ("coverage_m = 60, 70", "coverage_m must be a real number, got (60.0, 70.0)"),
        ("ris_spacing_m = 10, 20", "ris_spacing_m must be a real number, got (10.0, 20.0)"),
        ("dest_xy = 5", "dest_xy must be a pair of numbers, got 5.0"),
        ("source_xy = 1, 2, 3", "source_xy must be a pair of numbers, got (1.0, 2.0, 3.0)"),
    ])
    def test_refused(self, text, message, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
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
                       {"ris_spacing_m": 3.9}, {"arena_m": 1e6}):
            with pytest.raises(ConfigError, match="more than 100 surfaces a side"):
                SimConfig(**kwargs)
        with pytest.raises(ConfigError, match=r"arena_m must lie in \[1, 1e6\], got 1e\+300"):
            SimConfig(arena_m=1e300)  # the arena's range comes first

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
            with pytest.raises(ConfigError, match=r"arena_m must lie in \[1, 1e6\], got"):
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
        pair = kwargs[key]  # a two-tuple has a bad element, which the range pass names
        message = "must be a real number, got" if isinstance(pair, tuple) and len(pair) == 2 else "must be a pair of numbers"
        with pytest.raises(ConfigError, match=f"{key} {message}"):
            SimConfig(**kwargs)
        cfg = SimConfig(source_xy=(5, 6.0), dest_xy=(np.float64(1.0), 2))
        assert (cfg.source_xy, cfg.dest_xy) == ((5.0, 6.0), (1.0, 2.0))
        assert {type(v) for v in cfg.source_xy + cfg.dest_xy} == {float}

    def test_endpoints_within_1e_9_m_are_refused(self):
        # a destination 1e-300 m from the source: the square of its offset underflows, and the
        # source's scan never found it
        for source, dest in (((0.0, 0.0), (1e-300, 0.0)), ((0.0, 0.0), (0.0, 1e-9)), ((20.0, 200.0), (20.0, 200.0))):
            with pytest.raises(ConfigError, match="must lie more than 1e-9 m apart"):
                SimConfig(source_xy=source, dest_xy=dest)
        assert SimConfig(source_xy=(0.0, 0.0), dest_xy=(0.0, math.nextafter(1e-9, 1.0))).dest_xy[1] > 1e-9


# the nine float keys that only a finiteness check guarded against NaN, and only against a Python float's
FLOAT32_NAN_KEYS = ["coverage_m", "ris_spacing_m", "lambda_off_ms", "mu_on_ms", "slot_us", "mh_mw", "eh_slope",
                    "eh_threshold_w", "total_delay_ms"]
FLOAT_FIELDS = [f.name for f in fields(SimConfig) if "float" in f.type]


class TestValueTypes:
    """A numpy float's NaN or inf, a bool in a float field and a string in a number field are each
    refused with a message naming the key (a string raised a bare TypeError); a numpy float is stored
    as a float, which the manifest can record."""

    @pytest.mark.parametrize("text", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT32_NAN_KEYS)
    def test_float32_non_finite_refused(self, key, text, tmp_path):
        with pytest.raises(ConfigError, match=f"{key} must lie in .*, got np.float32\\({text}\\)"):
            SimConfig(**{key: np.float32(text)})
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ConfigError, match=f"{key} must lie in .*, got {text}"):
            load_config(path)

    @pytest.mark.parametrize("key", ["lambda_off_ms", "mu_on_ms"])
    def test_float32_nan_in_a_per_iu_list_refused(self, key):
        with pytest.raises(ConfigError, match=f"{key} must lie in"):
            SimConfig(iu_count=2, **{key: (4.0, np.float32("nan"))})

    @pytest.mark.parametrize("key", FLOAT_FIELDS)
    def test_bool_in_a_float_field_refused(self, key, tmp_path):
        value = (True, 200.0) if key.endswith("_xy") else True
        with pytest.raises(ConfigError, match=f"{key} must be a real number, got True"):
            SimConfig(**{key: value})
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({key: list(value) if isinstance(value, tuple) else value}))
        with pytest.raises(ConfigError, match=f"{key} must be a real number, got True"):
            load_config(path)

    @pytest.mark.parametrize("key", [name for name in RANGES if name in {f.name for f in fields(SimConfig)}])
    def test_string_in_a_number_field_refused(self, key):
        value = ("0.1", 200.0) if key.endswith("_xy") else "0.1"
        number = "an integer" if key in {f.name for f in fields(SimConfig) if f.type == "int"} else "a real number"
        with pytest.raises(ConfigError, match=f"{key} must be {number}, got '0.1'"):
            SimConfig(**{key: value})

    def test_float32_values_are_stored_as_float_and_reload(self, tmp_path):
        from risroute.experiments import ExperimentPlan, write_manifest

        cfg = SimConfig(arena_m=np.float32(400), coverage_m=np.float32(60.5), iu_count=2,
                        lambda_off_ms=(np.float32(2.5), 4), source_xy=(np.float32(20), 200.0), dest_xy=(380, 200))
        plan = ExperimentPlan(kind="mobility", vmax_grid=(np.float32(0.5),))
        values = [cfg.arena_m, cfg.coverage_m, *cfg.lambda_off_ms, *cfg.source_xy, *cfg.dest_xy, *plan.vmax_grid]
        assert {type(v) for v in values} == {float}
        assert (cfg.arena_m, cfg.coverage_m, cfg.lambda_off_ms, plan.vmax_grid) == (400.0, 60.5, (2.5, 4.0), (0.5,))
        manifest = write_manifest(tmp_path, plan, cfg)
        assert json.loads(manifest.read_text())["plan"]["vmax_grid"] == [0.5]
        assert load_config(manifest) == cfg

    def test_an_int_past_the_float_range_is_refused(self):
        with pytest.raises(ConfigError, match="arena_m must lie in"):
            SimConfig(arena_m=10 ** 400)


def _number_fields(record) -> set[str]:
    return {f.name for f in fields(record) if "float" in f.type or "int" in f.type}


def _row_ends(name: str):
    """(low, high, low closed, high closed) of a row, read from its text."""
    text = RANGES[name]
    low, high = (float(end) for end in text[1:-1].split(","))
    return low, high, text[0] == "[", text[-1] == "]"


def _inside(name: str, x: float) -> bool:
    low, high, closed_low, closed_high = _row_ends(name)
    return (low < x or (closed_low and low == x)) and (x < high or (closed_high and high == x))


# other keys set so no cross-field rule fires at a row's ends: a one-surface grid at either arena bound,
# a coverage whose half is no spacing, a slot that stays below a 5e-324 ms budget
ROW_CONTEXT = {"arena_m": {"ris_spacing_m": 1e6}, "coverage_m": {"ris_spacing_m": 400.0},
               "total_delay_ms": {"slot_us": 5e-324}}
# the one edge value no other keys can keep from a cross-field rule: no arena of 1 m or more holds a
# grid this fine under the cap
CROSS_REFUSED = {("ris_spacing_m", 5e-324): "more than 100 surfaces a side"}
PLAN_ROW_KIND = {"seed": "trajectory", "replications": "comparison", "threads": "coverage_sweep",
                 "coverage_grid": "comparison", "density_grid": "density_sweep", "vmax_grid": "mobility"}


def _edge_cases():
    """(row, value) for each finite end of each row and its neighbours: the next floats, or the next
    integers for an integer field."""
    from risroute.experiments import ExperimentPlan

    types = {f.name: f.type for record in (SimConfig, ExperimentPlan) for f in fields(record)}
    for name in RANGES:
        for end in _row_ends(name)[:2]:
            if math.isfinite(end):
                if "int" in types[name]:
                    values = [int(end) - 1, int(end), int(end) + 1]
                else:
                    values = [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
                for value in values:
                    yield pytest.param(name, value, id=f"{name}-{value!r}")


class TestRangeTable:
    """``RANGES`` has one row for every number field of both records, and each row is what the
    records accept: at each finite end and on both sides of it."""

    def test_one_row_for_every_number_field(self):
        import ast
        import inspect

        from risroute import config
        from risroute.experiments import ExperimentPlan

        config_fields, plan_fields = _number_fields(SimConfig), _number_fields(ExperimentPlan)
        assert not config_fields & plan_fields
        assert set(RANGES) == config_fields | plan_fields
        table = next(node.value for node in ast.walk(ast.parse(inspect.getsource(config)))
                     if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "RANGES")
        keys = [key.value for key in table.keys]
        assert len(keys) == len(set(keys)) == len(RANGES)  # no row is written twice

    @pytest.mark.parametrize("name,value", _edge_cases())
    def test_each_finite_end_and_its_neighbours(self, name, value, tmp_path):
        from risroute.experiments import ExperimentPlan

        if name in _number_fields(ExperimentPlan):
            kind = PLAN_ROW_KIND[name]
            given = {"kind": kind, **ROW_CONTEXT.get(name, {}), name: (value,) if name.endswith("_grid") else value}
            build = [lambda: ExperimentPlan(**given)]
        else:
            given = {**ROW_CONTEXT.get(name, {}), name: value}
            path = tmp_path / "edge.cfg"
            path.write_text("".join(f"{key} = {v!r}\n" for key, v in given.items()))
            build = [lambda: SimConfig(**given), lambda: load_config(path)]
        for make in build:
            if (name, value) in CROSS_REFUSED:
                with pytest.raises(ConfigError, match=CROSS_REFUSED[name, value]):
                    make()
            elif _inside(name, value):
                stored = getattr(make(), name)
                assert stored == ((value,) if isinstance(stored, tuple) else value)
                assert {type(v) for v in (stored if isinstance(stored, tuple) else (stored,))} == {type(value)}
            else:
                with pytest.raises(ConfigError, match=re.escape(f"{name} must lie in {RANGES[name]}, got ")):
                    make()
