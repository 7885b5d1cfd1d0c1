"""Golden outputs: today's numbers for every experiment kind, pinned.

Each case runs ``experiments.run`` at a small size and compares every CSV
it writes against the rows stored in ``golden.json`` next to this file:
integers and strings must match exactly, floats to a relative 1e-9.
A change that is meant to move results regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from risroute import channel, router
from risroute.config import SimConfig
from risroute.experiments import ExperimentPlan, run

GOLDEN = Path(__file__).with_name("golden.json")
PER_IU = 40  # IUs of the per-IU traffic case

CASES = {
    "trajectory": (
        ExperimentPlan(kind="trajectory", seed=5, replications=3),
        SimConfig(iu_count=150, delta=0.3),
    ),
    "trajectory_per_iu": (
        ExperimentPlan(kind="trajectory", seed=7, replications=3),
        SimConfig(
            iu_count=PER_IU,
            coverage_m=90.0,
            delta=0.3,
            source_xy=(20.0, 200.0),
            dest_xy=(380.0, 200.0),
            lambda_off_ms=tuple(1.0 + 0.05 * j for j in range(PER_IU)),  # mostly busy: waits
            mu_on_ms=tuple(2.0 + 0.1 * (j % 9) for j in range(PER_IU)),
        ),
    ),
    "coverage_sweep": (
        ExperimentPlan(kind="coverage_sweep", seed=5, replications=3,
                       coverage_grid=(40.0, 70.0), density_grid=(100,)),
        SimConfig(),
    ),
    "density_sweep": (
        ExperimentPlan(kind="density_sweep", seed=5, replications=3,
                       coverage_grid=(45.0,), density_grid=(100, 200)),
        SimConfig(),
    ),
    "traffic_validation": (
        ExperimentPlan(kind="traffic_validation", seed=5, chains=2000, batches=4),
        SimConfig(),
    ),
    "comparison": (
        ExperimentPlan(kind="comparison", seed=5, replications=2, coverage_grid=(40.0, 60.0)),
        SimConfig(iu_count=150),
    ),
    "mobility": (
        ExperimentPlan(kind="mobility", seed=5, replications=3, vmax_grid=(0.0, 10.0)),
        SimConfig(iu_count=150),
    ),
    # the sparse-ris benchmark shape: almost every route ends in the double-reflection stage
    "coverage_sweep_sparse": (
        ExperimentPlan(kind="coverage_sweep", seed=5, replications=6,
                       coverage_grid=(30.0,), density_grid=(100,)),
        SimConfig(),
    ),
}


def read_rows(path: Path) -> list[list[str]]:
    """A CSV's rows as lists of cells; a ``#`` comment line is one cell."""
    with open(path, newline="") as fh:
        return [[line.rstrip("\n")] if line.startswith("#") else next(csv.reader([line]))
                for line in fh]


def outputs(name: str, out: Path) -> dict[str, list[list[str]]]:
    plan, cfg = CASES[name]
    run(plan, cfg, out)
    return {p.name: read_rows(p) for p in sorted(out.glob("*.csv"))}


def cells_match(got: str, want: str) -> bool:
    for parse in (int, float):
        try:
            g, w = parse(got), parse(want)
        except ValueError:
            continue
        if parse is int:
            return g == w
        return math.isclose(g, w, rel_tol=1e-9, abs_tol=0.0) or (math.isnan(g) and math.isnan(w))
    return got == want


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    got = outputs(name, tmp_path)
    assert sorted(got) == sorted(expected)
    for filename, rows in expected.items():
        assert len(got[filename]) == len(rows), filename
        for i, (g_row, w_row) in enumerate(zip(got[filename], rows)):
            assert len(g_row) == len(w_row), (filename, i)
            for g, w in zip(g_row, w_row):
                assert cells_match(g, w), (filename, i, g, w)


def test_sparse_case_reaches_dead_end_check(tmp_path, monkeypatch):
    """Some route of the sparse case ends at the double stage's geometric check.

    The RIS grid (spacing r/2) gives every first surface here an adjacent
    one, so a dead end that drew no h_mid is one the check ended.
    """
    real_fading, real_fallback = channel.sample_fading, router.Router.ris_fallback
    hmid_draws, checked = [0], [0]

    def fading(n, k, rng):
        hmid_draws[0] += not isinstance(n, int)
        return real_fading(n, k, rng)

    def fallback(self, origin):
        before = hmid_draws[0]
        outcome = real_fallback(self, origin)
        checked[0] += outcome is router.FailureReason.DEAD_END_AFTER_DOUBLE_RIS and hmid_draws[0] == before
        return outcome

    monkeypatch.setattr(channel, "sample_fading", fading)
    monkeypatch.setattr(router.Router, "ris_fallback", fallback)
    outputs("coverage_sweep_sparse", tmp_path)
    assert checked[0] >= 1


def test_cell_comparison():
    assert cells_match("3", "3") and not cells_match("3", "4")
    assert cells_match("0.1", repr(0.1 * (1 + 1e-12)))
    assert not cells_match("0.1", repr(0.1 * (1 + 1e-6)))
    assert cells_match("S → U1 → D", "S → U1 → D") and not cells_match("", "0")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: outputs(name, Path(tmp) / name) for name in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {GOLDEN} ({sum(len(v) for v in golden.values())} CSVs)", file=sys.stderr)
