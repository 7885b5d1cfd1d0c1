"""Golden outputs: today's numbers for every experiment kind, pinned.

Each case runs ``experiments.run`` at a small size and compares every CSV
it writes against the rows stored in ``golden.json`` next to this file:
integers and strings must match exactly, floats to a relative 1e-9.
The file also records the ``experiments.STREAM_VERSION`` it was written at
(a file without one is version 1). Rows may move only with that version:
a change that moves a random draw bumps it and regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md; any other change must keep the rows.
"""

import csv
import json
import math
import sys
from pathlib import Path
from unittest import mock

import pytest

from risroute import experiments, router
from risroute.config import SimConfig
from risroute.experiments import STREAM_VERSION, ExperimentPlan, run

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
        ExperimentPlan(kind="traffic_validation", seed=5),
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


# constants of ``experiments`` a case runs at in place of their values: the traffic case draws fewer chains
CONSTANTS = {"traffic_validation": {"CHAINS": 2000, "BATCHES": 4}}


def read_rows(path: Path) -> list[list[str]]:
    """A CSV's rows as lists of cells; a ``#`` comment line is one cell."""
    with open(path, newline="") as fh:
        return [[line.rstrip("\n")] if line.startswith("#") else next(csv.reader([line]))
                for line in fh]


def outputs(name: str, out: Path) -> dict[str, list[list[str]]]:
    plan, cfg = CASES[name]
    with mock.patch.dict(vars(experiments), CONSTANTS.get(name, {})):
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


def first_difference(got: dict, expected: dict) -> str | None:
    """Where the CSVs ``got`` first differ from the ``expected`` rows, or None."""
    if sorted(got) != sorted(expected):
        return f"CSVs {sorted(got)}, expected {sorted(expected)}"
    for filename, rows in expected.items():
        if len(got[filename]) != len(rows):
            return f"{filename}: {len(got[filename])} rows, expected {len(rows)}"
        for i, (g_row, w_row) in enumerate(zip(got[filename], rows)):
            if len(g_row) != len(w_row) or not all(map(cells_match, g_row, w_row)):
                return f"{filename} row {i}: {g_row}, expected {w_row}"
    return None


def written_version(golden: dict) -> int:
    """The stream version ``golden`` was written at; a file from before the versions is 1."""
    return golden.get("stream_version", 1)


def why_moved(written: int) -> str:
    if written != STREAM_VERSION:
        return f"golden.json was written at stream version {written}, the code is at {STREAM_VERSION}"
    return (f"the rows moved but experiments.STREAM_VERSION did not (both {written}): a change that "
            "moves a draw bumps it and regenerates golden.json, any other change keeps the rows")


def test_golden_written_at_the_code_stream_version():
    written = written_version(json.loads(GOLDEN.read_text()))
    assert written == STREAM_VERSION, why_moved(written) + "; regenerate it (module docstring)"


def test_move_explained_by_the_version():
    assert "rows moved but" in why_moved(STREAM_VERSION)
    assert f"written at stream version {STREAM_VERSION - 1}," in why_moved(STREAM_VERSION - 1)
    assert written_version({}) == 1 and written_version({"stream_version": 7}) == 7


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    moved = first_difference(outputs(name, tmp_path), golden[name])
    if moved is not None:
        pytest.fail(f"{moved}; {why_moved(written_version(golden))}")


def test_sparse_case_reaches_dead_end_check(tmp_path, monkeypatch):
    """Some route of the sparse case ends at the double stage's geometric check.

    A reflector stage observes traffic once in its single stage
    (``_split_idle_busy``), and once more in the double stage, after the
    check. The RIS grid (spacing r/2) gives every first surface here an
    adjacent one, so a dead end with no further observation is one the check
    ended, before any observation or draw of its own.
    """
    real_observe, real_fallback = router.Router._split_idle_busy, router.Router.ris_fallback
    observed, checked = [0], [0]

    def observe(self, found):
        observed[0] += 1
        return real_observe(self, found)

    def fallback(self, origin, ledger):
        before, single = observed[0], int(self.policy.single)
        outcome = real_fallback(self, origin, ledger)
        checked[0] += outcome is router.FailureReason.DEAD_END_AFTER_DOUBLE_RIS and observed[0] - before == single
        return outcome

    monkeypatch.setattr(router.Router, "_split_idle_busy", observe)
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
        golden = {"stream_version": STREAM_VERSION, **{name: outputs(name, Path(tmp) / name) for name in CASES}}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {GOLDEN} ({sum(len(golden[name]) for name in CASES)} CSVs)", file=sys.stderr)
