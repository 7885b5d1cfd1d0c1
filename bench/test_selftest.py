"""Self-test of the benchmark at small sizes.

    python3 -m pytest -q bench

Runs every workload once through the command line, checks that every
metric named in BENCHMARK.json comes out with its unit, that the trace
wrappers put the original functions back, that corrupted outputs and
ledgers are reported as failed, and that output does not depend on the
BLAS thread count.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import env

env.prepare()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from risroute import experiments  # noqa: E402
from risroute.config import SimConfig  # noqa: E402

BENCH = Path(__file__).resolve().parent
BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def run_tiny(name, out, replications=1):
    plan = workloads.WORKLOADS[name].plan(workloads.call_seed(1, 0), replications=replications)
    experiments.run(plan, SimConfig(), out)
    return plan


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_cli_emits_every_metric_with_its_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    calls = 2 if trace else workloads.ROUNDS  # one plan: untraced and traced, or every round
    assert result["attempted"] == workloads.expected_routes(workloads.WORKLOADS[name].plan(0)) * calls
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_cli_fails_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sparse-ris", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_trace_wrappers_restore_originals(tmp_path):
    targets = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS if owner is not None]
    before = [vars(owner)[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            run_tiny("mobile", tmp_path / "a")
            assert vars(experiments)["run"] is not before[0]
            raise RuntimeError("leave the traced block by an error")
    assert [vars(owner)[attr] for owner, attr in targets] == before
    assert tracer.missing == []
    names, duration, self_time = tracer.spans()
    assert names.size and (self_time >= -1e-9).all() and (self_time <= duration + 1e-12).all()


def _corrupt_detail(rows):
    ok = next(r for r in rows if r["success"] == "1")
    ok["D_T"] = "0.0"


def _corrupt_success_flag(rows):
    rows[0]["success"] = "2"


def _drop_row(rows):
    del rows[-1]


@pytest.mark.parametrize("corrupt", [_corrupt_detail, _corrupt_success_flag, _drop_row])
def test_corrupted_detail_row_is_failed(tmp_path, corrupt):
    plan = run_tiny("dense-relay", tmp_path, replications=3)
    expected = workloads.expected_routes(plan)
    assert checks.check_call(tmp_path, expected).failed == 0
    path = tmp_path / "coverage_detail.csv"
    rows = checks.read_csv(path)
    columns = list(rows[0])
    corrupt(rows)
    experiments.write_csv(path, columns, rows)
    assert checks.check_call(tmp_path, expected).failed >= 1


def test_summary_disagreeing_with_details_is_failed(tmp_path):
    plan = run_tiny("dense-relay", tmp_path, replications=3)
    path = tmp_path / "coverage_summary.csv"
    rows = checks.read_csv(path)
    rows[0]["dt_mean"] = repr(float(rows[0]["dt_mean"]) * 1.01)
    experiments.write_csv(path, list(rows[0]), rows)
    assert checks.check_call(tmp_path, workloads.expected_routes(plan)).failed == 3


def test_ledger_invariants():
    cfg = SimConfig(
        coverage_m=90.0, iu_count=900, source_xy=experiments.SWEEP_SOURCE, dest_xy=experiments.SWEEP_DEST)
    ledger = experiments.run_one_route(cfg, experiments.derive_rng(1, 0, 0))
    assert ledger.success and checks.ledger_problems(ledger, cfg) == []
    late = copy.deepcopy(ledger)
    late.total_slots = int(cfg.total_delay_s / cfg.slot_s) + 1
    short = copy.deepcopy(ledger)
    short.total_slots = 0
    backwards = copy.deepcopy(ledger)
    backwards.hops.reverse()
    for broken in (late, short, backwards):
        assert checks.ledger_problems(broken, cfg)


def test_reference_check_flags_a_shifted_distribution(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())["dense-relay"]
    run_tiny("dense-relay", tmp_path, replications=20)
    clusters = checks.check_call(tmp_path, 20).clusters
    assert checks.reference_problems(clusters, reference) == []
    halved = clusters.copy()
    halved[::2, 1:] = 0.0  # every other route fails
    assert checks.reference_problems(halved, reference)


def test_output_does_not_depend_on_blas_threads(tmp_path):
    snippet = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import env; env.prepare(int(sys.argv[2]));"
        "import checks, workloads; from pathlib import Path; from risroute import experiments;"
        "from risroute.config import SimConfig; out = Path(sys.argv[3]);"
        "experiments.run(workloads.WORKLOADS['compare-pool'].plan(7, replications=2), SimConfig(), out);"
        "print(json.dumps({p.name: checks.sha256(p) for p in sorted(out.glob('*.csv'))}))"
    )
    hashes = []
    for threads in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", snippet, str(BENCH), str(threads), str(tmp_path / str(threads))],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(json.loads(proc.stdout))
    assert hashes[0] == hashes[1] and hashes[0]
