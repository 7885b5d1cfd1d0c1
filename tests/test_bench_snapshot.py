import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"
spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)


def write_record(results: Path, workload: str, seed: int, trace: int = 0, routes_per_s: float = 50.0):
    record = {
        "correct": True,
        "metrics": {"routes_per_s": {"value": routes_per_s, "unit": "1/s"}},
        "provenance": {"workload": workload, "seed": seed, "trace": trace, "git_sha": None},
    }
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
    return record


def test_merges_records_with_provenance(tmp_path):
    a = write_record(tmp_path, "sparse-ris", 11, routes_per_s=90.0)
    b = write_record(tmp_path, "mobile", 11, routes_per_s=270.0)
    write_record(tmp_path, "mobile", 12)  # another run, left out
    merged = bench_snapshot.snapshot(tmp_path, 11, ["sparse-ris", "mobile"])
    assert merged["records"] == {"sparse-ris": a, "mobile": b}
    assert merged["end_to_end"] == {"sparse-ris": {"routes_per_s": 90.0}, "mobile": {"routes_per_s": 270.0}}
    assert merged["seed"] == 11


def test_missing_workload_is_an_error(tmp_path):
    write_record(tmp_path, "sparse-ris", 11)
    with pytest.raises(ValueError, match="no record"):
        bench_snapshot.snapshot(tmp_path, 11, ["sparse-ris", "mobile"])


def test_record_of_another_run_is_an_error(tmp_path):
    record = write_record(tmp_path, "sparse-ris", 11)
    record["provenance"]["seed"] = 12  # renamed from another seed's file
    (tmp_path / "sparse-ris-seed11-trace0.json").write_text(json.dumps(record))
    with pytest.raises(ValueError, match="not an untraced"):
        bench_snapshot.snapshot(tmp_path, 11, ["sparse-ris"])
