import importlib.util
import json
import re
from pathlib import Path

from risroute.cli import build_parser
from risroute.config import load_config
from risroute.linkbudget import transfer_slots

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_hashes.py"
spec = importlib.util.spec_from_file_location("cli_hashes", TOOL)
cli_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_hashes)


def test_every_command_parses():
    for seed, args in cli_hashes.COMMANDS:
        build_parser().parse_args([*args, "--seed", str(seed)])


def test_config_runs_cover_per_iu_means_fixed_endpoints_and_equal_slot_modes(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cli_hashes.CONFIG))
    cfg = load_config(path)
    assert len(cfg.lambda_off_ms) == cfg.iu_count and len(set(cfg.lambda_off_ms)) > 1
    assert cfg.source_xy is not None and cfg.dest_xy is not None
    assert [transfer_slots(cfg.total_bits, b) for b in (4, 5, 6, 7)] == [4, 4, 3, 3]
    assert sorted(args[0] for _, args in cli_hashes.CONFIG_COMMANDS) == ["compare", "mobility", "route"]
    for seed, args in cli_hashes.CONFIG_COMMANDS:
        build_parser().parse_args([*args, "--seed", str(seed), "--config", str(path)])


def test_hashes_each_csv_by_name():
    out = cli_hashes.csv_hashes(cli_hashes.ROOT, 5, ["route", "--replications", "2"])
    assert [name for name, _ in out] == ["route_0001.csv", "route_0002.csv"]
    assert all(re.fullmatch("[0-9a-f]{12}", digest) for _, digest in out)
    with_config = cli_hashes.csv_hashes(cli_hashes.ROOT, 5, ["route", "--replications", "2"], cli_hashes.CONFIG)
    assert [name for name, _ in with_config] == ["route_0001.csv", "route_0002.csv"]
    assert with_config != out


def test_refuses_a_checkout_without_sources(tmp_path, capsys):
    assert cli_hashes.main(["--root", str(tmp_path)]) == 1
    assert "no risroute sources" in capsys.readouterr().err
