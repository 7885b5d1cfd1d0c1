import importlib.util
import re
from pathlib import Path

from risroute.cli import build_parser

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_hashes.py"
spec = importlib.util.spec_from_file_location("cli_hashes", TOOL)
cli_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_hashes)


def test_every_command_parses():
    for seed, args in cli_hashes.COMMANDS:
        build_parser().parse_args([*args, "--seed", str(seed)])


def test_hashes_each_csv_by_name():
    out = cli_hashes.csv_hashes(cli_hashes.ROOT, 5, ["route", "--replications", "2"])
    assert [name for name, _ in out] == ["route_0001.csv", "route_0002.csv"]
    assert all(re.fullmatch("[0-9a-f]{12}", digest) for _, digest in out)


def test_refuses_a_checkout_without_sources(tmp_path, capsys):
    assert cli_hashes.main(["--root", str(tmp_path)]) == 1
    assert "no risroute sources" in capsys.readouterr().err
