"""Run the CLI reference command list and print each CSV's sha256.

Every command writes into a fresh temporary directory through
``python3 -m risroute.cli`` with the checkout's ``src/`` on the path and
BLAS/OpenMP pinned to one thread, so the bytes do not depend on the host's
core count. From the root of a checkout:

    python3 tools/cli_hashes.py                 # this checkout
    python3 tools/cli_hashes.py --root ../other # another checkout, same list

Each output line is ``<seed> <command> <csv name> <first 12 hex of sha256>``;
two checkouts produce the same output exactly when every CSV is
byte-identical. The list covers every subcommand, both sweeps at
``--threads 1`` and ``2``, and seeds 5 and 9 at the default config. Then
``route``, ``compare`` and ``mobility`` run at seed 7 with ``--config`` set
to ``CONFIG``, written to a JSON file: per-IU OFF means, fixed endpoints
(read by ``route``; the grid kinds pin their own) and 2-packet transfers. 16 bits make equal-slot modes (4 slots for b = 4
and 5, 3 for b = 6 and 7), so these lines also cover the relay's choice
among them and the throughput's 2**b term. The sweeps set ``iu_count``
per grid point and refuse per-IU lists, so they run at the default only.
31 CSVs, 11 to 15 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (seed, CLI arguments after the subcommand's name)
COMMANDS = (
    (5, ["route", "--replications", "3"]),
    (5, ["sweep-coverage", "--replications", "2", "--threads", "1"]),
    (5, ["sweep-coverage", "--replications", "2", "--threads", "2"]),
    (5, ["sweep-density", "--replications", "2", "--threads", "1"]),
    (5, ["sweep-density", "--replications", "2", "--threads", "2"]),
    (5, ["compare", "--replications", "2"]),
    (5, ["mobility", "--replications", "3"]),
    (5, ["validate-traffic"]),
    (9, ["mobility", "--replications", "25"]),
    (9, ["compare", "--replications", "6"]),
    (9, ["sweep-coverage", "--replications", "6", "--threads", "2"]),
)

CONFIG = {
    "iu_count": 150,
    "lambda_off_ms": [2.0 + i % 7 for i in range(150)],  # 2 to 8 ms, one mean per IU
    "source_xy": [30.0, 70.0],
    "dest_xy": [370.0, 340.0],
    "packets": 2,
}
CONFIG_COMMANDS = (
    (7, ["route", "--replications", "4"]),
    (7, ["compare", "--replications", "2"]),
    (7, ["mobility", "--replications", "6"]),
)


def csv_hashes(root: Path, seed: int, args: list[str], config: dict | None = None) -> list[tuple[str, str]]:
    """(csv name, 12-hex sha256) of every CSV one command writes, by name; ``config``, when
    given, is written to a JSON file passed as ``--config``."""
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cmd = [sys.executable, "-m", "risroute.cli", *args, "--seed", str(seed), "--out", str(out), "--quiet"]
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            cmd += ["--config", str(path)]
        subprocess.run(cmd, env=env, check=True)
        return [(p.name, hashlib.sha256(p.read_bytes()).hexdigest()[:12]) for p in sorted(out.glob("*.csv"))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    if not (args.root / "src" / "risroute" / "cli.py").is_file():
        print(f"cli_hashes: no risroute sources under {args.root / 'src'}", file=sys.stderr)
        return 1
    runs = [(seed, cli_args, None) for seed, cli_args in COMMANDS]
    runs += [(seed, cli_args, CONFIG) for seed, cli_args in CONFIG_COMMANDS]
    for seed, cli_args, config in runs:
        command = " ".join(cli_args) + (" --config" if config else "")
        for name, digest in csv_hashes(args.root.resolve(), seed, cli_args, config):
            print(f"{seed} {command:<45} {name:<24} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
