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
``--threads 1`` and ``2``, and seeds 5 and 9 (23 CSVs, 7 to 12 s on a
2-vCPU host).
"""

from __future__ import annotations

import argparse
import hashlib
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


def csv_hashes(root: Path, seed: int, args: list[str]) -> list[tuple[str, str]]:
    """(csv name, 12-hex sha256) of every CSV one command writes, by name."""
    env = {**os.environ, **{var: "1" for var in BLAS_VARS}, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "risroute.cli", *args, "--seed", str(seed), "--out", out, "--quiet"]
        subprocess.run(cmd, env=env, check=True)
        return [(p.name, hashlib.sha256(p.read_bytes()).hexdigest()[:12]) for p in sorted(Path(out).glob("*.csv"))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    if not (args.root / "src" / "risroute" / "cli.py").is_file():
        print(f"cli_hashes: no risroute sources under {args.root / 'src'}", file=sys.stderr)
        return 1
    for seed, cli_args in COMMANDS:
        for name, digest in csv_hashes(args.root.resolve(), seed, cli_args):
            print(f"{seed} {' '.join(cli_args):<45} {name:<24} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
