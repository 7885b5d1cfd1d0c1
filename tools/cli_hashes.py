"""Run the CLI reference command list and print each CSV's sha256.

Every command writes into a fresh temporary directory through
``python3 -m risroute.cli`` with the checkout's ``src/`` on the path and
BLAS/OpenMP pinned to one thread, so the bytes do not depend on the host's
core count. From the root of a checkout:

    python3 tools/cli_hashes.py                 # this checkout
    python3 tools/cli_hashes.py --root ../other # another checkout, same list

Each output line is ``<seed> <command> <csv name> <first 12 hex of sha256>``;
two checkouts produce the same output exactly when every CSV is
byte-identical. Hashes compare only between runs on one host at one numpy
SIMD level: float64 ``tan``, ``log2``, ``log10``, ``power``, ``exp`` and
``angle`` give other bits under AVX-512 than at numpy's x86-64 baseline
(``NPY_DISABLE_CPU_FEATURES`` set to every dispatch target), and there 16
of the 53 lines differ at stream version 8 (5 at version 7): every seed-5
``sweep-coverage``, ``sweep-density`` and ``compare`` CSV, serial and at
``--threads 2``, the seed-7 ``sweep-density`` CSVs under
``CHANNEL_CONFIG`` and the ``compare`` CSVs under ``HANDOFF_CONFIG``.
Each of those runs takes a double-reflection hop whose SINR differs in its
last bits between the two levels, so which lines differ moves with the
draws; the ``DECISION_CONFIG`` lines keep their bytes at both levels.
The list covers every subcommand, and seeds 5 and 9 at
the default config. At seed 5 every grid subcommand also runs at
``--threads 2``; those lines must show the hashes of its serial line, and
when one does not, the tool prints both commands' lines on stderr once every
line is printed and exits 1. The seed-5 ``compare`` lines end one
``single_ris`` route in ``dead_end_after_single_ris``: its single stage found
no hop, and the policy runs no double stage (the seed-7 ``compare`` lines
below end 2, 2 and 4 so, under ``CONFIG``, ``CHANNEL_CONFIG`` and
``HANDOFF_CONFIG``; no line ends a route of another policy so). Then
``route``, ``compare`` and ``mobility`` run at seed 7 with ``--config`` set
to ``CONFIG``, written to a JSON file: per-IU OFF means, fixed endpoints
(read by ``route``; the grid kinds pin their own) and 2-packet transfers. 16 bits make equal-slot modes (4 slots for b = 4
and 5, 3 for b = 6 and 7), so these lines also cover the relay's choice
among them and the throughput's 2**b term. The sweeps set ``iu_count``
per grid point and refuse per-IU lists, so they run at the default only.
Then ``mobility`` runs at seed 7 with ``ARRIVAL_CONFIG``: 0.1 s slots and
a 50 s budget, so the walk's IUs reach their waypoints mid-route and the
lines cover its per-arrival loop, which no route at the default slot
meets; 3 of its routes end in ``outage``, an IU endpoint having walked out
of coverage by its transfer's end, the only line where any route does.
Then ``route``, ``sweep-density`` and ``compare`` run at seed 7 with
``CHANNEL_CONFIG``, which sets keys no line before it does: the ``eqtext``
threshold rule, a 45 m reflector spacing, 4-bit fixed modulation (read by
``compare``'s ``fixed_mod``) and Rician K = 3 dB. Its ``sweep-density``
and ``compare`` lines end routes in ``no_iu_no_ris``, with neither an IU
nor a surface in sight, the only lines where any route does. Then
``sweep-density`` runs at seed 7 with ``SPACING_CONFIG``, a reflector
every 10 m: its 1600 surfaces get a cell index at r = 30 m and none at 45
and 60 m, so their scans take the array path, which no other line's
static surfaces do.
Then ``compare`` runs at seed 7 with ``HANDOFF_CONFIG``, 2 ms mean OFF
periods: an IU's idle window shrinks to 2.1 slots, which no relay hop and
few single reflections fit, so routes leave the single stage with the
first surface's ``h_in`` drawn and take double hops on it, a hand-off no
line before it meets. Then ``sweep-coverage`` runs at seed 7 with
``DELAY_CONFIG``, a 5 ms budget, where some transfers would overrun it and
end their routes in ``delay_exceeded``, which no route at the default
50 ms does. All of them end at the transfer's overrun check; so, last,
``mobility`` runs at seed 7 with ``DECISION_CONFIG``, a 2 ms budget,
where routes also end in ``delay_exceeded`` at the reflector decision
slot, moving and static ones, which leaves the clock past the budget.
So every failure reason ends a route on some line. Routes reach a relay
at or past the nominal hop span, whose delay limit is pinned to the
route's remaining budget, on the seed-5 sweep lines, the seed-9
``compare`` and the ``CHANNEL_CONFIG`` ``sweep-density`` line.
53 CSVs, about 9 s on a 2-vCPU host at either SIMD level.
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
    (5, ["compare", "--replications", "2", "--threads", "2"]),
    (5, ["mobility", "--replications", "3"]),
    (5, ["mobility", "--replications", "3", "--threads", "2"]),
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
# slot, budget and traffic means 1000x the default's, so a mobile route lasts seconds of walk
ARRIVAL_CONFIG = {"slot_us": 100000.0, "total_delay_ms": 50000.0, "lambda_off_ms": 4000.0, "mu_on_ms": 4000.0}
ARRIVAL_COMMANDS = ((7, ["mobility", "--replications", "6"]),)
# the other threshold rule, a fixed reflector spacing, 4-bit fixed modulation and a weak line of sight
CHANNEL_CONFIG = {"threshold_rule": "eqtext", "ris_spacing_m": 45.0, "fixed_rate_bits": 4, "rician_k_db": 3.0}
CHANNEL_COMMANDS = (
    (7, ["route", "--replications", "4"]),
    (7, ["sweep-density", "--replications", "2"]),
    (7, ["compare", "--replications", "2"]),
)
# a reflector every 10 m: the sweep scans its 1600 surfaces through a cell index at r = 30 m and on the
# array path at r = 45 and 60 m
SPACING_CONFIG = {"ris_spacing_m": 10.0}
SPACING_COMMANDS = ((7, ["sweep-density", "--replications", "2"]),)
# idle windows of 2.1 slots: hops go by reflection, double hops on the h_in the single stage drew
HANDOFF_CONFIG = {"lambda_off_ms": 2.0}
HANDOFF_COMMANDS = ((7, ["compare", "--replications", "2"]),)
# a budget tight enough that some routes end in delay_exceeded
DELAY_CONFIG = {"total_delay_ms": 5.0}
DELAY_COMMANDS = ((7, ["sweep-coverage", "--replications", "2"]),)
# a budget so tight that routes also end in delay_exceeded at the reflector decision slot
DECISION_CONFIG = {"total_delay_ms": 2.0}
DECISION_COMMANDS = ((7, ["mobility", "--replications", "2"]),)

# (label after the command in each output line, config or None, commands), in output order
RUNS = (
    ("", None, COMMANDS),
    (" --config", CONFIG, CONFIG_COMMANDS),
    (" --config arrivals", ARRIVAL_CONFIG, ARRIVAL_COMMANDS),
    (" --config channel", CHANNEL_CONFIG, CHANNEL_COMMANDS),
    (" --config spacing", SPACING_CONFIG, SPACING_COMMANDS),
    (" --config handoff", HANDOFF_CONFIG, HANDOFF_COMMANDS),
    (" --config delay", DELAY_CONFIG, DELAY_COMMANDS),
    (" --config decision", DECISION_CONFIG, DECISION_COMMANDS),
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
    serial, pooled = {}, []  # keyed by seed, label and the arguments but --threads: (hashes, lines)
    for label, config, commands in RUNS:
        for seed, cli_args in commands:
            command = " ".join(cli_args) + label
            hashes = csv_hashes(args.root.resolve(), seed, cli_args, config)
            lines = [f"{seed} {command:<45} {name:<24} {digest}" for name, digest in hashes]
            for line in lines:
                print(line, flush=True)
            at = cli_args.index("--threads") if "--threads" in cli_args else len(cli_args)
            key = (seed, label, *cli_args[:at], *cli_args[at + 2:])
            if cli_args[at + 1:at + 2] == ["2"]:
                pooled.append((key, hashes, lines))
            else:
                serial[key] = (hashes, lines)
    differ = [serial[key][1] + lines for key, hashes, lines in pooled if key in serial and serial[key][0] != hashes]
    for pair in differ:
        print("cli_hashes: a --threads 2 line does not show its serial line's hashes:", *pair, sep="\n  ",
              file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
