import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from risroute.cli import BLAS_VARS, main


def write_cfg(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


class TestRouteCommand:
    def test_identical_trace_and_csv_across_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "demo.cfg", "iu_count = 120\ndelta = 0.3\n")
        assert main(["route", "--config", cfg, "--seed", "42", "--out", str(tmp_path / "a")]) == 0
        out_a = capsys.readouterr().out
        assert main(["route", "--config", cfg, "--seed", "42", "--out", str(tmp_path / "b")]) == 0
        out_b = capsys.readouterr().out
        assert out_a.splitlines()[0] == out_b.splitlines()[0]  # the hop trace
        assert (tmp_path / "a" / "route_0001.csv").read_bytes() == \
               (tmp_path / "b" / "route_0001.csv").read_bytes()

    def test_summary_line_contents(self, tmp_path, capsys):
        assert main(["route", "--out", str(tmp_path / "r"), "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "routes attempted" in out
        assert "success rate" in out
        assert "route_0001.csv" in out

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        assert main(["route", "--out", str(tmp_path / "q"), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestConfigErrors:
    def test_missing_file_exit_1_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["route", "--config", str(missing), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "nope.cfg" in err

    def test_unknown_key_exit_1_names_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg", "coverge_m = 60\n")
        assert main(["route", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "coverge_m" in err

    def test_bad_value_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad2.cfg", "delta = 1.5\n")
        assert main(["route", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "delta" in capsys.readouterr().err


class TestRejectedBeforeAnyRoute:
    @pytest.mark.parametrize("args,count,iu_count,message", [
        # the density grid overrides iu_count, so a per-IU list cannot be swept
        (["sweep-coverage", "--replications", "1"], 120, 120, "has 120 per-IU values but iu_count is 100"),
        (["route"], 3, 400, "has 3 per-IU values but iu_count is 400"),
        (["validate-traffic"], 120, 120, "scalar lambda_off_ms"),
    ])
    def test_per_iu_list_is_config_error(self, tmp_path, capsys, args, count, iu_count, message):
        values = ", ".join(repr(0.8 + 0.01 * j) for j in range(count))
        cfg = write_cfg(tmp_path / "per_iu.cfg", f"iu_count = {iu_count}\nlambda_off_ms = {values}\n")
        assert main(args + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "lambda_off_ms" in err and message in err
        assert "Traceback" not in err
        assert not any(p.suffix == ".csv" for p in (tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("args,text", [
        # each used to exit 0, or 2 with a traceback once a route reached the bad value
        (["route"], "blocklength = 0"),
        (["sweep-coverage", "--replications", "1"], "blocklength = 0"),
        (["sweep-coverage", "--replications", "1"], "mh_mw = 0"),
        (["route"], "ris_spacing_m = -1"),
        (["route"], "source_xy = 100, 100\ndest_xy = 100, 100"),
        (["route"], "source_xy = 500, 100"),
        (["route"], "source_xy = 5"),
        # the sweeps' fixed endpoint (380, 200) falls outside
        (["sweep-coverage", "--replications", "1"], "arena_m = 300"),
        # linear values that overflow or reach 0 (OverflowError or ZeroDivisionError mid-run)
        (["route"], "rician_k_db = 4000"),
        (["route"], "tx_power_dbm = 4000"),
        (["route"], "rho_l_db = 4000"),
        (["route"], "noise_dbm = -4000"),
        # raised in the metrics, after the sweep's routes had run
        (["sweep-coverage", "--replications", "1"], "proc_power_dbm = 4000"),
        # a destination on a reflector: the scan centred on it raised ValueError
        (["route", "--replications", "2", "--seed", "3"],
         "dest_xy = 382.5, 382.5\nsource_xy = 360, 382.5\ncoverage_m = 30\niu_count = 0\nnoise_dbm = -60"),
        # outside the physical link-budget ranges: OverflowError, a NaN rate, or a gain growing with distance
        *((["route", "--replications", "2", "--seed", "3"], f"{value}\ncoverage_m = 30\niu_count = 100")
          for value in ("rho_l_db = 3000", "noise_dbm = -3000", "tx_power_dbm = 3000",
                        "alpha_d2d = -50", "alpha_other = -5")),
        # an exponent above 10: d ** -alpha overflowed for a link shorter than 1 m
        (["sweep-density", "--replications", "10", "--seed", "3"], "alpha_d2d = 2000"),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, args, text):
        cfg = write_cfg(tmp_path / "bad.cfg", text + "\n")
        assert main(args + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and text.split()[0] in err and "Traceback" not in err

    @pytest.mark.parametrize("name,data,message", [
        ("broken.json", b'{"iu_count": ', "broken.json: not valid JSON"),
        ("array.json", b"[1, 2]", "array.json: expected a JSON object, got list"),
        ("latin1.cfg", b"\xff\xfeiu_count = 5\n", "latin1.cfg: not UTF-8 text"),
    ], ids=["bad-json", "json-array", "not-utf8"])
    def test_bad_config_file_is_config_error(self, tmp_path, capsys, name, data, message):
        # each used to raise out of main
        (tmp_path / name).write_bytes(data)
        assert main(["route", "--config", str(tmp_path / name), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["mobility", "--threads", "0", "--replications", "1"],
        ["sweep-coverage", "--threads", "-2", "--replications", "1"],
        ["route", "--replications", "0"],
    ])
    def test_bad_plan_flag_is_config_error(self, tmp_path, capsys, args):
        assert main(args + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_replications_on_validate_traffic_is_usage_error(self, tmp_path, capsys):
        # validate-traffic runs Monte Carlo chains, so it offers no --replications flag
        with pytest.raises(SystemExit) as exit_:
            main(["validate-traffic", "--seed", "5", "--replications", "3", "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --replications 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("subcommand", ["route", "validate-traffic"])
    def test_threads_on_a_serial_subcommand_is_usage_error(self, tmp_path, capsys, subcommand):
        # only the four grid subcommands offer --threads
        with pytest.raises(SystemExit) as exit_:
            main([subcommand, "--threads", "0", "--out", str(tmp_path / "out")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --threads 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_each_subcommand_states_its_own_replications_default(self, capsys):
        for subcommand, default in (("route", 1), ("compare", 500), ("mobility", 500), ("sweep-density", 500)):
            with pytest.raises(SystemExit):
                main([subcommand, "--help"])
            help_ = " ".join(capsys.readouterr().out.split())
            assert re.search(r"--replications REPLICATIONS [^-]*\(default: (\d+)\)", help_)[1] == str(default)
        with pytest.raises(SystemExit):
            main(["validate-traffic", "--help"])
        assert "--replications" not in capsys.readouterr().out


class TestValidateTraffic:
    def test_emits_both_csvs_with_schema(self, tmp_path, capsys):
        assert main(["validate-traffic", "--out", str(tmp_path), "--quiet"]) == 0
        for name in ("nu_b.csv", "nu_i.csv"):
            header = (tmp_path / name).read_text().splitlines()[0]
            assert header == "xi,delta,analytic,mc_mean,mc_se"


class TestManifestReproduction:
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "base.cfg", "iu_count = 100\ndelta = 0.2\n")
        args = ["sweep-coverage", "--seed", "11", "--replications", "6"]
        assert main(args + ["--config", cfg, "--out", str(tmp_path / "one")]) == 0
        manifest = tmp_path / "one" / "manifest_coverage_sweep.json"
        assert manifest.exists()
        assert main(args + ["--config", str(manifest), "--out", str(tmp_path / "two")]) == 0
        for name in ("coverage_detail.csv", "coverage_summary.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        payload = json.loads(manifest.read_text())
        assert payload["config"]["iu_count"] == 100
        assert payload["plan"]["seed"] == 11


class TestBlasPinned:
    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # at seed 9 one double-reflection route at r=40 m writes a D_T differing in its last digits when
        # OpenBLAS splits the 250x250 alignment mat-vecs over two threads, unless the CLI pins one
        src = Path(__file__).resolve().parents[1] / "src"
        written = []
        for threads in ("1", "2"):
            blas = dict.fromkeys(BLAS_VARS, threads)
            out = tmp_path / threads
            cmd = [sys.executable, "-m", "risroute.cli", "compare", "--seed", "9", "--replications", "3",
                   "--out", str(out), "--quiet"]
            subprocess.run(cmd, env={**os.environ, **blas, "PYTHONPATH": str(src)}, check=True, timeout=300)
            written.append((out / "comparison_detail.csv").read_bytes())
        assert written[0] == written[1]


class TestNoScipy:
    def test_cli_and_experiments_never_load_scipy(self, tmp_path):
        # the simulator's only special function, Q^-1, comes from statistics.NormalDist (channel.q_inv)
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import sys\n"
            "import risroute.cli, risroute.experiments\n"
            f"assert risroute.cli.main(['route', '--replications', '2', '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True, check=True, timeout=300)
        assert run.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "route_0002.csv").exists()
