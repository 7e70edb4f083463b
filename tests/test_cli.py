import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatadapt.cli import (
    _SIM_FLAGS, SCENARIOS, RunManifest, UsageError, main, parse_args, read_trace_csv,
)


def run_cli(*args):
    return main(list(args))


#: a non-default value for every simulate flag, as typed on the command line
FLAG_SAMPLES = {
    "scenario": "track", "q": "3.5", "b": "-4", "c0": "4", "c1": "6", "dx": "0.05",
    "dt": "2e-4", "t-final": "0.5", "ref": "sin:1,1", "zeta0": "-0.1", "init": "zero",
    "u0": "exp-decay", "pe-tau": "0.25", "pe-threshold": "0.01", "modes": "8",
    "servo-j": "6", "sample-stride": "10", "snapshot-stride": "5", "out": "elsewhere",
}


class TestParseArgs:
    def test_simulate_defaults_are_benchmark_setup(self):
        command, cfg = parse_args(["simulate", "--scenario", "stabilize"])
        assert command == "simulate"
        assert cfg["q"] == 2.0 and cfg["b"] == -10.0
        assert cfg["c0"] == 5.0 and cfg["c1"] == 5.0
        assert cfg["dx"] == 0.02 and cfg["dt"] == 1e-4
        assert cfg["init"] == "paper" and cfg["zeta0"] == 0.0

    def test_track_reference_flag(self):
        _, cfg = parse_args(["simulate", "--scenario", "track", "--ref", "const:3"])
        assert cfg["ref"] == "const:3"

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "--scenario", "warp-drive"])

    def test_missing_command_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_config_file_layering(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("q = 3.5\nt-final = 0.5\n# comment\n\nc0 = 4\n")
        _, cfg = parse_args(["simulate", "--config", str(cfgfile), "--q", "4.5"])
        assert cfg["q"] == 4.5  # explicit flag wins
        assert cfg["t-final"] == 0.5
        assert cfg["c0"] == 4.0

    def test_config_file_unknown_key(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("qq = 3\n")
        with pytest.raises(UsageError):
            parse_args(["simulate", "--config", str(cfgfile)])

    @pytest.mark.parametrize("name", [flag.name for flag in _SIM_FLAGS])
    def test_flag_and_config_key_agree(self, tmp_path, name):
        value = FLAG_SAMPLES[name]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{name} = {value}\n")
        _, from_flag = parse_args(["simulate", f"--{name}", value])
        _, from_file = parse_args(["simulate", "--config", str(cfgfile)])
        _, defaults = parse_args(["simulate"])
        assert from_file == from_flag
        assert from_file[name] != defaults[name]

    def test_config_value_outside_choices_exits_64(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("scenario = warp-drive\n")
        assert run_cli("simulate", "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"heatadapt: {cfgfile}:1: ")
        assert all(repr(s) in err for s in SCENARIOS)

    def test_sweep_values(self):
        _, cfg = parse_args(
            ["sweep", "--scenario", "open-loop", "--param", "q", "--values", "0.5,2"]
        )
        assert cfg["param"] == "q"
        assert cfg["values"] == [0.5, 2.0]


class TestExitCodes:
    def test_cfl_violation_exits_2(self, tmp_path):
        code = run_cli(
            "simulate", "--scenario", "stabilize",
            "--dt", "0.0005", "--dx", "0.02",
            "--t-final", "0.1", "--out", str(tmp_path),
        )
        assert code == 2

    def test_usage_error_exits_64(self, tmp_path):
        assert run_cli("simulate", "--ref", "tri:1", "--scenario", "track",
                       "--t-final", "0.1", "--out", str(tmp_path)) == 64

    def test_horizon_not_whole_steps_exits_64(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "open-loop", "--t-final", "0.00015",
                       "--dt", "1e-4", "--pe-tau", "1e-4", "--out", str(out)) == 64
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, content",
        [("--config", None), ("--init", "0.1\nabc\n")],
        ids=["missing-config", "non-numeric-init"],
    )
    def test_unreadable_input_file_exits_64(self, tmp_path, capsys, flag, content):
        path = tmp_path / "input.txt"
        if content is not None:
            path.write_text(content)
        value = str(path) if flag == "--config" else f"file:{path}"
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "open-loop", "--t-final", "0.1",
                       "--pe-tau", "0.1", flag, value, "--out", str(out)) == 64
        assert capsys.readouterr().err.startswith("heatadapt: cannot read ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze", "sweep"])
    def test_out_naming_a_file_exits_64(self, tmp_path, capsys, command):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,u0,u,zeta,w0,w1,wnorm,obs_err_norm,E,F\n0,0,0,0,0,0,0,0,0,0\n")
        path = tmp_path / "file"
        path.write_text("kept\n")
        run = ["--scenario", "open-loop", "--t-final", "0.1", "--pe-tau", "0.1"]
        argv = {
            "simulate": ["simulate", *run],
            "analyze": ["analyze", "--trace", str(trace)],
            "sweep": ["sweep", *run, "--param", "q", "--values", "1,2"],
        }[command]
        assert run_cli(*argv, "--out", str(path)) == 64
        captured = capsys.readouterr()
        assert captured.err == (
            f"heatadapt: cannot create output directory {str(path)!r}: "
            f"[Errno 17] File exists: {str(path)!r}\n"
        )
        assert captured.out == ""
        assert path.read_text() == "kept\n"

    def test_empty_init_file_prints_one_line(self, tmp_path):
        # numpy warns on an empty file; only the heatadapt message may reach stderr
        profile = tmp_path / "empty.txt"
        profile.write_text("")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "heatadapt.cli", "simulate", "--scenario", "open-loop",
             "--t-final", "0.1", "--pe-tau", "0.1", "--init", f"file:{profile}",
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 64
        assert proc.stderr == f"heatadapt: init file {str(profile)!r} has 0 values, grid needs 51\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("scenario", ["observer", "error-system"])
    @pytest.mark.parametrize("u0", ["const:inf", "const:nan", "const:1e308"])
    def test_non_finite_boundary_flux_exits_64(self, tmp_path, capsys, scenario, u0):
        code = run_cli("simulate", "--scenario", scenario, "--u0", u0, "--t-final", "0.01",
                       "--pe-tau", "0.01", "--out", str(tmp_path))
        assert code == 64
        assert capsys.readouterr().err == "heatadapt: boundary fluxes must be finite\n"

    def test_blow_up_exits_3(self, tmp_path):
        code = run_cli(
            "simulate", "--scenario", "open-loop", "--q", "9",
            "--t-final", "1", "--pe-tau", "0.5", "--out", str(tmp_path),
        )
        assert code == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["verdicts"]["blown_up"] is True

    def test_unsettled_run_with_gate_exits_4(self, tmp_path):
        code = run_cli(
            "simulate", "--scenario", "stabilize", "--t-final", "2",
            "--out", str(tmp_path), "--require-converged",
        )
        assert code == 4


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("stab")
    code = run_cli(
        "simulate", "--scenario", "stabilize",
        "--t-final", "0.5", "--pe-tau", "0.25", "--out", str(out),
    )
    assert code == 0
    return out


class TestSimulateOutputs:
    def test_files_exist(self, run_dir):
        assert (run_dir / "trace.csv").exists()
        assert (run_dir / "manifest.json").exists()

    def test_trace_header(self, run_dir):
        first = (run_dir / "trace.csv").read_text().splitlines()[0]
        assert first == "t,u0,u,zeta,w0,w1,wnorm,obs_err_norm,E,F"

    def test_newlines_are_lf(self, run_dir):
        raw = (run_dir / "trace.csv").read_bytes()
        assert b"\r" not in raw

    def test_roundtrip_is_bit_exact(self, run_dir):
        times, cols = read_trace_csv(run_dir / "trace.csv")
        assert times.size == 51  # 0.5s at dt=1e-4, sampled every 100 steps
        # re-serialize and compare bytes
        from heatadapt.cli import _fmt

        lines = ["t," + ",".join(cols.keys())]
        for i in range(times.size):
            lines.append(
                ",".join([_fmt(times[i])] + [_fmt(cols[c][i]) for c in cols])
            )
        assert ("\n".join(lines) + "\n").encode() == (run_dir / "trace.csv").read_bytes()

    def test_manifest_roundtrips(self, run_dir):
        raw = json.loads((run_dir / "manifest.json").read_text())
        again = RunManifest.from_dict(raw).to_dict()
        assert again == raw

    def test_manifest_content(self, run_dir):
        m = RunManifest.load(run_dir / "manifest.json")
        assert m.scenario == "stabilize"
        assert m.params["b"] == -10.0 and m.params["sign_b"] == -1
        assert m.config["n"] == 51
        assert m.verdicts["blown_up"] is False
        tol = m.verdicts["tolerances"]
        assert tol["zeta_offset_over_settle_gap_min"] == 1e3
        # 0.5 s is too short to settle: the run exits 0, and the checks record
        # that it misses the stabilize tolerances
        checks = m.verdicts["tolerance_checks"]
        assert set(checks) == set(tol)
        quantities = m.verdicts["limits"]["quantities"]
        wnorm = checks["wnorm_final"]
        assert wnorm == {"value": quantities["wnorm"]["terminal"], "bound": 1e-2, "ok": False}
        assert wnorm["value"] > 0.5
        gap = checks["zeta_settle_gap"]
        assert gap["value"] == quantities["zeta"]["gap"] and gap["ok"] is False
        ratio = checks["zeta_offset_over_settle_gap_min"]
        offset = abs(quantities["zeta"]["terminal"] + 0.1)
        assert ratio["value"] == offset / gap["value"] and ratio["ok"] is False

    def test_determinism_byte_identical(self, run_dir, tmp_path):
        second = tmp_path / "again"
        code = run_cli(
            "simulate", "--scenario", "stabilize",
            "--t-final", "0.5", "--pe-tau", "0.25", "--out", str(second),
        )
        assert code == 0
        assert (second / "trace.csv").read_bytes() == (run_dir / "trace.csv").read_bytes()


class TestSimulateVariants:
    def test_snapshots_written_only_when_requested(self, tmp_path):
        out = tmp_path / "nosnap"
        run_cli("simulate", "--scenario", "open-loop", "--t-final", "0.1",
                "--pe-tau", "0.1", "--out", str(out))
        assert not (out / "snapshots.csv").exists()
        out2 = tmp_path / "snap"
        run_cli("simulate", "--scenario", "open-loop", "--t-final", "0.1",
                "--pe-tau", "0.1", "--snapshot-stride", "500", "--out", str(out2))
        snap = out2 / "snapshots.csv"
        assert snap.exists()
        assert snap.read_text().splitlines()[0] == "t,x,w,what"

    def test_init_from_file(self, tmp_path):
        profile = tmp_path / "w0.txt"
        profile.write_text("\n".join(["0.25"] * 51))
        out = tmp_path / "run"
        code = run_cli(
            "simulate", "--scenario", "open-loop", "--t-final", "0.1",
            "--pe-tau", "0.1", "--init", f"file:{profile}", "--out", str(out),
        )
        assert code == 0
        times, cols = read_trace_csv(out / "trace.csv")
        assert cols["w0"][0] == 0.25

    def test_init_file_wrong_length(self, tmp_path):
        profile = tmp_path / "w0.txt"
        profile.write_text("\n".join(["0.25"] * 50))
        assert run_cli(
            "simulate", "--scenario", "open-loop", "--t-final", "0.1",
            "--pe-tau", "0.1", "--init", f"file:{profile}", "--out", str(tmp_path / "o"),
        ) == 64

    def test_env_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HEATADAPT_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = run_cli("simulate", "--scenario", "open-loop",
                       "--t-final", "0.1", "--pe-tau", "0.1")
        assert code == 0
        assert (tmp_path / "envout" / "trace.csv").exists()

    def test_galerkin_scenario(self, tmp_path):
        out = tmp_path / "gal"
        code = run_cli(
            "simulate", "--scenario", "galerkin", "--modes", "16",
            "--dx", "0.005", "--dt", "1e-5",
            "--t-final", "0.05", "--pe-tau", "0.05",
            "--zeta0", "-0.1", "--u0", "exp-decay", "--out", str(out),
        )
        assert code == 0
        times, cols = read_trace_csv(out / "trace.csv")
        assert np.isfinite(cols["wnorm"]).all()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--scenario", "open-loop"],
            ["--scenario", "observer", "--u0", "const:1"],
            ["--scenario", "stabilize"],
            ["--scenario", "track", "--ref", "const:3"],
            ["--scenario", "error-system", "--u0", "exp-decay", "--zeta0", "-0.1"],
        ],
    )
    def test_every_grid_scenario_dispatches(self, tmp_path, extra):
        out = tmp_path / "run"
        code = run_cli("simulate", *extra, "--t-final", "0.1",
                       "--pe-tau", "0.1", "--out", str(out))
        assert code == 0
        assert (out / "trace.csv").exists()

    def test_fast_sinusoid_reference_flagged(self, tmp_path):
        # omega > 1 violates the uniform derivative bound; the run is still
        # permitted but the manifest carries the caveat
        out = tmp_path / "sin"
        code = run_cli(
            "simulate", "--scenario", "track", "--ref", "sin:0.5,2",
            "--t-final", "0.3", "--pe-tau", "0.2", "--out", str(out),
        )
        assert code == 0
        m = json.loads((out / "manifest.json").read_text())
        assert m["verdicts"]["reference_uniformly_bounded"] is False
        out2 = tmp_path / "slow"
        run_cli("simulate", "--scenario", "track", "--ref", "sin:0.5,1",
                "--t-final", "0.3", "--pe-tau", "0.2", "--out", str(out2))
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m2["verdicts"]["reference_uniformly_bounded"] is True


class TestAnalyze:
    def test_analyze_emitted_trace(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli("simulate", "--scenario", "stabilize", "--t-final", "2",
                "--out", str(out))
        code = run_cli(
            "analyze", "--trace", str(out / "trace.csv"),
            "--settle-window", "0.5", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["samples"] == 201  # 2 s at dt=1e-4, one row per 100 steps
        assert "pe_u0" in report and "limits" in report
        printed = capsys.readouterr().out
        assert '"pe_u0"' in printed

    @pytest.mark.parametrize(
        "content",
        [
            None,  # no file at the path
            "",
            "t,u0,zeta\n0,0,0\n1,0,0\n",
            "t,u0,u,zeta,w0,w1,wnorm,obs_err_norm,E,F\n0,0,0,0,0,0,0,0,0\n",
            "t,u0,u,zeta,w0,w1,wnorm,obs_err_norm,E,F\n0,0,0,0,0,0,0,0,0,x\n",
            b"\xff\xfe\x00",
        ],
        ids=["missing-path", "empty", "missing-columns", "ragged-row", "non-numeric", "binary"],
    )
    def test_bad_trace_exits_64(self, tmp_path, capsys, content):
        path = tmp_path / "trace.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        assert run_cli("analyze", "--trace", str(path)) == 64
        assert capsys.readouterr().err.startswith("heatadapt: ")


class TestSweep:
    def test_sweep_runs_each_value(self, tmp_path):
        out = tmp_path / "sw"
        code = run_cli(
            "sweep", "--scenario", "open-loop", "--param", "q",
            "--values", "0.5,2.0", "--t-final", "0.2", "--pe-tau", "0.1",
            "--out", str(out),
        )
        assert code == 0
        index = json.loads((out / "sweep.json").read_text())
        assert [r["value"] for r in index["runs"]] == [0.5, 2.0]
        for r in index["runs"]:
            assert Path(r["out"], "trace.csv").exists()
            assert r["exit_code"] == 0

    def test_sweep_close_values_get_own_directories(self, tmp_path):
        # both values print as 1 under %g; each run still gets its own directory
        out = tmp_path / "swc"
        code = run_cli(
            "sweep", "--scenario", "open-loop", "--param", "q",
            "--values", "1.0000001,1.0000002",
            "--t-final", "0.1", "--pe-tau", "0.1", "--out", str(out),
        )
        assert code == 0
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [Path(r["out"]).name for r in runs] == ["000-q=1.0000001", "001-q=1.0000002"]
        for r in runs:
            assert RunManifest.load(Path(r["out"], "manifest.json")).params["q"] == r["value"]

    def test_sweep_member_reports_its_error(self, tmp_path, capsys):
        # dx = 0.03 does not divide [0, 1]; the sweep goes on to dx = 0.05
        out = tmp_path / "swe"
        code = run_cli(
            "sweep", "--scenario", "open-loop", "--param", "dx",
            "--values", "0.03,0.05", "--t-final", "0.1", "--pe-tau", "0.1",
            "--out", str(out),
        )
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("heatadapt: ") and err.count("\n") == 1
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [64, 0]

    def test_sweep_rejects_duplicate_values(self, tmp_path):
        out = tmp_path / "swd"
        code = run_cli(
            "sweep", "--scenario", "open-loop", "--param", "q",
            "--values", "2,1.5,2.0", "--t-final", "0.1", "--pe-tau", "0.1",
            "--out", str(out),
        )
        assert code == 64
        assert not out.exists()
