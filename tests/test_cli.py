import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heatadapt import analysis, cli, domain, scenarios
from heatadapt.cli import (
    _SCENARIOS, _SIM_FLAGS, SCENARIOS, RunManifest, UsageError, _set_up, emit_trace, main,
    parse_args, read_trace_csv,
)
from heatadapt.csvformat import CHUNK_ROWS
from heatadapt.domain import TRACE_COLUMNS, ConfigError, Trace


def run_cli(*args):
    return main(list(args))


def run_python(*args):
    """Run a fresh interpreter that imports heatadapt from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_subprocess(*args):
    """Run the CLI in a fresh interpreter; numpy warnings would reach its stderr."""
    return run_python("-m", "heatadapt.cli", *args)


#: the CLI, its address space capped 1 GiB above what it holds once heatadapt
#: is imported, so that no array of a GiB or more fits
CAPPED_MAIN = """
import resource, sys
from heatadapt.cli import main
with open("/proc/self/statm") as f:
    cap = int(f.read().split()[0]) * resource.getpagesize() + (1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(sys.argv[1:]))
"""

#: the rest of the line after "heatadapt: cannot allocate N GiB"
ALLOCATION_HINT = "for the run's samples: raise --sample-stride or shorten --t-final"


def run_capped(*args):
    """Run the CLI in a fresh interpreter under :data:`CAPPED_MAIN`'s memory cap."""
    return run_python("-c", CAPPED_MAIN, *args)


def reference_csv(header, rows) -> bytes:
    """CSV bytes with every value printed by ``format(v, ".17g")``, LF newlines."""
    lines = [header] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def spike_profile(path, n=51):
    """n values with a 1e308, -1e308 pair: the first step overflows."""
    values = np.zeros(n)
    values[24], values[25] = 1e308, -1e308
    np.savetxt(path, values, fmt="%.17g")
    return f"file:{path}"


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

    @pytest.mark.parametrize("spec, reason", [
        ("tri:1", "bad reference 'tri:1'"),
        ("sin:1", "bad reference 'sin:1': expected sin:A,W"),
        ("sin:1,2,3", "bad reference 'sin:1,2,3': expected sin:A,W"),
        ("sin:1,x", "bad reference 'sin:1,x': could not convert string to float: 'x'"),
        ("const:", "bad reference 'const:': could not convert string to float: ''"),
    ])
    def test_bad_reference_exits_64_whatever_the_scenario(self, tmp_path, capsys, spec, reason):
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "stabilize", "--ref", spec,
                       "--out", str(out)) == 64
        assert capsys.readouterr().err == f"heatadapt: {reason}\n"
        assert not out.exists()

    def test_horizon_not_whole_steps_exits_64(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "open-loop", "--t-final", "0.00015",
                       "--dt", "1e-4", "--pe-tau", "1e-4", "--out", str(out)) == 64
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, reason",
        [("t-final", "nan", "t_final must be finite, got nan"),
         ("t-final", "inf", "t_final must be finite, got inf"),
         ("dx", "0", "dx must be > 0, got 0.0"),
         ("dx", "nan", "dx must be > 0, got nan"),
         ("pe-threshold", "inf", "pe_threshold must be finite, got inf"),
         ("q", "inf", "q must be finite, got inf"),
         ("zeta0", "nan", "zeta0 must be finite, got nan"),
         ("zeta0", "inf", "zeta0 must be finite, got inf")],
        ids=["nan", "inf", "dx-0", "dx-nan", "pe-threshold-inf", "q-inf", "zeta0-nan",
             "zeta0-inf"],
    )
    def test_bad_horizon_or_grid_exits_64(self, tmp_path, capsys, flag, value, reason):
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "open-loop", f"--{flag}", value,
                       "--out", str(out)) == 64
        assert capsys.readouterr().err == f"heatadapt: {reason}\n"
        assert not out.exists()
        # the same value from a config file
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag} = {value}\n")
        assert run_cli("simulate", "--scenario", "open-loop", "--config", str(config),
                       "--out", str(out)) == 64
        assert capsys.readouterr().err == f"heatadapt: {reason}\n"
        assert not out.exists()
        # as a sweep member, which reports it while the sweep goes on; a sweep
        # refuses a value that is not finite before any member runs
        good = {"dx": "0.05", "pe-threshold": "0.001", "q": "2"}.get(flag, "0.1")
        rest = [] if flag == "t-final" else ["--t-final", "0.1"]
        assert run_cli("sweep", "--scenario", "open-loop", "--param", flag,
                       "--values", f"{value},{good}", "--pe-tau", "0.1", *rest,
                       "--out", str(out)) == 64
        if not math.isfinite(float(value)):
            assert capsys.readouterr().err == (
                f"heatadapt: --values holds {float(value)!r}: every value must be finite\n")
            assert not out.exists()
            return
        assert capsys.readouterr().err == f"heatadapt: {reason}\n"
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [64, 0]

    @pytest.mark.parametrize("scenario, flag, value, reason", [
        ("stabilize", "dt", "5e-324", "t_final=5.0 holds more steps of dt=5e-324"),
        ("galerkin", "dt", "5e-324", "t_final=5.0 holds more steps of dt=5e-324"),
        ("stabilize", "dx", "5e-324", "dx=5e-324 gives more grid nodes"),
        ("stabilize", "t-final", "1e308", "t_final=1e+308 holds more steps of dt=0.0001"),
    ], ids=["dt", "galerkin-dt", "dx", "t-final"])
    def test_step_or_node_count_past_the_float_range_exits_64(self, tmp_path, capsys, scenario,
                                                               flag, value, reason):
        # t_final / dt or 1 / dx overflows to inf, which no count converts from
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", scenario, f"--{flag}", value,
                       "--out", str(out)) == 64
        assert capsys.readouterr().err == f"heatadapt: {reason} than a float can count\n"
        assert not out.exists()

    @pytest.mark.parametrize("b", ["5e-324", "-1e-309"])
    def test_b_without_a_finite_reciprocal_exits_64(self, tmp_path, capsys, b):
        # zeta estimates 1/b, which overflows: the run is refused before it starts
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "stabilize", f"--b={b}", "--out", str(out)) == 64
        assert capsys.readouterr().err == (
            f"heatadapt: b={float(b)!r} has no finite reciprocal 1/b, which zeta estimates\n")
        assert not out.exists()

    def test_sweep_member_past_the_float_range_exits_64(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenario", "stabilize", "--param", "t-final",
                       "--values", "0.1,1e308", "--pe-tau", "0.1", "--out", str(out)) == 64
        assert capsys.readouterr().err == (
            "heatadapt: t_final=1e+308 holds more steps of dt=0.0001 than a float can count\n")
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [0, 64]

    @pytest.mark.parametrize("scenario", ["track", "stabilize"])
    def test_servo_truncation_past_the_float_range_exits_64(self, tmp_path, capsys, scenario):
        # (2J + 3)! is past the float range from J = 84 on
        run = ["--scenario", scenario, "--ref", "sin:1,1", "--t-final", "0.2"]
        config = tmp_path / "run.cfg"
        config.write_text("servo-j = 84\n")
        out = tmp_path / "run"
        for source in (["--servo-j", "84"], ["--config", str(config)]):
            assert run_cli("simulate", *run, *source, "--out", str(out)) == 64
            err = capsys.readouterr().err
            assert err == "heatadapt: servo_truncation_J must be <= 83, got 84\n"
            assert not out.exists()

    def test_truncated_servo_series_exits_64(self, tmp_path, capsys):
        # the tail of sin t at J = 1 passes 1e-6 at the first step, which
        # the stencil takes again after the operator's block hands it over
        out = tmp_path / "run"
        assert run_cli("simulate", "--scenario", "track", "--ref", "sin:1,1", "--servo-j", "1",
                       "--t-final", "0.2", "--out", str(out)) == 64
        err = capsys.readouterr().err
        assert err == "heatadapt: servo boundary tail 8.333e-06 exceeds 1.000e-06 at J=1\n"

    @pytest.mark.parametrize("servo_j, reason", [
        (1, "servo boundary tail inf exceeds 1.000e-06 at J=1"),
        (3, "boundary fluxes must be finite"),
    ])
    def test_servo_weights_past_the_float_range_exit_64(self, tmp_path, servo_j, reason):
        # omega**2 overflows: the tail at t = 0, inf * sin 0, is NaN and
        # passes, so the run builds its operator from non-finite weights and
        # ends in the stencil's error, with no numpy warning on stderr
        proc = run_subprocess("simulate", "--scenario", "track", "--ref", "sin:1,1e160",
                              "--servo-j", str(servo_j), "--t-final", "0.01", "--pe-tau", "0.005",
                              "--out", str(tmp_path / "run"))
        assert (proc.returncode, proc.stderr) == (64, f"heatadapt: {reason}\n")

    def test_largest_servo_truncation_tracks(self, tmp_path):
        assert run_cli("simulate", "--scenario", "track", "--ref", "sin:1,1", "--servo-j", "83",
                       "--t-final", "0.2", "--out", str(tmp_path / "run")) == 0

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

    def test_a_directory_in_place_of_trace_csv_exits_64(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "trace.csv").mkdir(parents=True)
        assert run_cli("simulate", "--scenario", "stabilize", "--t-final", "0.1",
                       "--pe-tau", "0.1", "--out", str(out)) == 64
        err = capsys.readouterr().err
        assert err == (f"heatadapt: cannot write the run's outputs: [Errno 21] Is a directory: "
                       f"{str(out / 'trace.csv')!r}\n")

    def test_a_sweep_member_whose_manifest_cannot_be_written_exits_64(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        (out / "001-c0=4.0" / "manifest.json").mkdir(parents=True)
        assert run_cli("sweep", "--scenario", "stabilize", "--param", "c0", "--values", "3,4",
                       "--t-final", "0.1", "--pe-tau", "0.1", "--out", str(out)) == 64
        err = capsys.readouterr().err
        assert err.startswith("heatadapt: cannot write the run's outputs: [Errno 21] ")
        assert err.count("\n") == 1
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [0, 64]

    def test_a_directory_in_place_of_analysis_json_exits_64(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("t," + ",".join(TRACE_COLUMNS) + "\n"
                         + "".join(f"{t},1,0,0,0,0,1,0,0,0\n" for t in range(3)))
        out = tmp_path / "analysis"
        (out / "analysis.json").mkdir(parents=True)
        assert run_cli("analyze", "--trace", str(trace), "--out", str(out)) == 64
        captured = capsys.readouterr()
        assert captured.err == (f"heatadapt: cannot write the analysis: [Errno 21] Is a "
                                f"directory: {str(out / 'analysis.json')!r}\n")
        assert captured.out == ""

    def test_empty_init_file_prints_one_line(self, tmp_path):
        # numpy warns on an empty file; only the heatadapt message may reach stderr
        profile = tmp_path / "empty.txt"
        profile.write_text("")
        proc = run_subprocess(
            "simulate", "--scenario", "open-loop", "--t-final", "0.1", "--pe-tau", "0.1",
            "--init", f"file:{profile}", "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 64
        assert proc.stderr == f"heatadapt: init file {str(profile)!r} has 0 values, grid needs 51\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("scenario", ["observer", "error-system", "galerkin"])
    @pytest.mark.parametrize("u0", ["const:inf", "const:nan", "const:1e308"])
    def test_non_finite_boundary_flux_exits_64(self, tmp_path, capsys, scenario, u0):
        code = run_cli("simulate", "--scenario", scenario, "--u0", u0, "--t-final", "0.01",
                       "--pe-tau", "0.01", "--out", str(tmp_path))
        assert code == 64
        assert capsys.readouterr().err == "heatadapt: boundary fluxes must be finite\n"

    def test_overflow_prints_one_line(self, tmp_path):
        # the stepping loop detects the overflow itself; numpy must not warn
        proc = run_subprocess(
            "simulate", "--scenario", "observer", "--u0", "const:1e308", "--t-final", "0.01",
            "--pe-tau", "0.01", "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 64
        assert proc.stderr == "heatadapt: boundary fluxes must be finite\n"

    def test_galerkin_overflow_ends_like_error_system(self, tmp_path):
        # the spectral oracle checks its stage fluxes as the FD route checks its own
        procs = [
            run_subprocess("simulate", "--scenario", scenario, "--zeta0", "1e308",
                           "--u0", "const:1e10", "--t-final", "0.01",
                           "--out", str(tmp_path / scenario))
            for scenario in ("error-system", "galerkin")
        ]
        assert [p.returncode for p in procs] == [64, 64]
        assert [p.stderr for p in procs] == ["heatadapt: boundary fluxes must be finite\n"] * 2

    def test_non_finite_state_exits_3(self, tmp_path):
        out = tmp_path / "run"
        proc = run_subprocess(
            "simulate", "--scenario", "open-loop", "--init", spike_profile(tmp_path / "f.txt"),
            "--t-final", "0.01", "--pe-tau", "0.01", "--out", str(out),
        )
        assert proc.returncode == 3
        assert proc.stderr == "heatadapt: heat step produced non-finite values\n"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["made", "existing"])
    def test_a_failed_run_removes_only_the_empty_directories_it_made(self, tmp_path, existing):
        # the run makes a/b/run, or runs into an empty a that was there before
        base = tmp_path / "a"
        out = base if existing else base / "b" / "run"
        if existing:
            base.mkdir()
        assert run_cli("simulate", "--scenario", "open-loop",
                       "--init", spike_profile(tmp_path / "f.txt"), "--t-final", "0.01",
                       "--pe-tau", "0.01", "--out", str(out)) == 3
        assert base.exists() is existing
        if existing:
            assert not any(base.iterdir())

    def test_blow_up_exits_3(self, tmp_path):
        code = run_cli(
            "simulate", "--scenario", "open-loop", "--q", "9",
            "--t-final", "1", "--pe-tau", "0.5", "--out", str(tmp_path),
        )
        assert code == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["verdicts"]["blown_up"] is True

    @pytest.mark.parametrize("argv", [
        ["simulate", "--t-final", "1e12"],
        ["simulate", "--scenario", "galerkin", "--modes", "2", "--t-final", "1e12"],
        ["simulate", "--t-final", "1000", "--sample-stride", "100000", "--snapshot-stride", "1"],
    ], ids=["samples", "galerkin", "snapshots"])
    def test_a_record_past_the_size_limit_exits_64(self, tmp_path, argv):
        out = tmp_path / "run"
        proc = run_subprocess(*argv, "--out", str(out))
        assert proc.returncode == 64
        assert proc.stderr.startswith("heatadapt: the run would record ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_a_record_just_under_the_size_limit_sets_up(self, tmp_path):
        # 2e7 rows of 10 values are 1.49 GiB; tracking's 14 a row pass 2 GiB
        argv = ["--t-final", "2000", "--sample-stride", "1", "--out", str(tmp_path / "run")]
        _set_up(parse_args(["simulate", "--scenario", "stabilize", *argv])[1])
        assert (tmp_path / "run").is_dir()
        with pytest.raises(ConfigError, match="would record 2.09 GiB"):
            _set_up(parse_args(["simulate", "--scenario", "track", *argv])[1])

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_record_shape_is_the_recorders(self, tmp_path, monkeypatch, scenario):
        shapes, traces = [], []

        class Recorder(domain._Recorder):
            def __init__(self, names, *args, **kwargs):
                super().__init__(names, *args, **kwargs)
                shapes.append([tuple(names), 0])

            def snap(self, t, fields):
                super().snap(t, fields)
                shapes[-1][1] = len(fields)

            def build(self, *args, **kwargs):
                traces.append(super().build(*args, **kwargs))
                return traces[-1]

        monkeypatch.setattr(scenarios, "_Recorder", Recorder)
        monkeypatch.setattr(analysis, "_Recorder", Recorder)
        assert run_cli("simulate", "--scenario", scenario, "--modes", "2", "--t-final", "0.01",
                       "--pe-tau", "0.01", "--snapshot-stride", "10",
                       "--out", str(tmp_path)) == 0
        record = _SCENARIOS[scenario]
        assert shapes == [[record.columns, record.snapshot_fields]]
        # the trace's columns that its sample array holds beside t are those
        # check_record_size counts, and no diss_cum; the rest of TRACE_COLUMNS
        # read zero from arrays of their own
        (trace,) = traces
        samples = trace.times.base
        recorded = tuple(name for name in (*trace.scalars, *trace.extras)
                         if trace[name].base is samples)
        assert recorded == record.columns and samples.shape[1] == 1 + len(record.columns)
        assert "diss_cum" not in record.columns

    def test_a_sweep_member_past_the_size_limit_exits_64(self, tmp_path):
        out = tmp_path / "sweep"
        proc = run_subprocess("sweep", "--param", "t-final", "--values", "1,1e12",
                              "--out", str(out))
        assert proc.returncode == 64
        assert proc.stderr.startswith("heatadapt: the run would record ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [0, 64]
        assert not Path(runs[1]["out"]).exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    @pytest.mark.parametrize("argv, gib", [
        # 20M + 2 rows of t and the nine TRACE_COLUMNS
        (["simulate", "--t-final", "2000", "--sample-stride", "1"], "1.49"),
        (["simulate", "--scenario", "galerkin", "--modes", "2", "--t-final", "2500",
          "--sample-stride", "1"], "1.68"),
    ], ids=["samples", "galerkin-mapped"])
    def test_an_allocation_the_system_refuses_exits_64(self, tmp_path, argv, gib):
        # under the size limit, but over what the address-space cap leaves
        proc = run_capped(*argv, "--out", str(tmp_path / "run"))
        assert proc.returncode == 64
        assert proc.stderr == f"heatadapt: cannot allocate {gib} GiB {ALLOCATION_HINT}\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_snapshots_the_system_refuses_exit_64_before_the_first_step(self, tmp_path):
        # 400002 snapshots of two 201-node fields are 1.2 GiB, under the size
        # limit but over what the address-space cap leaves
        out = tmp_path / "run"
        proc = run_capped("simulate", "--dx", "0.005", "--dt", "1e-5", "--t-final", "4",
                          "--pe-tau", "0.5", "--snapshot-stride", "1", "--out", str(out))
        assert proc.returncode == 64
        assert proc.stderr == ("heatadapt: cannot allocate 1.2 GiB for the run's snapshots: "
                               "raise --snapshot-stride or shorten --t-final\n")
        assert not (out / "trace.csv").exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_a_sweep_member_the_system_refuses_exits_64_and_the_sweep_goes_on(self, tmp_path):
        out = tmp_path / "sweep"
        proc = run_capped("sweep", "--param", "t-final", "--values", "2000,0.1",
                          "--sample-stride", "1", "--out", str(out))
        assert proc.returncode == 64
        assert proc.stderr == f"heatadapt: cannot allocate 1.49 GiB {ALLOCATION_HINT}\n"
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [64, 0]
        assert Path(runs[1]["out"], "trace.csv").exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    @pytest.mark.parametrize("scenario, gib", [("stabilize", "9.69"), ("error-system", "4.84")])
    def test_a_state_slab_the_system_refuses_exits_64(self, tmp_path, scenario, gib):
        # 10^7 + 1 nodes: the 65-row slab of the run's states is over what the cap leaves
        out = tmp_path / "run"
        proc = run_capped("simulate", "--scenario", scenario, "--dx", "1e-7", "--dt", "1e-15",
                          "--t-final", "1e-15", "--out", str(out))
        assert proc.returncode == 64
        assert proc.stderr == (f"heatadapt: cannot allocate {gib} GiB for the run's state slab: "
                               "raise --dx\n")
        assert not (out / "trace.csv").exists()
        assert not out.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_a_sweep_member_whose_slab_is_refused_exits_64_and_the_sweep_goes_on(self, tmp_path):
        out = tmp_path / "sweep"
        proc = run_capped("sweep", "--param", "dx", "--values", "1e-7,0.02", "--dt", "1e-15",
                          "--t-final", "1e-15", "--out", str(out))
        assert proc.returncode == 64
        assert proc.stderr == ("heatadapt: cannot allocate 9.69 GiB for the run's state slab: "
                               "raise --dx\n")
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [64, 0]
        assert not Path(runs[0]["out"]).exists()
        assert Path(runs[1]["out"], "trace.csv").exists()

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
        expected = reference_csv("t," + ",".join(cols), zip(times, *cols.values()))
        assert expected == (run_dir / "trace.csv").read_bytes()

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

    def test_manifest_without_samples_loads(self, run_dir, tmp_path):
        # a manifest written before the field existed still loads
        raw = json.loads((run_dir / "manifest.json").read_text())
        del raw["samples"]
        old = tmp_path / "manifest.json"
        old.write_text(json.dumps(raw))
        m = RunManifest.load(old)
        assert m.samples is None
        assert m.scenario == "stabilize" and m.config["n"] == 51

    @pytest.mark.parametrize("scenario, flags, route, handover", [
        ("stabilize", [], "operator", None),
        ("observer", ["--u0", "exp-decay"], "stencil", None),
        # quiet for two blocks, then the stencil steps the run to its blow-up
        ("stabilize", ["--q", "6", "--c0", "0.5", "--c1", "0.5", "--snapshot-stride", "50"],
         "operator", 100),
        ("stabilize", ["--dx", "0.008", "--dt", "2e-5"], "stencil", None),
        ("track", ["--ref", "const:1"], "operator", None),
        ("error-system", ["--u0", "exp-decay"], "stencil", None),
        ("galerkin", ["--u0", "exp-decay"], None, None),
        # n=102, one node past the operator cutoff
        ("track", ["--ref", "sin:1,1", "--dx", "0.009900990099009901", "--dt", "4e-5"],
         "stencil", None),
    ])
    def test_manifest_records_the_route(self, tmp_path, scenario, flags, route, handover):
        run_cli("simulate", "--scenario", scenario, *flags, "--t-final", "0.05",
                "--pe-tau", "0.01", "--out", str(tmp_path))
        m = RunManifest.load(tmp_path / "manifest.json")
        assert (m.route, m.handover_step) == (route, handover)

    def test_manifest_run_size(self, run_dir):
        m = RunManifest.load(run_dir / "manifest.json")
        assert m.config["n_steps"] == 5000  # 0.5 s at dt=1e-4
        assert m.config["cfl_ratio"] == 1e-4 / (0.02 * 0.02)
        assert m.samples == 51 == len((run_dir / "trace.csv").read_text().splitlines()) - 1

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

    def test_galerkin_writes_no_snapshots(self, tmp_path):
        # the oracle keeps no field, so --snapshot-stride has no effect on it
        out = tmp_path / "gal"
        code = run_cli("simulate", "--scenario", "galerkin", "--t-final", "0.01",
                       "--pe-tau", "0.01", "--snapshot-stride", "10", "--out", str(out))
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "trace.csv"]

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

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_runner_is_looked_up_through_cli(self, tmp_path, monkeypatch, scenario):
        # bench/tracer.py wraps the runners where cli looks them up, so a
        # wrapper set on cli must be the function the scenario runs
        calls = dict.fromkeys(RUNNERS.values(), 0)

        def counting(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        assert run_cli("simulate", "--scenario", scenario, "--modes", "2", "--t-final", "0.01",
                       "--pe-tau", "0.01", "--out", str(tmp_path)) == 0
        assert calls == {name: int(name == RUNNERS[scenario]) for name in calls}

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_manifest_records_the_scenarios_inputs_and_verdicts(self, tmp_path, scenario):
        inputs, verdicts = SCENARIO_MANIFESTS[scenario]
        assert run_cli("simulate", "--scenario", scenario, "--modes", "2", "--t-final", "0.01",
                       "--pe-tau", "0.01", "--out", str(tmp_path)) == 0
        m = json.loads((tmp_path / "manifest.json").read_text())
        recorded = {"reference": m["reference"], "u0_signal": m["u0_signal"],
                    "modes": m["config"]["modes"]}
        assert {k for k, v in recorded.items() if v is not None} == inputs
        common = ["blown_up", "blow_up_time", "limits", "pe_u0"]
        assert list(m["verdicts"]) == common + verdicts

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


#: the function each scenario runs, by its name in heatadapt.cli
RUNNERS = {"open-loop": "run_open_loop", "observer": "run_observer",
           "stabilize": "run_stabilization", "track": "run_tracking",
           "error-system": "run_error_system", "galerkin": "galerkin_error_system"}

#: per scenario, the inputs its manifest records and its verdicts past the common ones
SCENARIO_MANIFESTS = {
    "open-loop": (set(), []),
    "observer": ({"u0_signal"}, []),
    "stabilize": (set(), ["tolerances", "tolerance_checks"]),
    "track": ({"reference"}, ["tracking_err_final", "pe_vx1", "reference_uniformly_bounded",
                              "tolerances", "tolerance_checks"]),
    "error-system": ({"u0_signal"}, []),
    "galerkin": ({"u0_signal", "modes"}, []),
}


#: values whose shortest round-trip text needs care: subnormals, signed
#: zeros, the ends of the range and values that need all 17 digits
ADVERSARIAL = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 0.0, -0.0, 1.7e308, -1.7e308,
               1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, float(np.nextafter(1.0, 2.0)),
               -2.0 / 3.0, 9007199254740993.0, 123456789.01234567]


def synthetic_trace(rows: int, values, snapshots=()) -> Trace:
    """A Trace of ``rows`` samples whose columns cycle through ``values``."""
    times = np.arange(rows) * 0.1 - 1.0
    cols = {name: np.resize(np.roll(values, i), rows) for i, name in enumerate(TRACE_COLUMNS)}
    return Trace(times=times, scalars=cols, snapshots=list(snapshots))


def bare_manifest() -> RunManifest:
    return RunManifest(scenario="stabilize", params={}, config={}, reference=None,
                       u0_signal=None, init="paper", zeta0=0.0, tool_version="0",
                       duration_s=0.0, samples=0)


def write_trace(path, rows: int, line=None, content=None):
    """A trace.csv of ``rows`` zero rows, with file line ``line`` set to ``content``."""
    lines = ["t," + ",".join(TRACE_COLUMNS)] + [",".join(["0"] * 10)] * rows
    if line is not None:
        lines[line - 1] = content
    path.write_text("\n".join(lines) + "\n")


class TestTraceFiles:
    """emit_trace writes what per-value formatting writes; read_trace_csv reads it back."""

    # around the end of the fourth chunk, so the last chunk reuses the buffers of three
    @pytest.mark.parametrize("rows", [1, 4 * CHUNK_ROWS - 1, 4 * CHUNK_ROWS, 4 * CHUNK_ROWS + 1])
    @pytest.mark.parametrize("fields", [(), ("w",), ("w", "what")],
                             ids=["no-snapshots", "no-observer", "observer"])
    def test_bytes_equal_per_value_formatting(self, tmp_path, rng, rows, fields):
        values = rng.standard_normal(97) * 10.0 ** rng.integers(-300, 300, 97)
        # snapshots of 3 nodes, 7 nodes and more nodes than a chunk has rows
        sizes = ((0.5, 3), (0.25 * rows, 7), (1e300, CHUNK_ROWS + 1)) if fields else ()
        snaps = [(t, {name: np.resize(np.roll(values, i), n) for i, name in enumerate(fields)})
                 for t, n in sizes]
        trace = synthetic_trace(rows, values, snaps)
        paths = emit_trace(trace, bare_manifest(), tmp_path)

        columns = [trace.times, *(trace.scalars[c] for c in TRACE_COLUMNS)]
        expected = reference_csv("t," + ",".join(TRACE_COLUMNS), zip(*columns))
        assert Path(paths["trace_csv"]).read_bytes() == expected
        assert ("snapshots_csv" in paths) == bool(fields)
        if fields:
            lines = ["t,x,w,what"]
            for t, f in snaps:
                w, what = f["w"], f.get("what")
                x = np.linspace(0.0, 1.0, w.size)
                for i in range(w.size):
                    wh = format(what[i], ".17g") if what is not None else ""
                    lines.append(",".join(format(v, ".17g") for v in (t, x[i], w[i])) + "," + wh)
            expected = ("\n".join(lines) + "\n").encode("ascii")
            assert Path(paths["snapshots_csv"]).read_bytes() == expected

    def test_adversarial_values_round_trip_bit_for_bit(self, tmp_path, rng):
        # random bit patterns cover every exponent; the non-finite ones are dropped
        patterns = rng.integers(0, 2**64, 4000, dtype=np.uint64).view(float)
        values = np.concatenate([ADVERSARIAL, patterns[np.isfinite(patterns)]])
        trace = synthetic_trace(values.size, values)
        emit_trace(trace, bare_manifest(), tmp_path)
        times, cols = read_trace_csv(tmp_path / "trace.csv")
        assert times.tobytes() == trace.times.tobytes()
        assert list(cols) == list(TRACE_COLUMNS)
        for name in TRACE_COLUMNS:
            assert cols[name].tobytes() == trace.scalars[name].tobytes(), name

    @pytest.mark.parametrize(
        "content, message",
        [("0,0,0", "3 values, header has 10"), ("0,0,0,0,0,0,0,0,0,x", "'x'")],
        ids=["ragged-row", "non-numeric"],
    )
    def test_bad_row_of_a_long_file_is_named_by_its_line(self, tmp_path, capsys, content,
                                                         message):
        path = tmp_path / "trace.csv"
        write_trace(path, 6000, 5000, content)
        with pytest.raises(ConfigError, match=re.escape(f"{path}:5000: ") + f".*{message}$"):
            read_trace_csv(path)
        assert run_cli("analyze", "--trace", str(path)) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"heatadapt: {path}:5000: ") and err.count("\n") == 1

    def test_trailing_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, 3)
        path.write_text(path.read_text() + "\n\n")
        # numpy warns of blank lines when given a row bound; none may reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            times, cols = read_trace_csv(path)
        assert times.tolist() == [0.0] * 3 and set(cols) == set(TRACE_COLUMNS)

    def test_empty_body_has_no_samples_and_no_warning(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="no samples"):
                read_trace_csv(path)

    def test_blown_up_run_records_its_samples(self, tmp_path):
        out = tmp_path / "blow"
        assert run_cli("simulate", "--scenario", "open-loop", "--q", "9", "--t-final", "5",
                       "--out", str(out)) == 3
        m = RunManifest.load(out / "manifest.json")
        rows = len((out / "trace.csv").read_text().splitlines()) - 1
        assert m.samples == rows < m.config["n_steps"] // 100
        assert m.verdicts["blown_up"] is True


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
        "flag, value, code",
        [("--settle-window", "nan", 64), ("--pe-tau", "nan", 64), ("--gap-tol", "nan", 64),
         ("--pe-threshold", "nan", 64),
         # inf would reach analysis.json as Infinity; a negative bound passes every
         # PE window, a negative gap tolerance fails every quantity
         ("--gap-tol", "inf", 64), ("--pe-threshold", "inf", 64),
         ("--gap-tol", "-1", 64), ("--pe-threshold", "-1", 64), ("--pe-threshold", "0", 64),
         # inf window lengths pass: the windows do not fit, which the report records
         ("--settle-window", "inf", 0), ("--pe-tau", "inf", 0)],
    )
    def test_nan_option_exits_64(self, tmp_path, capsys, flag, value, code):
        # NaN would reach analysis.json, which must stay valid JSON
        times = np.linspace(0.0, 6.0, 61)
        rows = [(t, np.sin(t), *[0.0] * (len(TRACE_COLUMNS) - 1)) for t in times]
        trace = tmp_path / "trace.csv"
        trace.write_bytes(reference_csv("t," + ",".join(TRACE_COLUMNS), rows))
        out = tmp_path / "report"
        assert run_cli("analyze", "--trace", str(trace), flag, value, "--out", str(out)) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("heatadapt: ") and captured.err.count("\n") == 1
            assert not (out / "analysis.json").exists()
        else:
            assert "error" in json.loads((out / "analysis.json").read_text())[
                "limits" if flag == "--settle-window" else "pe_u0"]

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

    @pytest.mark.parametrize("values, bad", [("nan,1", "nan"), ("inf", "inf"), ("1,-inf", "-inf")])
    def test_sweep_refuses_non_finite_values(self, tmp_path, capsys, values, bad):
        out = tmp_path / "swn"
        assert run_cli("sweep", "--scenario", "open-loop", "--param", "q", "--values", values,
                       "--t-final", "0.1", "--pe-tau", "0.1", "--out", str(out)) == 64
        assert capsys.readouterr().err == (
            f"heatadapt: --values holds {bad}: every value must be finite\n")
        assert not out.exists()

    def test_sweep_json_is_strict_json(self, tmp_path):
        # a member that fails and the largest finite values: sweep.json still
        # holds no NaN or Infinity, which strict JSON parsers refuse
        def refuse(constant):
            raise ValueError(f"sweep.json holds {constant}")

        out = tmp_path / "sws"
        assert run_cli("sweep", "--scenario", "open-loop", "--param", "q",
                       "--values", "1.7976931348623157e308,2", "--t-final", "0.1",
                       "--pe-tau", "0.1", "--out", str(out)) == 3
        index = json.loads((out / "sweep.json").read_text(), parse_constant=refuse)
        assert [r["value"] for r in index["runs"]] == [1.7976931348623157e308, 2.0]
        assert [r["exit_code"] for r in index["runs"]] == [3, 0]

    def test_sweep_rejects_duplicate_values(self, tmp_path):
        out = tmp_path / "swd"
        code = run_cli(
            "sweep", "--scenario", "open-loop", "--param", "q",
            "--values", "2,1.5,2.0", "--t-final", "0.1", "--pe-tau", "0.1",
            "--out", str(out),
        )
        assert code == 64
        assert not out.exists()


#: sweeps of the stabilize scenario: (--param, --values, other flags, exit codes)
STABILIZE_SWEEPS = {
    # the sweep-c0 benchmark workload at seed 0
    "c0": ("c0", "3,4,5,6,7,8", ["--t-final", "0.5", "--pe-tau", "0.1"], [0] * 6),
    # one member blows up beside healthy ones
    "q-blow-up": ("q", "2,9,3", ["--c0", "0.01", "--c1", "0.01", "--t-final", "2"], [0, 3, 0]),
    # b * u overflows in two members
    "b-overflow": ("b", "-10,-1e307,-1e308", ["--t-final", "0.5"], [0, 64, 64]),
    "zeta0-snapshots": ("zeta0", "0,-0.05,0.2",
                        ["--t-final", "0.3", "--pe-tau", "0.1", "--snapshot-stride", "700"],
                        [0, 0, 0]),
    # every member has its own step count; 3e-4 breaks the CFL bound
    "dt-cfl": ("dt", "1e-4,5e-5,3e-4,2e-5", ["--t-final", "0.2", "--pe-tau", "0.1"],
               [0, 0, 2, 0]),
    # three horizons give 5000 steps, 0.3 gives 3000
    "t-final-groups": ("t-final", "0.5,0.3,0.50000000001,0.50000000002", ["--pe-tau", "0.1"],
                       [0, 0, 0, 0]),
    "two-members": ("c0", "3,5", ["--t-final", "0.3", "--pe-tau", "0.1"], [0, 0]),
    # each member's PE window defaults to min(1, t-final) of its own horizon
    "t-final-default-tau": ("t-final", "0.5,0.8,0.50000000001,0.50000000002", [], [0, 0, 0, 0]),
}


#: flags of a 126-node grid, above the operator cutoff, where stabilize runs step on the stencil
ABOVE_CUTOFF = ["--dx", "0.008", "--dt", "2e-5"]


class TestBatchedSweep:
    """Each member of a sweep (a batch of runs) writes what its own simulate run writes."""

    @pytest.mark.usefixtures("stencil_route")
    @pytest.mark.parametrize("case", list(STABILIZE_SWEEPS))
    def test_members_equal_simulate(self, tmp_path, capsys, case):
        # on the stencil, as every stabilize run above the operator cutoff
        param, values, flags, codes = STABILIZE_SWEEPS[case]
        out = tmp_path / "sweep"
        code = run_cli("sweep", "--scenario", "stabilize", "--param", param,
                       f"--values={values}", *flags, "--out", str(out))
        sweep_err = capsys.readouterr().err
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == codes and code == max(codes)

        single_err, durations = "", []
        for i, r in enumerate(runs):
            alone = tmp_path / f"alone-{i}"
            assert run_cli("simulate", "--scenario", "stabilize", f"--{param}={r['value']!r}",
                           *flags, "--out", str(alone)) == r["exit_code"]
            single_err += capsys.readouterr().err
            member = Path(r["out"])
            for name in ("trace.csv", "snapshots.csv", "manifest.json"):
                assert (member / name).exists() == (alone / name).exists(), name
            if not (alone / "manifest.json").exists():
                continue
            for name in ("trace.csv", "snapshots.csv"):
                if (alone / name).exists():
                    assert (member / name).read_bytes() == (alone / name).read_bytes(), name
            got, expected = (json.loads((d / "manifest.json").read_text()) for d in (member, alone))
            durations.append(got.pop("duration_s"))
            expected.pop("duration_s")
            got.pop("outputs")
            expected.pop("outputs")
            assert got == expected
        assert sweep_err == single_err
        # each member's duration is its own run's
        assert all(d > 0 for d in durations)

    def test_members_on_the_operator_run_alone(self, tmp_path):
        # at n <= the cutoff each member steps as one operator product, alone,
        # and writes what its own simulate run writes
        out = tmp_path / "sweep"
        flags = ["--t-final", "0.3", "--pe-tau", "0.1", "--snapshot-stride", "700"]
        assert run_cli("sweep", "--scenario", "stabilize", "--param", "c0", "--values", "3,5,7",
                       *flags, "--out", str(out)) == 0
        for i, r in enumerate(json.loads((out / "sweep.json").read_text())["runs"]):
            alone = tmp_path / f"alone-{i}"
            assert run_cli("simulate", "--scenario", "stabilize", f"--c0={r['value']!r}", *flags,
                           "--out", str(alone)) == 0
            member = Path(r["out"])
            for name in ("trace.csv", "snapshots.csv"):
                assert (member / name).read_bytes() == (alone / name).read_bytes(), name
            got, expected = (json.loads((d / "manifest.json").read_text()) for d in (member, alone))
            for m in (got, expected):
                del m["duration_s"], m["outputs"]
            assert got == expected and got["route"] == "operator"

    @staticmethod
    def columns(path):
        """The columns of a CSV file by header name; the empty what cells of open-loop read NaN."""
        with open(path) as f:
            header = f.readline().strip().split(",")
        values = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
        return dict(zip(header, values.T))

    def test_batched_members_stay_near_simulate(self, tmp_path):
        # six members of a c0 sweep step as one batch; each stays within 1e-12 of
        # a column's scale of its own simulate run, in every column of both files
        out = tmp_path / "sweep"
        flags = ["--t-final", "0.5", "--pe-tau", "0.1", "--zeta0", "-0.05",
                 "--sample-stride", "37", "--snapshot-stride", "700"]
        assert run_cli("sweep", "--scenario", "stabilize", "--param", "c0",
                       "--values", "3,4,5,6,7,8", *flags, "--out", str(out)) == 0
        for i, r in enumerate(json.loads((out / "sweep.json").read_text())["runs"]):
            alone = tmp_path / f"alone-{i}"
            assert run_cli("simulate", "--scenario", "stabilize", f"--c0={r['value']!r}", *flags,
                           "--out", str(alone)) == 0
            member = Path(r["out"])
            for name in ("trace.csv", "snapshots.csv"):
                got, want = self.columns(member / name), self.columns(alone / name)
                assert got.keys() == want.keys()
                for col, values in want.items():
                    assert got[col].shape == values.shape, (name, col)
                    scale = float(np.abs(values).max())
                    assert float(np.abs(got[col] - values).max()) <= 1e-12 * scale, (name, col)
                assert np.array_equal(got["t"], want["t"]), name
            got, expected = (json.loads((d / "manifest.json").read_text()) for d in (member, alone))
            assert (got["route"], expected["route"]) == ("operator-batch", "operator")
            assert got["duration_s"] > 0
            for m in (got, expected):
                del m["duration_s"], m["outputs"], m["route"], m["verdicts"]
            assert got == expected

    def test_a_batched_sweep_repeats_its_bytes(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert run_cli("sweep", "--scenario", "stabilize", "--param", "c0",
                           "--values", "3,4,5,6", "--t-final", "0.2", "--pe-tau", "0.05",
                           "--snapshot-stride", "700", "--out", str(out)) == 0
            files = sorted(p for p in out.rglob("*") if p.suffix == ".csv")
            assert len(files) == 8
            outputs.append([(p.relative_to(out), p.read_bytes()) for p in files])
            route = json.loads((out / "000-c0=3.0" / "manifest.json").read_text())["route"]
            assert route == "operator-batch"
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("param, values, codes", [
        # zeta = 1e11 is not quiet in the first block: the batch gives every member back
        ("zeta0", "0,0.05,1e11,-0.05", [0, 0, 3, 0]),
        # u0 of c0 = 1e308 overflows the flux: the run alone exits 64
        ("c0", "3,-1,4,1e308,5,6", [0, 64, 0, 64, 0, 0]),
    ], ids=["blow-up", "setup-and-flux"])
    def test_a_member_that_is_not_quiet_runs_every_member_alone(self, tmp_path, capsys, param,
                                                                values, codes):
        # each member then writes what its own simulate run writes, bit for bit,
        # and the stderr lines keep the order of the values
        out = tmp_path / "sweep"
        flags = ["--t-final", "0.3", "--pe-tau", "0.1", "--sample-stride", "37",
                 "--snapshot-stride", "700"]
        code = run_cli("sweep", "--scenario", "stabilize", "--param", param,
                       f"--values={values}", *flags, "--out", str(out))
        sweep_err = capsys.readouterr().err
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == codes and code == max(codes)
        single_err = ""
        for i, r in enumerate(runs):
            alone = tmp_path / f"alone-{i}"
            assert run_cli("simulate", "--scenario", "stabilize", f"--{param}={r['value']!r}",
                           *flags, "--out", str(alone)) == r["exit_code"]
            single_err += capsys.readouterr().err
            member = Path(r["out"])
            assert member.exists() == alone.exists()
            for name in ("trace.csv", "snapshots.csv"):
                assert (member / name).exists() == (alone / name).exists()
                if (alone / name).exists():
                    assert (member / name).read_bytes() == (alone / name).read_bytes(), name
            if (alone / "manifest.json").exists():
                got, expected = (json.loads((d / "manifest.json").read_text())
                                 for d in (member, alone))
                assert got["route"] == "operator"
                for m in (got, expected):
                    del m["duration_s"], m["outputs"]
                assert got == expected
        # a blow-up prints nothing; a failed set-up or run prints its line
        assert sweep_err == single_err and sweep_err.count("\n") == codes.count(64)

    def test_a_failed_set_up_inside_a_batch_keeps_the_sweep_as_it_was(self, tmp_path, capsys,
                                                                     monkeypatch):
        # the member whose set-up fails sits between batched ones: sweep.json,
        # exit codes and stderr are those of the sweep with every member alone
        flags = ["--param", "c0", "--values", "3,4,-1,5,6", "--t-final", "0.3", "--pe-tau", "0.1"]
        results = []
        for batch_flags in (cli._BATCH_FLAGS, ()):
            monkeypatch.setattr(cli, "_BATCH_FLAGS", batch_flags)
            out = tmp_path / f"sweep-{len(batch_flags)}"
            code = run_cli("sweep", "--scenario", "stabilize", *flags, "--out", str(out))
            runs = json.loads((out / "sweep.json").read_text())["runs"]
            routes = [json.loads((Path(r["out"]) / "manifest.json").read_text())["route"]
                      for r in runs if r["exit_code"] == 0]
            for r in runs:
                r["out"] = Path(r["out"]).name
            results.append((code, runs, capsys.readouterr().err, routes))
        (code, runs, err, routes), alone = results
        assert (code, runs, err) == alone[:3]
        assert [r["exit_code"] for r in runs] == [0, 0, 64, 0, 0]
        assert err == "heatadapt: c0 must be > 0, got -1.0\n"
        assert routes == ["operator-batch"] * 4 and alone[3] == ["operator"] * 4
        assert not (tmp_path / "sweep-4" / "002-c0=-1.0").exists()

    def test_members_past_the_record_limit_together_run_alone(self, tmp_path, monkeypatch):
        # one member records 8 (5000 // 100 + 2) 10 bytes, t and the nine
        # TRACE_COLUMNS: at the limit of three, four do not fit; at four's, they do
        monkeypatch.setattr(scenarios, "MAX_RECORD_BYTES", 3 * 8 * 52 * 10)
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--scenario", "stabilize", "--param", "c0", "--values", "3,4,5,6",
                       "--t-final", "0.5", "--pe-tau", "0.1", "--out", str(out)) == 0
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        routes = {json.loads((Path(r["out"]) / "manifest.json").read_text())["route"]
                  for r in runs}
        assert routes == {"operator"}
        monkeypatch.setattr(scenarios, "MAX_RECORD_BYTES", 4 * 8 * 52 * 10)
        assert run_cli("sweep", "--scenario", "stabilize", "--param", "c0", "--values", "3,4,5,6",
                       "--t-final", "0.5", "--pe-tau", "0.1", "--out", str(out)) == 0
        routes = {json.loads((Path(r["out"]) / "manifest.json").read_text())["route"]
                  for r in runs}
        assert routes == {"operator-batch"}

    def test_overflowing_members_print_only_their_lines(self, tmp_path):
        out = tmp_path / "sweep"
        proc = run_subprocess("sweep", "--scenario", "stabilize", "--param", "b",
                              "--values=-10,-1e307,-1e308", "--t-final", "0.5", *ABOVE_CUTOFF,
                              "--out", str(out))
        assert proc.returncode == 64
        assert proc.stderr == "heatadapt: boundary fluxes must be finite\n" * 2
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [0, 64, 64]

    @pytest.mark.parametrize("values, grid", [("3,5", []), ("3,5,7", ABOVE_CUTOFF)],
                             ids=["one-by-one", "above-cutoff"])
    def test_non_finite_member_exits_3_and_the_sweep_goes_on(self, tmp_path, values, grid):
        out = tmp_path / "sweep"
        init = spike_profile(tmp_path / "f.txt", 126 if grid else 51)
        proc = run_subprocess("sweep", "--scenario", "stabilize", "--param", "c0",
                              "--values", values, "--init", init, *grid,
                              "--t-final", "0.01", "--pe-tau", "0.01", "--out", str(out))
        count = len(values.split(","))
        assert proc.returncode == 3
        assert proc.stderr == "heatadapt: heat step produced non-finite values\n" * count
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [3] * count
        assert not any(Path(r["out"], "trace.csv").exists() for r in runs)


def test_cli_runs_integrate_no_dissipation(tmp_path, monkeypatch):
    # no CLI output holds diss_cum, so no run of the CLI builds the GradientEnergy
    # that integrates it: simulate's, a batched sweep's or a sweep's members alone
    made = []
    energy = scenarios.GradientEnergy

    def spy(*args):
        made.append(args)
        return energy(*args)

    monkeypatch.setattr(scenarios, "GradientEnergy", spy)
    flags = ["--t-final", "0.05", "--pe-tau", "0.05", "--u0", "exp-decay"]
    commands = {
        "stabilize": ["simulate", "--scenario", "stabilize"],
        "observer": ["simulate", "--scenario", "observer"],
        "error-system": ["simulate", "--scenario", "error-system"],
        "sweep-c0": ["sweep", "--scenario", "stabilize", "--param", "c0", "--values", "3,4,5,6"],
        "sweep-b": ["sweep", "--scenario", "stabilize", "--param", "b", "--values=-10,-8"],
    }
    for name, argv in commands.items():
        assert run_cli(*argv, *flags, "--out", str(tmp_path / name)) == 0, name
    routes = [json.loads((tmp_path / sweep / member / "manifest.json").read_text())["route"]
              for sweep, member in (("sweep-c0", "000-c0=3.0"), ("sweep-b", "000-b=-10.0"))]
    assert routes == ["operator-batch", "operator"]
    assert made == []
    # the library's runs record diss_cum by default, through the spy
    grid = domain.Grid(51)
    scenarios.run_stabilization(domain.Params(q=2.0, b=-10.0, c0=5.0, c1=5.0),
                                domain.SimConfig(dt=1e-4, t_final=0.01, grid=grid,
                                                 pe_window_tau=0.01),
                                scenarios.benchmark_initial_state(grid, 2.0),
                                domain.GridFunction.zeros(grid), 0.0)
    assert len(made) == 1


def test_every_name_the_tracer_wraps_resolves():
    # the traced benchmark wraps each (owner, attribute) of its WRAPPED table;
    # a name the package no longer holds would only fail that run
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("heatadapt_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, *_ in tracer.WRAPPED
               if not callable(getattr(owner, attr, None))]
    assert missing == []
