import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heatadapt.cli import (
    _SIM_FLAGS, SCENARIOS, RunManifest, UsageError, emit_trace, main, parse_args, read_trace_csv,
)
from heatadapt.domain import _CHUNK_ROWS, TRACE_COLUMNS, ConfigError, Trace


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


def reference_csv(header, rows) -> bytes:
    """CSV bytes with every value printed by ``format(v, ".17g")``, LF newlines."""
    lines = [header] + [",".join(format(float(v), ".17g") for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def spike_profile(path):
    """51 values with a 1e308, -1e308 pair: the first step overflows."""
    values = np.zeros(51)
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
        proc = run_subprocess(
            "simulate", "--scenario", "open-loop", "--t-final", "0.1", "--pe-tau", "0.1",
            "--init", f"file:{profile}", "--out", str(tmp_path / "run"),
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

    def test_overflow_prints_one_line(self, tmp_path):
        # the stepping loop detects the overflow itself; numpy must not warn
        proc = run_subprocess(
            "simulate", "--scenario", "observer", "--u0", "const:1e308", "--t-final", "0.01",
            "--pe-tau", "0.01", "--out", str(tmp_path / "run"),
        )
        assert proc.returncode == 64
        assert proc.stderr == "heatadapt: boundary fluxes must be finite\n"

    def test_non_finite_state_exits_3(self, tmp_path):
        out = tmp_path / "run"
        proc = run_subprocess(
            "simulate", "--scenario", "open-loop", "--init", spike_profile(tmp_path / "f.txt"),
            "--t-final", "0.01", "--pe-tau", "0.01", "--out", str(out),
        )
        assert proc.returncode == 3
        assert proc.stderr == "heatadapt: heat step produced non-finite values\n"
        assert not (out / "trace.csv").exists()

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

    @pytest.mark.parametrize("rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    @pytest.mark.parametrize("fields", [(), ("w",), ("w", "what")],
                             ids=["no-snapshots", "no-observer", "observer"])
    def test_bytes_equal_per_value_formatting(self, tmp_path, rng, rows, fields):
        values = rng.standard_normal(97) * 10.0 ** rng.integers(-300, 300, 97)
        # snapshots of 3 nodes, 7 nodes and more nodes than a chunk has rows
        sizes = ((0.5, 3), (0.25 * rows, 7), (1e300, _CHUNK_ROWS + 1)) if fields else ()
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
}


class TestBatchedSweep:
    """Each sweep member writes what its own simulate run writes, byte for byte."""

    @pytest.mark.parametrize("case", list(STABILIZE_SWEEPS))
    def test_members_equal_simulate(self, tmp_path, capsys, monkeypatch, case):
        import heatadapt.batch

        param, values, flags, codes = STABILIZE_SWEEPS[case]
        batches = []
        batch = heatadapt.batch.run_stabilization_batch

        def recording_batch(params, *args):
            batches.append(len(params))
            return batch(params, *args)

        monkeypatch.setattr(heatadapt.batch, "run_stabilization_batch", recording_batch)
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

        # only groups of at least _MIN_BATCH members with one shape are batched
        expected_batches = {"c0": [6], "q-blow-up": [3], "b-overflow": [3],
                            "zeta0-snapshots": [3], "t-final-groups": [3]}
        assert batches == expected_batches.get(case, [])
        if case == "c0":
            # each batched member's duration is its share of the batch
            assert len(set(durations)) == 1 and durations[0] > 0

    def test_only_a_batching_sweep_imports_the_batch_module(self, tmp_path):
        # each process compiles what it imports, which raises its peak memory
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import sys\n"
            "from heatadapt import cli\n"
            "run = ['--scenario', 'stabilize', '--t-final', '0.01', '--pe-tau', '0.01']\n"
            f"cli.main(['simulate', *run, '--out', {str(tmp_path / 'alone')!r}])\n"
            "print('heatadapt.batch' in sys.modules)\n"
            "cli.main(['sweep', *run, '--param', 'c0', '--values', '3,4,5',\n"
            f"          '--out', {str(tmp_path / 'sweep')!r}])\n"
            "print('heatadapt.batch' in sys.modules)\n"
        )
        proc = run_python(str(probe))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

    def test_overflowing_members_print_only_their_lines(self, tmp_path):
        out = tmp_path / "sweep"
        proc = run_subprocess("sweep", "--scenario", "stabilize", "--param", "b",
                              "--values=-10,-1e307,-1e308", "--t-final", "0.5",
                              "--out", str(out))
        assert proc.returncode == 64
        assert proc.stderr == "heatadapt: boundary fluxes must be finite\n" * 2
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [0, 64, 64]

    @pytest.mark.parametrize("values", ["3,5", "3,5,7"], ids=["one-by-one", "batched"])
    def test_non_finite_member_exits_3_and_the_sweep_goes_on(self, tmp_path, values):
        out = tmp_path / "sweep"
        proc = run_subprocess("sweep", "--scenario", "stabilize", "--param", "c0",
                              "--values", values, "--init", spike_profile(tmp_path / "f.txt"),
                              "--t-final", "0.01", "--pe-tau", "0.01", "--out", str(out))
        count = len(values.split(","))
        assert proc.returncode == 3
        assert proc.stderr == "heatadapt: heat step produced non-finite values\n" * count
        runs = json.loads((out / "sweep.json").read_text())["runs"]
        assert [r["exit_code"] for r in runs] == [3] * count
        assert not any(Path(r["out"], "trace.csv").exists() for r in runs)
