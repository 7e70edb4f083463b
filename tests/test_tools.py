import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_perstep_runs_every_probe():
    # a smoke run: its timings are not checked, only that each probe runs
    proc = subprocess.run([sys.executable, str(TOOLS / "perstep.py"), "--steps", "300",
                           "--repeats", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "best of 1, 300 steps a run, µs a step"
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["stabilize", "track", "batch-c0", "error-system"]
    # tracking and the batch record no diss_cum: no time with the column and no saving
    assert rows[1][1] == rows[1][3] == rows[2][1] == rows[2][3] == "-"
    assert all(float(row[2]) > 0 for row in rows)
    assert float(rows[0][1]) > 0 and float(rows[3][1]) > 0


def _identity():
    spec = importlib.util.spec_from_file_location("identity", TOOLS / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(out, name, u0, route="operator", zeta=0.1, blown_up=False, converged=True,
               terminal=None):
    # one command's outputs: a manifest and a two-row trace
    run = out / name
    run.mkdir(parents=True)
    limit = {"converged": converged, "terminal": u0 * zeta if terminal is None else terminal}
    verdicts = {"blown_up": blown_up, "blow_up_time": None, "limits": {"u0": limit}}
    manifest = {"scenario": "stabilize", "duration_s": 0.5, "samples": 2, "route": route,
                "handover_step": None, "outputs": {}, "verdicts": verdicts}
    (run / "manifest.json").write_text(json.dumps(manifest))
    (run / "trace.csv").write_text(f"t,u0,zeta\n0,1.5,0.25\n0.1,{u0!r},{zeta!r}\n")


class TestIdentityExpect:
    """tools/identity.py's comparison of two output trees, with declared moves."""

    def compare(self, tmp_path, expect, **changed):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            _write_run(out, "track-sin", 2.0)
        _write_run(a, "stabilize", 2.0)
        _write_run(b, "stabilize", **{"u0": 2.0, **changed})
        return _identity().compare(a, b, expect)

    def test_an_undeclared_move_fails(self, tmp_path):
        files, diffs, worst = self.compare(tmp_path, {}, u0=2.0 + 1e-14)
        assert files == 4 and worst == {}
        assert diffs[:2] == ["stabilize/manifest.json: differs in verdicts",
                             "stabilize/trace.csv: bytes differ"]

    def test_a_move_within_its_bound_passes(self, tmp_path):
        expect = {"stabilize": {"moves": "rounding", "bound": 1e-12}}
        _, diffs, worst = self.compare(tmp_path, expect, u0=2.0 + 4e-15)
        assert diffs == []
        (rel, where, col), = worst.values()
        assert 0 < rel <= 1e-12
        assert (where, col) in {("trace.csv", "u0"), ("manifest.json", "verdicts.limits.u0.terminal")}

    def test_a_move_past_its_bound_fails(self, tmp_path):
        expect = {"stabilize": {"moves": "rounding", "bound": 1e-12}}
        _, diffs, _ = self.compare(tmp_path, expect, u0=2.0 + 1e-9)
        assert diffs[:2] == ["stabilize/manifest.json: moves past its bound 1e-12 in "
                             "verdicts.limits.u0.terminal",
                             "    verdicts.limits.u0.terminal  rel 5.000e-10"]
        assert diffs[2] == "stabilize/trace.csv: moves past its bound 1e-12 in u0"
        # a wide bound takes a large move, but not in the blow-up
        wide = {"stabilize": {"moves": "rounding", "bound": 1e-2}}
        assert self.compare(tmp_path / "c", wide, u0=2.002)[1] == []
        _, diffs, _ = self.compare(tmp_path / "d", wide, u0=2.002, blown_up=True)
        assert diffs == ["stabilize/manifest.json: differs in verdicts, blown_up"]

    def test_a_verdict_past_its_bound_fails(self, tmp_path):
        # the trace moves within the bound; the verdict does not
        expect = {"stabilize": {"moves": "rounding", "bound": 1e-12}}
        _, diffs, _ = self.compare(tmp_path, expect, u0=2.0 + 4e-15, terminal=0.2 * (1 + 1e-9))
        assert diffs == ["stabilize/manifest.json: moves past its bound 1e-12 in "
                         "verdicts.limits.u0.terminal",
                         "    verdicts.limits.u0.terminal  rel 1.000e-09"]

    def test_a_flag_that_flips_fails_whatever_the_bound(self, tmp_path):
        expect = {"stabilize": {"moves": "rounding", "bound": 1e-2}}
        _, diffs, _ = self.compare(tmp_path, expect, u0=2.0 + 4e-15, converged=False)
        assert diffs == ["stabilize/manifest.json: moves past its bound 0.01 in "
                         "verdicts.limits.u0.converged",
                         "    verdicts.limits.u0.converged  rel inf"]

    def test_a_declared_command_that_did_not_move_is_stale(self, tmp_path):
        expect = {"track-sin": {"moves": "rounding", "bound": 1e-12},
                  "stabilize": {"moves": "rounding", "bound": 1e-12}}
        _, diffs, worst = self.compare(tmp_path, expect, u0=2.0 + 4e-15)
        assert list(worst) == ["stabilize"]
        assert diffs == ["track-sin: declared to move, but identical: the declaration is stale"]

    def test_a_declared_command_whose_route_changed_fails(self, tmp_path):
        expect = {"stabilize": {"moves": "rounding", "bound": 1e-2}}
        _, diffs, _ = self.compare(tmp_path, expect, u0=2.0 + 4e-15, route="stencil")
        assert diffs[0] == "stabilize/manifest.json: differs in route, verdicts"

    @pytest.mark.parametrize("move", [{"moves": "rounding"}, {"moves": "rounding", "bound": 0},
                                      {"moves": "rounding", "bound": True}, {"moves": "exact"},
                                      {"moves": "chaotic"}, "rounding"])
    def test_a_malformed_declaration_is_refused(self, tmp_path, move):
        path = tmp_path / "expect.json"
        path.write_text(json.dumps({"stabilize": move}))
        with pytest.raises(ValueError, match="declares"):
            _identity().load_expect(str(path))

    def test_an_unknown_command_is_refused(self, tmp_path):
        path = tmp_path / "expect.json"
        path.write_text(json.dumps({"no-such-command": {"moves": "rounding", "bound": 1e-12}}))
        with pytest.raises(ValueError, match="not a command"):
            _identity().load_expect(str(path))

    def test_the_shipped_declarations_load(self):
        assert _identity().load_expect(str(TOOLS / "identity-expect.json")) is not None
