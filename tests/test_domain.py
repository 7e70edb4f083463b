import dataclasses
import importlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from heatadapt import (
    CflViolation,
    ConfigError,
    EstimatorParams,
    Grid,
    GridFunction,
    Params,
    ReferenceSignal,
    SimConfig,
    Trace,
    validate_config,
)
from heatadapt import csvformat
from heatadapt.domain import MAX_SERVO_J, TRACE_COLUMNS, _Recorder, write_trace_csv


@pytest.mark.parametrize(
    "module", ["heatadapt", *(f"heatadapt.{m}" for m in
               ("analysis", "batch", "cli", "control", "csvformat", "domain", "fdm",
                "scenarios"))],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_readme_library_quick_start_runs(capsys):
    # the first python block under the README's "Library quick start", as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    zeta, tracking_err, is_pe = capsys.readouterr().out.split()
    # the printed values its comments promise: zeta identifies 1/b = -0.1, the
    # tracking error is small and the constant reference excites
    assert float(zeta) == pytest.approx(-0.1, abs=1e-4)
    assert float(tracking_err) < 1e-4
    assert is_pe == "True"


class TestParams:
    def test_benchmark_values_valid(self):
        p = Params(q=2.0, b=-10.0, c0=5.0, c1=5.0)
        assert p.sign_b == -1

    def test_sign_derived_for_positive_b(self):
        assert Params(q=1.0, b=3.0, c0=1.0, c1=1.0).sign_b == 1

    @pytest.mark.parametrize("b", [5e-324, -5e-324, 1e-309])
    def test_b_without_a_finite_reciprocal_rejected(self, b):
        with pytest.raises(ConfigError, match=f"b={b!r} has no finite reciprocal"):
            Params(q=2.0, b=b, c0=5.0, c1=5.0)

    def test_zero_b_rejected(self):
        with pytest.raises(ConfigError, match="b must be nonzero and finite, got 0.0"):
            Params(q=2.0, b=0.0, c0=5.0, c1=5.0)

    @pytest.mark.parametrize("field,value", [("q", 0.0), ("q", -1.0), ("c0", 0.0), ("c1", -2.0)])
    def test_nonpositive_gains_rejected(self, field, value):
        kwargs = dict(q=2.0, b=-10.0, c0=5.0, c1=5.0)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be > 0, got {value}"):
            Params(**kwargs)

    def test_estimator_view_carries_no_b(self):
        est = Params(q=2.0, b=-10.0, c0=5.0, c1=5.0).estimator_view()
        assert est.sign_b == -1
        assert not hasattr(est, "b")

    def test_estimator_params_validate(self):
        with pytest.raises(ConfigError, match=r"sign_b must be \+1 or -1, got 0"):
            EstimatorParams(q=2.0, sign_b=0, c0=5.0, c1=5.0)


class TestGrid:
    def test_endpoints_exact(self):
        g = Grid(51)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 1.0

    def test_dx(self):
        g = Grid(51)
        assert g.dx == pytest.approx(0.02, abs=0)
        assert g.dx * (g.n - 1) == pytest.approx(1.0, abs=4e-16)

    @pytest.mark.parametrize("n", [3, 11, 51, 101, 257])
    def test_nodes_match_ratio_within_ulps(self, n):
        g = Grid(n)
        exact = np.arange(n) / (n - 1)
        ulp = np.spacing(exact.clip(min=np.finfo(float).tiny))
        assert (np.abs(g.nodes - exact) <= 2 * ulp).all()

    def test_too_few_nodes(self):
        with pytest.raises(ConfigError):
            Grid(2)

    def test_from_dx(self):
        assert Grid.from_dx(0.02).n == 51
        with pytest.raises(ConfigError):
            Grid.from_dx(0.021)

    def test_from_dx_too_small_to_count_rejected(self):
        # 1/dx overflows to inf, which no node count converts from
        with pytest.raises(ConfigError, match="dx=5e-324 gives more grid nodes"):
            Grid.from_dx(5e-324)

    def test_nodes_read_only(self):
        g = Grid(11)
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0


class TestGridFunction:
    def test_rejects_nan(self, grid51):
        vals = np.zeros(51)
        vals[3] = np.nan
        with pytest.raises(ConfigError):
            GridFunction(grid51, vals)

    def test_rejects_wrong_length(self, grid51):
        with pytest.raises(ConfigError):
            GridFunction(grid51, np.zeros(50))

    def test_values_immutable(self, ramp51):
        with pytest.raises(ValueError):
            ramp51.values[0] = 7.0
        with pytest.raises(AttributeError):
            ramp51.values = np.zeros(51)

    def test_copies_input(self, grid51):
        vals = np.zeros(51)
        f = GridFunction(grid51, vals)
        vals[0] = 99.0
        assert f.values[0] == 0.0


class TestSimConfig:
    def test_benchmark_config_valid(self, params8, grid51):
        c = SimConfig(dt=1e-4, t_final=5.0, grid=grid51)
        validate_config(params8, c)

    def test_cfl_violation(self, grid51):
        # dx = 0.02 gives the bound dt <= 2e-4
        with pytest.raises(CflViolation):
            SimConfig(dt=3e-4, t_final=1.0, grid=grid51)

    def test_cfl_boundary_value_allowed(self, grid51):
        SimConfig(dt=grid51.dx**2 / 2, t_final=1.0, grid=grid51)

    def test_horizon_shorter_than_step(self, grid51):
        with pytest.raises(ConfigError):
            SimConfig(dt=1e-4, t_final=5e-5, grid=grid51)

    def test_horizon_must_be_whole_steps(self, grid51):
        with pytest.raises(ConfigError, match="whole number of steps"):
            SimConfig(dt=1e-4, t_final=1.5e-4, grid=grid51)
        # horizons whose t_final/dt rounds in floating point stay accepted
        for t_final, dt in ((5.0, 1e-4), (10.0, 1e-4), (0.5, 1e-4), (0.3, 1e-4),
                            (0.1, 1e-4), (0.2, 1e-5), (0.05, 1e-5)):
            c = SimConfig(dt=dt, t_final=t_final, grid=grid51, pe_window_tau=t_final)
            assert c.n_steps == round(t_final / dt)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -math.inf])
    def test_horizon_must_be_finite(self, grid51, t_final):
        with pytest.raises(ConfigError, match="t_final must be finite"):
            SimConfig(dt=1e-4, t_final=t_final, grid=grid51)

    @pytest.mark.parametrize("dt, t_final", [(5e-324, 5.0), (1e-4, 1e308)])
    def test_step_count_past_the_float_range_rejected(self, grid51, dt, t_final):
        # t_final / dt overflows to inf, which no step count converts from
        with pytest.raises(ConfigError, match=re.escape(f"t_final={t_final} holds more steps of dt={dt}")):
            SimConfig(dt=dt, t_final=t_final, grid=grid51)

    def test_pe_window_longer_than_horizon(self, grid51):
        with pytest.raises(ConfigError):
            SimConfig(dt=1e-4, t_final=0.5, grid=grid51, pe_window_tau=1.0)

    def test_n_steps(self, grid51):
        c = SimConfig(dt=1e-4, t_final=1.0, grid=grid51)
        assert c.n_steps == 10000

    def test_servo_truncation_bounded(self, grid51):
        # (2J + 3)! passes the float range from J = 84 on
        SimConfig(dt=1e-4, t_final=1.0, grid=grid51, servo_truncation_J=MAX_SERVO_J)
        for J in (MAX_SERVO_J + 1, 10**9):
            with pytest.raises(ConfigError, match=f"servo_truncation_J must be <= 83, got {J}"):
                SimConfig(dt=1e-4, t_final=1.0, grid=grid51, servo_truncation_J=J)


class TestReferenceSignal:
    def test_constant_derivatives(self):
        r = ReferenceSignal.constant(3.0)
        assert r.derivative(0, 1.23) == 3.0
        assert r.derivative(1, 1.23) == 0.0
        assert r.derivative(7, 0.0) == 0.0

    def test_zero(self):
        r = ReferenceSignal.zero()
        assert r.derivative(0, 2.0) == 0.0

    @pytest.mark.parametrize("j", range(5))
    def test_sinusoid_derivative_closed_form(self, j):
        a, om, t = 0.7, 1.3, 0.9
        r = ReferenceSignal.sinusoid(a, om)
        # finite-difference check of the j-th derivative
        h = 1e-6
        if j == 0:
            expected = a * math.sin(om * t)
        else:
            expected = (r.derivative(j - 1, t + h) - r.derivative(j - 1, t - h)) / (2 * h)
        assert r.derivative(j, t) == pytest.approx(expected, rel=1e-6, abs=1e-8)

    def test_uniform_bound_flag(self):
        assert ReferenceSignal.constant(4.0).uniformly_bounded
        assert ReferenceSignal.sinusoid(1.0, 1.0).uniformly_bounded
        assert not ReferenceSignal.sinusoid(1.0, 2.0).uniformly_bounded

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ReferenceSignal(kind="ramp")


def _trace_scalars(times, **overrides):
    sc = {k: np.zeros_like(times) for k in TRACE_COLUMNS}
    sc.update(overrides)
    return sc


class TestTrace:
    def test_requires_increasing_times(self):
        t = np.array([0.0, 1.0, 1.0])
        with pytest.raises(ConfigError):
            Trace(times=t, scalars=_trace_scalars(t))

    def test_rejects_nonfinite_scalar(self):
        t = np.array([0.0, 1.0])
        bad = _trace_scalars(t, wnorm=np.array([0.0, np.inf]))
        with pytest.raises(ConfigError):
            Trace(times=t, scalars=bad)

    def test_terminal(self):
        t = np.array([0.0, 0.5, 1.0])
        tr = Trace(times=t, scalars=_trace_scalars(t, zeta=np.array([0.0, -0.05, -0.1])))
        assert tr.terminal("zeta") == -0.1

    def test_blown_up_follows_blow_up_time(self):
        t = np.array([0.0, 0.3])
        assert Trace(times=t, scalars=_trace_scalars(t), blow_up_time=0.3).blown_up
        tr = Trace(times=t, scalars=_trace_scalars(t))
        assert not tr.blown_up
        with pytest.raises(AttributeError):
            tr.blown_up = True

    @pytest.mark.parametrize("name, value", [("times", np.array([1.0, 0.0])),
                                             ("blow_up_time", math.nan), ("scalars", {})],
                             ids=["times", "blow_up_time", "scalars"])
    def test_fields_cannot_be_assigned(self, name, value):
        # times given as a list still become a float array
        tr = Trace(times=[0, 0.3], scalars=_trace_scalars(np.array([0.0, 0.3])))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tr, name, value)
        assert not tr.blown_up and tr.times.dtype == float and tr.times.tolist() == [0.0, 0.3]


    def test_contents_cannot_be_written(self):
        # times and columns are read-only views of the arrays given, which
        # stay writeable; the column mappings take no new keys or values
        t, zeta, gap = np.array([0.0, 0.3]), np.array([0.0, -0.1]), np.ones(2)
        tr = Trace(times=t, scalars=_trace_scalars(t, zeta=zeta), extras={"gap": gap})
        with pytest.raises(ValueError, match="read-only"):
            tr.times[1] = -1.0
        with pytest.raises(ValueError, match="read-only"):
            tr["zeta"][0] = np.nan
        with pytest.raises(TypeError):
            tr.scalars["zeta"] = np.array([np.nan, np.nan])
        with pytest.raises(TypeError):
            tr.extras["gap"] = np.array([np.nan, np.nan])
        for mine, given in ((tr.times, t), (tr["zeta"], zeta), (tr["gap"], gap)):
            assert np.shares_memory(mine, given) and given.flags.writeable
        assert tr.times.tolist() == [0.0, 0.3] and tr["zeta"].tolist() == [0.0, -0.1]


class TestRecorder:
    def test_rows_become_contiguous_columns(self):
        # 7 steps at stride 3 sample at steps 0, 3 and 6 and at the end
        rec = _Recorder(("w0", "gap", "wnorm"), 7, 3)
        rec.rows(1)[:] = (0.0, 0, 0, 0.0)
        rec.rows(3)[:] = [(0.5 * k, k, -k, 2.0 * k) for k in range(1, 4)]
        tr = rec.build(final_state=None)
        assert rec.data.shape == (4, 4)
        assert tr.times.tolist() == [0.0, 0.5, 1.0, 1.5]
        assert tr["w0"].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert tr["wnorm"].tolist() == [0.0, 2.0, 4.0, 6.0]
        assert list(tr.extras) == ["gap"] and tr["gap"].tolist() == [0.0, -1.0, -2.0, -3.0]
        # names a row does not supply are zero; the rest are views of one array
        assert all(not tr[k].any() for k in TRACE_COLUMNS if k not in ("w0", "wnorm"))
        for col in (tr.times, tr["w0"], tr["gap"]):
            assert col.flags.c_contiguous and np.shares_memory(col, rec.data)

    def test_mapped_array_builds_the_same_trace(self):
        traces = []
        for mapped in (False, True):
            rec = _Recorder(("w0", "gap"), 7, 3, mapped=mapped)
            for k in range(4):
                rec.rows(1)[:] = (0.5 * k, k, -k)
            traces.append(rec.build(final_state=None))
        plain, mapped = traces
        assert mapped.times.tobytes() == plain.times.tobytes()
        for k in (*TRACE_COLUMNS, "gap"):
            assert mapped[k].tobytes() == plain[k].tobytes(), k
        assert mapped["w0"].flags.c_contiguous and rec.data.flags.writeable


def percent_csv(values: np.ndarray, cols: int) -> bytes:
    """``values`` as rows of ``cols``, each printed by ``"%.17g" % v``."""
    seps = [","] * (cols - 1) + ["\n"]
    return "".join("%.17g" % v + seps[i % cols] for i, v in enumerate(values.tolist())).encode()


def kernel_csv(path: Path, values: np.ndarray, cols: int) -> bytes:
    """``values`` as rows of ``cols`` through the CSV writer, without its header line."""
    header = ",".join("h" * cols)
    csvformat.write_csv(path, header, [[values[j::cols] for j in range(cols)]])
    return path.read_bytes()[len(header) + 1:]


class TestCsvWriter:
    """The writer's kernel prints every float as ``"%.17g" % v`` does, byte for byte."""

    def test_bytes_equal_percent_formatting(self, tmp_path, rng):
        bits = rng.integers(0, 2**64, 40000, dtype=np.uint64).view(float)
        m, j = rng.integers(1, 2**21, 20000), rng.integers(1, 70, 20000)
        k = np.arange(-323, 309)
        values = np.concatenate([
            # random bit patterns over every exponent, subnormals among them, and +-max
            bits[np.isfinite(bits)], [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310],
            [np.finfo(float).max, -np.finfo(float).max, 0.0, -0.0],
            # dyadic values with an exact 18-digit tie among them: 2**-25, m 2**-j
            [2.0**-25, -(2.0**-25)], m * 2.0 ** -j,
            # powers of ten and their neighbours one ulp away
            10.0**k, np.nextafter(10.0**k, np.inf), np.nextafter(10.0**k, 0.0),
            np.arange(20000) * 1e-5,
            # integers around 10**16 and 10**17, where a digit joins the integer part
            np.arange(10**16 - 2000, 10**16 + 2000, dtype=float),
            np.arange(10**17 - 4000, 10**17 + 4000, 2, dtype=float),
        ])
        values = np.resize(values, -(-values.size // 10) * 10)
        assert kernel_csv(tmp_path / "x.csv", values, 10) == percent_csv(values, 10)

    def test_a_chunk_of_fallbacks_and_a_chunk_of_none(self, tmp_path, monkeypatch):
        taken = []
        percent = csvformat._percent

        def spy(values):
            taken.append(values.size)
            return percent(values)

        monkeypatch.setattr(csvformat, "_percent", spy)
        n = csvformat.CHUNK_ROWS * 3
        # subnormals all take the fallback; 1/7 and its multiples none
        values = np.concatenate([np.arange(1, n + 1) * 5e-324, np.arange(1, n + 1) / 7.0])
        assert kernel_csv(tmp_path / "x.csv", values, 3) == percent_csv(values, 3)
        assert taken == [n]

    def test_writing_a_long_trace_peaks_below_the_percent_writer(self, tmp_path):
        rng = np.random.default_rng(20240817)
        rows = 20001
        trace = Trace(times=np.arange(rows) * 1e-5,
                      scalars={c: rng.standard_normal(rows) for c in TRACE_COLUMNS})
        write_trace_csv(trace, tmp_path)  # the formatting tables, built once a process
        tracemalloc.start()
        try:
            write_trace_csv(trace, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the per-chunk `%` writer that this one replaced peaked at 712,543 B here
        assert peak <= 712_543
