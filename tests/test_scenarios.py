import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatadapt import (
    BLOWUP_NORM,
    ConfigError,
    FluxBC,
    Grid,
    GridFunction,
    NonFiniteState,
    Params,
    ReferenceSignal,
    SimConfig,
    TruncationInsufficient,
    adaptive_u0,
    benchmark_initial_state,
    l2_norm,
    run_error_system,
    run_observer,
    run_open_loop,
    run_stabilization,
    run_tracking,
    servo_boundary,
    servo_eval,
    step_heat,
    zeta_step,
)
from heatadapt import pairs, scenarios
from heatadapt.control import _ServoSeries
from heatadapt.domain import TRACE_COLUMNS
from heatadapt.fdm import GradientEnergy, HeatStepper, grad_values
from heatadapt.scenarios import _blown_up, _require_finite, _sq_norm


def cfg(grid, t_final, dt=1e-4, stride=100, snap=0):
    return SimConfig(
        dt=dt,
        t_final=t_final,
        grid=grid,
        sample_stride=stride,
        snapshot_stride=snap,
        pe_window_tau=min(1.0, t_final),
    )


class TestOpenLoop:
    def test_zero_state_is_equilibrium(self, params8, grid51, zeros51):
        tr = run_open_loop(params8, cfg(grid51, 0.2), zeros51)
        assert np.abs(tr["wnorm"]).max() == 0.0

    def test_unstable_growth_at_q2(self, params8, grid51, ramp51):
        tr = run_open_loop(params8, cfg(grid51, 2.0), ramp51)
        assert tr["wnorm"][-1] / tr["wnorm"][0] >= 5.0
        late = tr["wnorm"][tr.times >= 0.5]
        assert (np.diff(late) > 0).all()

    def test_blow_up_marker(self, params8, grid51, ramp51):
        tr = run_open_loop(params8, cfg(grid51, 8.0), ramp51)
        assert tr.blown_up
        assert tr.blow_up_time == pytest.approx(6.83, abs=0.1)
        assert np.isfinite(tr["wnorm"]).all()
        assert tr.times[-1] < 8.0

    @pytest.mark.parametrize("norm0", [1e10, 0.9999 * BLOWUP_NORM])
    def test_blow_up_step_next_to_threshold(self, grid51, ramp51, norm0):
        # from 1e10 the run crosses from the cheap blow-up test to the exact
        # norm before it passes BLOWUP_NORM; it must stop at the first step
        # whose norm passes it, as the reference route that takes the exact
        # norm every step does
        p = Params(q=9.0, b=-10.0, c0=5.0, c1=5.0)
        w0 = GridFunction(grid51, ramp51.values * (norm0 / l2_norm(ramp51)))
        c = cfg(grid51, 0.5, stride=1)
        tr = run_open_loop(p, c, w0)
        times, rows, *_, t_blow = reference_run("open", p, c, w0)
        assert tr.blown_up and tr.blow_up_time == t_blow == tr.times[-1]
        assert tr["wnorm"][-2] <= BLOWUP_NORM < tr["wnorm"][-1]
        assert bits(tr.times) == bits(times)
        assert bits(tr["wnorm"]) == bits([r["wnorm"] for r in rows])

    def test_wrong_grid_rejected(self, params8, grid51):
        other = GridFunction.zeros(Grid(26))
        with pytest.raises(ConfigError):
            run_open_loop(params8, cfg(grid51, 0.1), other)


class TestObserver:
    def test_matched_start_is_error_equilibrium(self, params8, grid51, ramp51):
        # zero initial mismatch and an exact reciprocal estimate stay put
        tr = run_observer(
            params8, cfg(grid51, 0.2), ramp51, ramp51, 1.0 / params8.b, lambda t: math.sin(t)
        )
        assert np.abs(tr["obs_err_norm"]).max() <= 1e-10
        assert np.abs(tr["zeta"] - 1.0 / params8.b).max() <= 1e-12

    def test_zero_input_freezes_estimate(self, params8, grid51, ramp51, zeros51):
        tr = run_observer(params8, cfg(grid51, 0.5), ramp51, zeros51, 0.3, lambda t: 0.0)
        assert (tr["zeta"] == 0.3).all()
        assert tr["obs_err_norm"][-1] < tr["obs_err_norm"][0]

    def test_lyapunov_decreases_per_step(self, params8, grid51, ramp51, zeros51):
        tr = run_observer(
            params8, cfg(grid51, 1.0, stride=1), ramp51, zeros51, 0.0, lambda t: math.exp(-t)
        )
        assert np.diff(tr["F"]).max() <= 1e-8

    def test_energy_identity_residual(self, params8, grid51, ramp51, zeros51):
        tr = run_observer(
            params8, cfg(grid51, 1.0), ramp51, zeros51, 0.0, lambda t: math.exp(-t)
        )
        residual = abs(tr["diss_cum"][-1] - (tr["F"][0] - tr["F"][-1]))
        assert residual < 1e-3


class TestErrorSystemEquivalence:
    def test_two_routes_agree(self, params8, grid51, ramp51, zeros51):
        # observer-minus-plant and the direct error simulation are the same
        # arithmetic; fields must agree to rounding accumulation
        u0 = lambda t: math.exp(-t)
        c = cfg(grid51, 1.0, snap=2000)
        tro = run_observer(params8, c, ramp51, zeros51, 0.0, u0)
        tre = run_error_system(params8, c, ramp51, 1.0 / params8.b, u0)
        for (t1, f1), (t2, f2) in zip(tro.snapshots, tre.snapshots):
            assert t1 == t2
            assert np.abs((f1["w"] - f1["what"]) - f2["w"]).max() <= 1e-10
        assert np.abs((1.0 / params8.b - tro["zeta"]) - tre["zeta"]).max() <= 1e-10
        assert np.abs(tro["obs_err_norm"] - tre["obs_err_norm"]).max() <= 1e-10


class TestStabilization:
    def test_zero_data_is_equilibrium(self, params8, grid51, zeros51):
        tr = run_stabilization(params8, cfg(grid51, 0.3), zeros51, zeros51, 0.0)
        assert np.abs(tr["wnorm"]).max() == 0.0
        assert np.abs(tr["zeta"]).max() == 0.0

    def test_contracts_the_state(self, params8, grid51, ramp51, zeros51):
        tr = run_stabilization(params8, cfg(grid51, 3.0), ramp51, zeros51, 0.0)
        assert tr["wnorm"][-1] < 0.1 * tr["wnorm"][0]
        assert np.diff(tr["F"]).max() <= 1e-8

    def test_deterministic(self, params8, grid51, ramp51, zeros51):
        a = run_stabilization(params8, cfg(grid51, 0.3), ramp51, zeros51, 0.0)
        b = run_stabilization(params8, cfg(grid51, 0.3), ramp51, zeros51, 0.0)
        np.testing.assert_array_equal(a["zeta"], b["zeta"])
        np.testing.assert_array_equal(a["wnorm"], b["wnorm"])
        np.testing.assert_array_equal(a.times, b.times)


class TestTracking:
    def test_zero_everything_is_equilibrium(self, params8, grid51, zeros51):
        tr = run_tracking(
            params8, cfg(grid51, 0.3), zeros51, zeros51, 0.0, ReferenceSignal.zero()
        )
        assert np.abs(tr["wnorm"]).max() == 0.0
        assert np.abs(tr["tracking_err"]).max() == 0.0

    def test_moves_output_toward_constant_reference(self, params8, grid51, ramp51, zeros51):
        tr = run_tracking(
            params8, cfg(grid51, 2.0), ramp51, zeros51, 0.0, ReferenceSignal.constant(3.0)
        )
        assert abs(tr["tracking_err"][-1]) < 0.8  # from -4 at t=0
        assert abs(tr["tracking_err"][-1]) < abs(tr["tracking_err"][0])
        # servo boundary series for r*=3, q=2 are constants
        assert (tr["vx1"] == -6.0).all()
        assert (tr["v1"] == -3.0).all()

    def test_lyapunov_decreases(self, params8, grid51, ramp51, zeros51):
        tr = run_tracking(
            params8,
            cfg(grid51, 0.5, stride=1),
            ramp51,
            zeros51,
            0.0,
            ReferenceSignal.constant(3.0),
        )
        assert np.diff(tr["F"]).max() <= 1e-8

    @pytest.mark.usefixtures("stencil_route")
    @pytest.mark.parametrize("n, dt, t_final, stride, snap, q, gain", [
        (51, 1e-4, 0.3, 37, 50, 2.0, 5.0),
        (201, 1e-5, 0.01, 37, 0, 2.0, 5.0),
        (51, 1e-4, 0.1, 4, 6, 9.0, 0.01),  # blows up at step 9
    ])
    def test_zero_reference_equals_stabilization(self, n, dt, t_final, stride, snap, q, gain):
        # with r = 0 the servo terms are +0.0, and tracking is the stabilizing loop bit for bit
        grid = Grid(n)
        c = cfg(grid, t_final, dt=dt, stride=stride, snap=snap)
        p = Params(q=q, b=-10.0, c0=gain, c1=gain)
        w0 = benchmark_initial_state(grid, q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        tr = run_tracking(p, c, w0, what0, 0.0, ReferenceSignal.zero())
        st = run_stabilization(p, c, w0, what0, 0.0)
        assert tr.blown_up is st.blown_up is (q == 9.0)
        assert tr.blow_up_time == st.blow_up_time
        assert bits(tr.times) == bits(st.times)
        for name in TRACE_COLUMNS:
            assert bits(tr[name]) == bits(st[name]), name
        assert len(tr.snapshots) == len(st.snapshots) and bool(tr.snapshots) == bool(snap)
        for (t1, f1), (t2, f2) in zip(tr.snapshots, st.snapshots):
            assert t1 == t2 and f1.keys() == f2.keys() == {"w", "what"}
            assert all(bits(f1[k]) == bits(f2[k]) for k in f1)
        a, b = tr.final_state, st.final_state
        assert a.t == b.t
        assert bits(a.w.values) == bits(b.w.values) and bits(a.what.values) == bits(b.what.values)
        assert bits([a.zeta, a.last_u0, a.last_u]) == bits([b.zeta, b.last_u0, b.last_u])


class TestErrorSystem:
    def test_zero_error_stays_zero(self, params8, grid51, zeros51):
        tr = run_error_system(params8, cfg(grid51, 0.3), zeros51, 0.0, lambda t: 1.0)
        assert np.abs(tr["wnorm"]).max() == 0.0
        assert np.abs(tr["zeta"]).max() == 0.0

    def test_constant_input_identifies_parameter(self, params8, grid51, ramp51):
        # u0 = 1 keeps every sliding-window integral at 1, so the parameter
        # error must vanish; it drops below 0.01 within about one second
        tr = run_error_system(params8, cfg(grid51, 1.5), ramp51, -0.1, lambda t: 1.0)
        assert abs(tr["zeta"][-1]) < 0.01

    def test_parameter_error_bound(self, params8, grid51, ramp51):
        tr = run_error_system(params8, cfg(grid51, 1.0), ramp51, -0.1, lambda t: math.sin(t))
        bound = math.sqrt(2.0 * tr["F"][0] / abs(params8.b))
        assert np.abs(tr["zeta"]).max() <= bound + 1e-12


def reference_run(kind, p, config, w0, what0=None, zeta0=0.0, u0_signal=None, ref=None):
    """The runners' arithmetic through step_heat, FluxBC and grad_values.

    A plain loop that allocates new GridFunctions every step, as the
    runners did before they shared one in-place stepper.  Returns
    (times, rows, snapshots, final fields, zeta, last u0, last u,
    blow-up time).
    """
    dt, dx, grid = config.dt, config.grid.dx, config.grid
    q, b, c1, sgn = p.q, p.b, p.c1, p.sign_b
    est = p.estimator_view()
    J = config.servo_truncation_J

    def sq(v):
        v2 = v * v
        return dx * (v2.sum() - 0.5 * (v2[0] + v2[-1]))

    st = {"w": w0, "what": what0, "zeta": zeta0, "u0": 0.0, "u": 0.0, "innov": 0.0,
          "diss": 0.0, "servo": None}

    def inputs(t):
        w, what = st["w"].values, st["what"].values if st["what"] is not None else None
        if kind == "observer":
            st["u0"] = u0_signal(t)
        elif kind == "stabilize":
            st["u0"] = adaptive_u0(st["what"], est)
        elif kind == "track":
            st["servo"] = servo_boundary(ref, q, t, J)
            st["u0"] = adaptive_u0(st["what"], est, st["servo"])
            st["innov"] = w[-1] - st["servo"].v1 - what[-1]
        elif kind == "error":
            st["u0"] = u0_signal(t)
            st["innov"] = w[-1]
        if kind in ("observer", "stabilize"):
            st["innov"] = w[-1] - what[-1]
        if kind in ("observer", "stabilize", "track"):
            st["u"] = st["zeta"] * st["u0"]

    def advance(t):
        w, what, zeta, u0, u, innov = (st[k] for k in ("w", "what", "zeta", "u0", "u", "innov"))
        if kind == "open":
            st["w"] = step_heat(w, FluxBC(-q * w.values[0], 0.0), dt)
        elif kind in ("observer", "stabilize"):
            gerr = grad_values(w.values - what.values, dx)
            st["diss"] += dt * (sq(gerr) + c1 * innov * innov)
            left = -q * w.values[0]
            st["w"] = step_heat(w, FluxBC(left, b * u), dt)
            st["what"] = step_heat(what, FluxBC(left, u0 + c1 * innov), dt)
            st["zeta"] = zeta_step(zeta, sgn, innov, u0, dt)
        elif kind == "track":
            r_t = ref.derivative(0, t)
            w_at_0 = w.values[0]
            st["w"] = step_heat(w, FluxBC(-q * w_at_0, b * u), dt)
            right = u0 + c1 * innov - st["servo"].vx1
            st["what"] = step_heat(what, FluxBC(-q * (w_at_0 - r_t), right), dt)
            st["zeta"] = zeta_step(zeta, sgn, innov, u0, dt)
        else:
            g = grad_values(w.values, dx)
            st["diss"] += dt * (sq(g) + c1 * innov * innov)
            st["w"] = step_heat(w, FluxBC(0.0, -b * zeta * u0 - c1 * innov), dt)
            st["zeta"] = zeta + dt * sgn * u0 * innov

    def row(t):
        w = st["w"].values
        if kind == "open":
            return {"w0": w[0], "w1": w[-1], "wnorm": l2_norm(st["w"])}
        zt = st["zeta"]
        if kind == "error":
            e = 0.5 * sq(w)
            return {"u0": st["u0"], "zeta": zt, "w0": w[0], "w1": w[-1],
                    "wnorm": math.sqrt(2.0 * e), "obs_err_norm": math.sqrt(2.0 * e), "E": e,
                    "F": e + 0.5 * abs(b) * zt * zt, "diss_cum": st["diss"]}
        err = w - st["what"].values
        if kind == "track":
            err = w - servo_eval(ref, q, grid.nodes, t, J) - st["what"].values
        e = 0.5 * sq(err)
        zt_err = 1.0 / b - zt
        out = {"u0": st["u0"], "u": st["u"], "zeta": zt, "w0": w[0], "w1": w[-1],
               "wnorm": math.sqrt(sq(w)), "obs_err_norm": math.sqrt(2.0 * e), "E": e,
               "F": e + 0.5 * abs(b) * zt_err * zt_err}
        if kind == "track":
            r_t = ref.derivative(0, t)
            out.update(tracking_err=w[0] - r_t, ref=r_t, v1=st["servo"].v1,
                       vx1=st["servo"].vx1)
        else:
            out["diss_cum"] = st["diss"]
        return out

    def fields():
        return {k: st[k].values.copy() for k in ("w", "what") if st[k] is not None}

    times, rows, snaps, t_blow = [], [], [], None
    for k in range(config.n_steps):
        t = k * dt
        inputs(t)
        if k % config.sample_stride == 0:
            times.append(t)
            rows.append(row(t))
        if config.snapshot_stride and k % config.snapshot_stride == 0:
            snaps.append((t, fields()))
        advance(t)
        if math.sqrt(sq(st["w"].values)) > BLOWUP_NORM:
            t_blow = (k + 1) * dt
            break
    t_end = t_blow if t_blow is not None else config.n_steps * dt
    inputs(t_end)
    times.append(t_end)
    rows.append(row(t_end))
    if config.snapshot_stride:
        snaps.append((t_end, fields()))
    return times, rows, snaps, fields(), st["zeta"], st["u0"], st["u"], t_blow


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def assert_matches_reference(tr, expected, snap):
    """The trace equals reference_run's results bit for bit."""
    times, rows, snaps, final, zeta, last_u0, last_u, t_blow = expected
    assert tr.blow_up_time == t_blow
    assert bits(tr.times) == bits(times)
    for name in tr.scalars:
        assert bits(tr.scalars[name]) == bits([r.get(name, 0.0) for r in rows]), name
    assert set(tr.extras) == set(rows[0]) - set(tr.scalars)
    for name in tr.extras:
        assert bits(tr.extras[name]) == bits([r[name] for r in rows]), name
    assert len(tr.snapshots) == len(snaps) and bool(snaps) == bool(snap)
    for (t1, f1), (t2, f2) in zip(tr.snapshots, snaps):
        assert t1 == t2 and f1.keys() == f2.keys()
        assert all(bits(f1[k]) == bits(f2[k]) for k in f1)
    fs = tr.final_state
    assert fs.t == times[-1]
    assert bits(fs.w.values) == bits(final["w"])
    if "what" in final:
        assert bits(fs.what.values) == bits(final["what"])
    else:
        assert fs.what is None
    assert bits([fs.zeta, fs.last_u0, fs.last_u]) == bits([zeta, last_u0, last_u])


class TestRunnersMatchReferenceRoute:
    """Every runner reproduces the step_heat/grad_values route bit for bit."""

    @pytest.mark.usefixtures("stencil_route")
    @pytest.mark.parametrize(
        "kind, t_final, snap, stride, ref",
        [("open", 1.0, 997, 37, None), ("observer", 0.3, 700, 37, None),
         ("stabilize", 0.3, 0, 37, None), ("track", 0.3, 1100, 37, "sin"),
         ("error", 0.3, 500, 37, None),
         # at n = 51 a chunk records 320 steps: a sample stride longer than a
         # chunk, a run that ends one step after a flush, one shorter than a
         # chunk, and snapshots that end blocks inside chunks
         ("track", 0.1, 0, 700, "sin"), ("error", 0.1, 0, 700, None),
         ("track", 0.0321, 0, 7, "sin"), ("error", 0.0321, 0, 7, None),
         ("track", 0.02, 0, 7, "sin"), ("error", 0.02, 0, 7, None),
         ("track", 0.06, 100, 7, "sin"), ("error", 0.06, 100, 7, None),
         # the servo terms of the other references: r(0) = -0.0 for a negative
         # amplitude, and a constant and a zero series
         ("track", 0.3, 1100, 37, "sin-neg"), ("track", 0.3, 1100, 37, "const"),
         ("track", 0.3, 1100, 37, "zero")],
        ids=["open-1.0-997", "observer-0.3-700", "stabilize-0.3-0", "track-0.3-1100",
             "error-0.3-500", "track-stride-700", "error-stride-700", "track-end-after-flush",
             "error-end-after-flush", "track-short", "error-short", "track-snap-100",
             "error-snap-100", "track-sin-neg", "track-const", "track-zero"],
    )
    def test_trace_equals_reference(self, kind, t_final, snap, stride, ref, grid51, ramp51):
        p = Params(q=9.0, b=-10.0, c0=5.0, c1=5.0) if kind == "open" else Params(
            q=2.0, b=-10.0, c0=5.0, c1=5.0)
        c = cfg(grid51, t_final, stride=stride, snap=snap)
        what0 = GridFunction(grid51, 0.3 * np.sin(3.0 * grid51.nodes))
        u0 = lambda t: math.exp(-t)
        if kind == "open":
            tr = run_open_loop(p, c, ramp51)
            expected = reference_run(kind, p, c, ramp51)
        elif kind == "observer":
            tr = run_observer(p, c, ramp51, what0, 0.05, u0)
            expected = reference_run(kind, p, c, ramp51, what0, 0.05, u0_signal=u0)
        elif kind == "stabilize":
            tr = run_stabilization(p, c, ramp51, what0, 0.0)
            expected = reference_run(kind, p, c, ramp51, what0, 0.0)
        elif kind == "track":
            tr = run_tracking(p, c, ramp51, what0, 0.0, REFERENCES[ref])
            expected = reference_run(kind, p, c, ramp51, what0, 0.0, ref=REFERENCES[ref])
        else:
            tr = run_error_system(p, c, ramp51, -0.1, u0)
            expected = reference_run(kind, p, c, ramp51, None, -0.1, u0_signal=u0)
        assert tr.blown_up is (kind == "open")
        assert tr.final_state.route == "stencil"
        assert_matches_reference(tr, expected, snap)

    @pytest.mark.parametrize("n, dt, t_final, stride, snap, q, gain, ref", [
        (51, 1e-4, 0.3, 37, 50, 2.0, 5.0, None),  # snapshot stride coprime to the sample stride
        (201, 1e-5, 0.01, 37, 250, 2.0, 5.0, None),
        (51, 1e-4, 0.1, 4, 6, 9.0, 0.01, None),  # blows up at step 9, inside the block [8, 12)
        (51, 1e-4, 0.02, 1, 7, 2.0, 5.0, None),
        (51, 1e-4, 0.01, 500, 30, 2.0, 5.0, None),  # one sample stride spans the whole run
        # tracking: above the cutoff, where no test changes the route, and at n = 51
        (201, 1e-5, 0.01, 37, 250, 2.0, 5.0, "sin-neg"),
        (102, 4e-5, 0.02, 7, 130, 2.0, 5.0, "const"),
        (51, 1e-4, 0.1, 4, 6, 9.0, 0.01, "const"),
        (51, 1e-4, 0.02, 1, 7, 2.0, 5.0, "zero"),
    ], ids=["51-0.0001-0.3-37-50-2.0-5.0", "201-1e-05-0.01-37-250-2.0-5.0",
            "51-0.0001-0.1-4-6-9.0-0.01", "51-0.0001-0.02-1-7-2.0-5.0",
            "51-0.0001-0.01-500-30-2.0-5.0", "track-sin-neg-n201", "track-const-n102",
            "track-const-blow-up", "track-zero-stride-1"])
    def test_stabilize_block_schedule(self, request, n, dt, t_final, stride, snap, q, gain, ref):
        # the block boundaries of the samples and snapshots, and a blow-up
        # between them, against the reference route's step-by-step loop; the
        # stencil route is forced only where the grid would take the operator
        if n <= scenarios._OPERATOR_MAX_N:
            request.getfixturevalue("stencil_route")
        grid = Grid(n)
        c = cfg(grid, t_final, dt=dt, stride=stride, snap=snap)
        p = Params(q=q, b=-10.0, c0=gain, c1=gain)
        w0 = benchmark_initial_state(grid, q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        if ref is None:
            tr = run_stabilization(p, c, w0, what0, 0.0)
            expected = reference_run("stabilize", p, c, w0, what0, 0.0)
        else:
            tr = run_tracking(p, c, w0, what0, 0.0, REFERENCES[ref])
            expected = reference_run("track", p, c, w0, what0, 0.0, ref=REFERENCES[ref])
        assert tr.final_state.route == "stencil"
        assert tr.blown_up is (q == 9.0)
        if tr.blown_up:
            k = round(tr.blow_up_time / dt)
            assert k < c.n_steps and k % stride and k % snap
        assert_matches_reference(tr, expected, snap)

    def test_returned_fields_are_copies(self, monkeypatch, params8, grid51, ramp51, zeros51):
        # the runner's slab is reused every block; nothing a runner
        # returns may be a view of it.  Snapshots are views of the
        # recorder's array, each of its own slot.  Both routes, operator first.
        slabs = []

        def slab(width, _slab=scenarios._slab):
            slabs.append(_slab(width))
            return slabs[-1]

        monkeypatch.setattr(scenarios, "_slab", slab)
        for cutoff in (scenarios._OPERATOR_MAX_N, 0):
            monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", cutoff)
            tr = run_stabilization(params8, cfg(grid51, 0.01, snap=50), ramp51, zeros51, 0.0)
            assert tr.final_state.route == ("operator" if cutoff else "stencil")
            fs = tr.final_state
            assert fs.w.values.flags.owndata and fs.what.values.flags.owndata
            snaps = [f for _, fields in tr.snapshots for f in fields.values()]
            assert len(snaps) == 2 * 3
            for i, f in enumerate(snaps):
                assert not np.shares_memory(f, slabs[-1])
                assert not any(np.shares_memory(f, g) for g in snaps[i + 1 :])


def per_step_run(kind, p, config, w0, what0=None, zeta0=0.0, u0_signal=None):
    """The observer and error-system loops as they were before their slabs.

    One HeatStepper step at a time, with the gradient energy of the error
    and its NaN/Inf check after every step and each sample's row built
    when the run reaches it.  Returns reference_run's tuple.
    """
    dt, dx, grid, stride = config.dt, config.grid.dx, config.grid, config.sample_stride
    q, b, c1, sgn = p.q, p.b, p.c1, p.sign_b
    half_b, inv_b = 0.5 * abs(b), 1.0 / b
    est = p.estimator_view()
    # steps from the first row of a two-row slab into the second, then copies it back
    slab = np.empty((2, (1 if kind == "error" else 2) * w0.grid.n))
    stepper = HeatStepper(slab, [w0.values] if kind == "error" else [w0.values, what0.values],
                          dx, dt)

    def step(*fluxes):
        stepper.step(0, *fluxes)
        slab[0] = slab[1]
        return stepper.rows[0]

    def energy(f):
        return _sq_norm(grad_values(f, dx), dx)

    def inputs(k, what):
        if kind == "stabilize":
            return adaptive_u0(GridFunction._wrap(grid, what.copy()), est)
        return u0_signal(k * dt)

    if kind == "error":
        (w,) = stepper.rows[0]
        what = None
        gsq = energy(w)
    else:
        w, what = stepper.rows[0]
        gsq = energy(w - what)
    zeta, diss, u0 = zeta0, 0.0, inputs(0, what)

    def row():
        if kind == "error":
            e = 0.5 * _sq_norm(w, dx)
            nrm = math.sqrt(2.0 * e)
            values = (u0, zeta, w[0], w[-1], nrm, nrm, e, e + half_b * zeta * zeta, diss)
            names = ("u0", "zeta", "w0", "w1", "wnorm", "obs_err_norm", "E", "F", "diss_cum")
        else:
            e = 0.5 * _sq_norm(w - what, dx)
            zt = inv_b - zeta
            values = (u0, zeta * u0, zeta, w[0], w[-1], math.sqrt(_sq_norm(w, dx)),
                      math.sqrt(2.0 * e), e, e + half_b * zt * zt, diss)
            names = (*TRACE_COLUMNS, "diss_cum")
        return dict(zip(names, values))

    def fields():
        return {"w": w.copy()} if what is None else {"w": w.copy(), "what": what.copy()}

    times, rows, snaps, k, t_blow = [], [], [], 0, None
    with np.errstate(over="ignore", invalid="ignore"):
        while k < config.n_steps:
            if k % stride == 0:
                times.append(k * dt)
                rows.append(row())
            if config.snapshot_stride and k % config.snapshot_stride == 0:
                snaps.append((k * dt, fields()))
            if kind == "error":
                wt1 = w.item(-1)
                diss += dt * (gsq + c1 * wt1 * wt1)
                zeta_new = zeta + dt * sgn * u0 * wt1
                (w,) = step(0.0, -b * zeta * u0 - c1 * wt1)
                gsq = energy(w)
            else:
                innov = w.item(-1) - what.item(-1)
                zeta_new = zeta_step(zeta, sgn, innov, u0, dt)
                w_at_0 = w.item(0)
                w, what = step(-q * w_at_0, b * (zeta * u0), -q * w_at_0, u0 + c1 * innov)
                diss += dt * (gsq + c1 * innov * innov)
                gsq = energy(w - what)
                if not math.isfinite(gsq):
                    _require_finite(w, what)
            zeta = zeta_new
            k += 1
            blown = _blown_up(w, dx)
            u0 = inputs(k, what)
            if blown:
                t_blow = k * dt
                break
        times.append(k * dt)
        rows.append(row())
    if config.snapshot_stride:
        snaps.append((k * dt, fields()))
    u = 0.0 if kind == "error" else zeta * u0
    return times, rows, snaps, fields(), zeta, u0, u, t_blow


#: (steps, stride, snap, q, scale, blow_up) by id: runs whose samples, snapshots
#: and blow-ups fall inside, on and across the slab's blocks and the record's chunks
SLAB_CASES = {
    # 301 steps: four full 64-step blocks and a partial one
    "stride-1": (301, 1, 0, 2.0, None, {}),
    "stride-7-snap-45": (301, 7, 45, 2.0, None, {}),
    "stride-64": (301, 64, 0, 2.0, None, {}),
    "stride-65-snap-45": (301, 65, 45, 2.0, None, {}),
    "stride-100": (301, 100, 0, 2.0, None, {}),
    # the plant blows up mid-slab: stabilize at step 10, observer and
    # open-loop from a ramp scaled to norm 0.6e12 at step 111
    "blow-up": (301, 7, 45, 9.0, 0.6e12, {"stabilize": 10, "observer": 111, "open": 111}),
    # at n = 51 a chunk records 320 steps (128 for stabilize and observer at
    # stride 1): a sample stride longer than a chunk, so that the chunk
    # [320, 640) samples nothing; a run that ends one step after a flush;
    # one shorter than a chunk; snapshots that end blocks inside chunks
    "stride-700": (1000, 700, 0, 2.0, None, {}),
    "end-after-flush": (321, 7, 0, 2.0, None, {}),
    "short": (200, 7, 0, 2.0, None, {}),
    "snap-100": (600, 7, 100, 2.0, None, {}),
    # blow-ups inside the second chunk: observer and open-loop from norm 1e11
    # at step 345, the error system from there under u0 = 225 at step 509
    "blow-up-in-chunk": (600, 7, 0, 9.0, 1e11,
                         {"stabilize": 10, "observer": 345, "open": 345, "error": 509}),
}


def slab_case(kind, grid, q, scale, blow_up):
    """The parameters, w0, what0, zeta0 and u0 of a :data:`SLAB_CASES` run of ``kind``."""
    ramp = GridFunction(grid, 2.0 * grid.nodes - 1.0)
    gain = 5.0 if q == 2.0 else 0.01
    p = Params(q=q, b=-10.0, c0=gain, c1=gain)
    w0 = ramp if scale is None or kind == "stabilize" else GridFunction(
        grid, ramp.values * (scale / l2_norm(ramp)))
    what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
    # the error system blows up where blow_up names it, under u0 = 225
    u0 = (lambda t: 225.0) if kind == "error" and kind in blow_up else (lambda t: math.exp(-t))
    return p, w0, what0, 0.0 if kind == "stabilize" else -0.1, u0


def run_kind(kind, p, c, w0, what0, zeta0, u0, **kwargs):
    """The run of ``kind`` that the slab tests take: stabilize, observer, error or open."""
    if kind == "stabilize":
        return run_stabilization(p, c, w0, what0, zeta0, **kwargs)
    if kind == "observer":
        return run_observer(p, c, w0, what0, zeta0, u0, **kwargs)
    if kind == "error":
        return run_error_system(p, c, w0, zeta0, u0, **kwargs)
    return run_open_loop(p, c, w0)


@pytest.mark.usefixtures("stencil_route")
class TestSlabsMatchPerStepLoop:
    """The slab runners against a loop that took every readout per step.

    That loop is per_step_run, or for open-loop reference_run.
    """

    @pytest.mark.parametrize("kind", ["stabilize", "observer", "error", "open"])
    @pytest.mark.parametrize("steps, stride, snap, q, scale, blow_up", SLAB_CASES.values(),
                             ids=list(SLAB_CASES))
    def test_trace_equals_per_step_loop(self, kind, steps, stride, snap, q, scale, blow_up,
                                        grid51):
        c = cfg(grid51, steps * 1e-4, stride=stride, snap=snap)
        assert c.n_steps == steps
        p, w0, what0, zeta0, u0 = slab_case(kind, grid51, q, scale, blow_up)
        tr = run_kind(kind, p, c, w0, what0, zeta0, u0)
        if kind == "open":
            expected = reference_run(kind, p, c, w0)
        else:
            expected = per_step_run(kind, p, c, w0, what0, zeta0, u0)
        # blow_up names the runs that blow up; the error field decays under
        # u0 = exp(-t), even from the scaled ramp
        assert tr.blown_up is (kind in blow_up)
        if tr.blown_up:
            assert round(tr.blow_up_time / c.dt) == blow_up[kind]
        assert_matches_reference(tr, expected, snap)

    def test_error_system_blow_up_equals_per_step_loop(self, params8, grid51, ramp51):
        # u0 = 300 drives the error field past the threshold at step 219, inside
        # the block [180, 225) that the snapshot at step 225 ends
        c = cfg(grid51, 0.0301, stride=7, snap=45)
        u0 = lambda t: 300.0
        tr = run_error_system(params8, c, ramp51, -0.1, u0)
        assert tr.blown_up and round(tr.blow_up_time / c.dt) == 219
        assert_matches_reference(tr, per_step_run("error", params8, c, ramp51, None, -0.1, u0), 45)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_observer_overflow_raises_at_the_same_step(self, stride, params8, grid51, ramp51):
        # the observer field overflows in the first step while w stays finite;
        # both loops raise before they ask for the next input
        vals = np.zeros(51)
        vals[24], vals[25] = 1e308, -1e308
        spike = GridFunction(grid51, vals)
        c = cfg(grid51, 0.01, stride=stride, snap=45)
        asked = []
        for run in (run_observer, lambda *args: per_step_run("observer", *args)):
            calls = []
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteState):
                    run(params8, c, ramp51, spike, 0.0, lambda t: calls.append(t) or 1.0)
            asked.append(calls)
        assert asked[0] == asked[1] == [0.0]


class TestErrorSystemBlockCheck:
    """The error system's blocks step unchecked and test their rows once.

    A block that fails the test is stepped again with the per-step checks,
    so each run must end as per_step_run does, at the same step.  The
    instants asked of u0 show where a run raised: both loops raise before
    they ask for the next one.
    """

    @staticmethod
    def raise_both(exc, c, w0, u0):
        asked = []
        for run in (run_error_system,
                    lambda p, c, w0, z0, u0: per_step_run("error", p, c, w0, None, z0, u0)):
            calls = []
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(exc) as info:
                    run(Params(q=2.0, b=-10.0, c0=5.0, c1=5.0), c, w0, -0.1,
                        lambda t: calls.append(t) or u0(t))
            asked.append((calls, str(info.value)))
        return asked

    @pytest.mark.parametrize("k", [64, 100, 127], ids=["first", "mid", "last"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_flux_that_turns_non_finite_in_a_block(self, grid51, ramp51, bad, k):
        # u0 turns non-finite at step k of the block [64, 128): the flux of
        # that step is the first non-finite one
        c = cfg(grid51, 0.0301, stride=7)
        (got, msg), (expected, expected_msg) = self.raise_both(
            ConfigError, c, ramp51, lambda t: bad if t >= k * c.dt else math.exp(-t))
        assert msg == expected_msg == "boundary fluxes must be finite"
        assert expected == [i * c.dt for i in range(k + 1)]
        # the unchecked pass asked up to the block's end, the checked one again up to step k
        assert got == expected + [i * c.dt for i in range(k + 1, 129)] + expected[65:]

    def test_field_that_turns_non_finite(self, grid51):
        # the field overflows in the first step of the first block, with
        # every flux finite; the checked pass raises before it asks for u0
        vals = np.zeros(51)
        vals[24], vals[25] = 1e308, -1e308
        c = cfg(grid51, 0.0301, stride=7)
        (got, msg), (expected, expected_msg) = self.raise_both(
            NonFiniteState, c, GridFunction(grid51, vals), lambda t: 1.0)
        assert msg == expected_msg
        assert expected == [0.0]
        assert got == [i * c.dt for i in range(65)]

    def test_blow_up_mid_block_at_stride_1(self, params8, grid51, ramp51):
        # u0 = 300 drives the error field past the threshold at step 219,
        # inside the block [192, 256); every sample is on the stride
        c = cfg(grid51, 0.0301, stride=1)
        u0 = lambda t: 300.0
        tr = run_error_system(params8, c, ramp51, -0.1, u0)
        assert tr.blown_up and round(tr.blow_up_time / c.dt) == 219
        assert_matches_reference(tr, per_step_run("error", params8, c, ramp51, None, -0.1, u0), 0)


class TestChunkRecord:
    """Blocks step, chunks record: the record of whole chunks of blocks."""

    def test_chunks_flush_at_a_fixed_row_count(self, monkeypatch, params8, grid51, ramp51,
                                               zeros51):
        # a chunk's buffers stay under glibc's mmap threshold: at n = 51 a
        # stabilize chunk records 320 steps (128 at stride 1, where it samples
        # every step), a tracking one too, and at n = 201 an error-system chunk
        # at stride 1 is one block
        assert scenarios._chunk_steps(51, 2 * 51 + 2, 100) == 320
        assert scenarios._chunk_steps(51, 2 * 51 + 2, 1) == 128
        assert scenarios._chunk_steps(51, 2 * 51 + 7, 100) == 320
        assert scenarios._chunk_steps(201, 201, 1) == scenarios._SLAB
        counts = []
        of_rows = GradientEnergy.of_rows

        def spy(self, m):
            assert self.rows.nbytes <= scenarios._CHUNK_BYTES
            counts.append(m)
            return of_rows(self, m)

        monkeypatch.setattr(GradientEnergy, "of_rows", spy)
        tr = run_stabilization(params8, cfg(grid51, 0.1), ramp51, zeros51, 0.0)
        assert tr.final_state.route == "operator"
        # 1000 steps: three full chunks and the rest, each one call
        assert counts == [320, 320, 320, 40]

    @pytest.mark.parametrize("kind, step", [("stabilize", 227), ("track", 226)])
    @pytest.mark.parametrize("stride", [1, 37])
    def test_handover_inside_a_chunk_records_as_blocks(self, monkeypatch, kind, step, stride):
        # the run hands over from the operator to the stencil at step 200 and
        # blows up after it, both inside the first chunk, whose blocks the
        # snapshots cut at every 50 steps: recorded once per chunk, it equals
        # the same run recorded after every block, bit for bit
        grid = Grid(51)
        c = cfg(grid, 0.5, stride=stride, snap=50)
        p = Params(q=6.0, b=-10.0, c0=0.5, c1=0.5)
        w0 = benchmark_initial_state(grid, p.q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))

        def run():
            if kind == "track":
                return run_tracking(p, c, w0, what0, 0.0, SINE)
            return run_stabilization(p, c, w0, what0, 0.0)

        tr = run()
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", 200)
        assert tr.blow_up_time == step * c.dt
        monkeypatch.setattr(scenarios, "_chunk_steps", lambda *args: scenarios._SLAB)
        assert_same_run(tr, run())


    @pytest.mark.parametrize("kind", ["open-loop", "observer", "stabilize", "track", "error"])
    @pytest.mark.parametrize("stride, snap", [(1, 0), (7, 45), (100, 700)])
    def test_fills_take_every_staged_sample_alike(self, monkeypatch, params8, grid51, ramp51,
                                                  kind, stride, snap):
        # a fill of each sample alone, of one chunk's samples or of many chunks'
        # writes the same record, bit for bit
        c = cfg(grid51, 0.3, stride=stride, snap=snap)
        what0 = GridFunction(grid51, 0.3 * np.sin(3.0 * grid51.nodes))
        u0 = lambda t: math.exp(-t)
        run = {"open-loop": lambda: run_open_loop(params8, c, ramp51),
               "observer": lambda: run_observer(params8, c, ramp51, what0, 0.05, u0),
               "stabilize": lambda: run_stabilization(params8, c, ramp51, what0, 0.0),
               "track": lambda: run_tracking(params8, c, ramp51, what0, 0.0, SINE),
               "error": lambda: run_error_system(params8, c, ramp51, -0.1, u0)}[kind]
        fills = []
        fill_rows = scenarios._observer_rows

        def spy(*args):
            used, width, gain, fill = fill_rows(*args)

            def counted(out, picked):
                fills.append(len(out))
                fill(out, picked)
            return used, width, gain, counted

        monkeypatch.setattr(scenarios, "_observer_rows", spy)
        tr = run()
        assert tr.times.size == 3000 // stride + 1 + (3000 % stride > 0)
        if kind in ("observer", "stabilize", "track"):
            # every sample is filled once: one fill a chunk where a chunk's samples
            # fill the staged rows (128 steps at stride 1, 320 at 7), and at
            # stride 100 two fills of the run's 31, where one a chunk took ten
            assert sum(fills) == tr.times.size
            assert len(fills) == {1: 24, 7: 10, 100: 2}[stride]
        for size in (1, 10_000):
            monkeypatch.setattr(scenarios, "_FILL_SAMPLES", size)
            again = run()
            assert bits(again.times) == bits(tr.times)
            for name in (*tr.scalars, *tr.extras):
                assert bits(again[name]) == bits(tr[name]), name
            assert [(t, bits(list(f.values()))) for t, f in again.snapshots] == [
                (t, bits(list(f.values()))) for t, f in tr.snapshots]
            assert bits(again.final_state.w.values) == bits(tr.final_state.w.values)


@pytest.mark.parametrize("cutoff", [0, scenarios._OPERATOR_MAX_N], ids=["stencil", "operator"])
def test_every_slab_starts_on_a_64_byte_boundary(monkeypatch, cutoff, params8, grid51, ramp51,
                                                 zeros51):
    slabs = []

    class Stepper(HeatStepper):
        def __init__(self, slab, *args):
            super().__init__(slab, *args)
            slabs.append(slab)

    monkeypatch.setattr(scenarios, "HeatStepper", Stepper)
    monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", cutoff)
    c = cfg(grid51, 0.01)
    u0 = lambda t: 1.0
    for run in (lambda: run_open_loop(params8, c, ramp51),
                lambda: run_observer(params8, c, ramp51, zeros51, 0.0, u0),
                lambda: run_stabilization(params8, c, ramp51, zeros51, 0.0),
                lambda: run_tracking(params8, c, ramp51, zeros51, 0.0,
                                     ReferenceSignal.sinusoid(1.0, 1.0)),
                lambda: run_error_system(params8, c, ramp51, -0.1, u0)):
        slabs.clear()
        run()
        assert slabs and [slab.ctypes.data % 64 for slab in slabs] == [0] * len(slabs)


class TestNonFiniteState:
    @pytest.mark.parametrize("runner", ["open", "observer", "stabilize", "track", "error"])
    def test_overflowing_field_raises(self, params8, grid51, ramp51, runner):
        # a +-1e308 pair overflows the first step's stencil; the run must
        # raise, as step_heat does, rather than record NaN/Inf
        vals = np.zeros(51)
        vals[24], vals[25] = 1e308, -1e308
        spike = GridFunction(grid51, vals)
        c = cfg(grid51, 0.01)
        u0 = lambda t: 0.0
        run = {
            "open": lambda: run_open_loop(params8, c, spike),
            "observer": lambda: run_observer(params8, c, ramp51, spike, 0.0, u0),
            "stabilize": lambda: run_stabilization(params8, c, ramp51, spike, 0.0),
            "track": lambda: run_tracking(
                params8, c, ramp51, spike, 0.0, ReferenceSignal.constant(1.0)),
            "error": lambda: run_error_system(params8, c, spike, 0.0, u0),
        }[runner]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                run()


def assert_same_run(got, expected, without=()):
    """Two runs' traces are equal, bit for bit, but for ``expected``'s extras ``without``."""
    assert got.blown_up is expected.blown_up and got.blow_up_time == expected.blow_up_time
    assert bits(got.times) == bits(expected.times)
    assert got.scalars.keys() == expected.scalars.keys()
    for name in expected.scalars:
        assert bits(got.scalars[name]) == bits(expected.scalars[name]), name
    assert tuple(got.extras) == tuple(k for k in expected.extras if k not in without)
    for name in got.extras:
        assert bits(got.extras[name]) == bits(expected.extras[name]), name
    assert len(got.snapshots) == len(expected.snapshots)
    for (t1, f1), (t2, f2) in zip(got.snapshots, expected.snapshots):
        assert t1 == t2 and f1.keys() == f2.keys()
        assert all(bits(f1[k]) == bits(f2[k]) for k in f1)
    a, b = got.final_state, expected.final_state
    assert a.t == b.t
    assert bits(a.w.values) == bits(b.w.values)
    assert (a.what is None) is (b.what is None)
    if b.what is not None:
        assert bits(a.what.values) == bits(b.what.values)
    assert bits([a.zeta, a.last_u0, a.last_u]) == bits([b.zeta, b.last_u0, b.last_u])


def assert_near_run(got, expected, without=(), rel=1e-12):
    """As :func:`assert_same_run`, but each value within ``rel`` of its series' largest magnitude.

    Times, the blow-up and the snapshot instants are equal bit for bit.
    """
    def near(a, b, name):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape and np.abs(a - b).max() <= rel * np.abs(b).max(), name

    assert got.blown_up is expected.blown_up and got.blow_up_time == expected.blow_up_time
    assert bits(got.times) == bits(expected.times)
    assert got.scalars.keys() == expected.scalars.keys()
    assert tuple(got.extras) == tuple(k for k in expected.extras if k not in without)
    for name in (*got.scalars, *got.extras):
        near(got[name], expected[name], name)
    assert len(got.snapshots) == len(expected.snapshots)
    for (t1, f1), (t2, f2) in zip(got.snapshots, expected.snapshots):
        assert t1 == t2 and f1.keys() == f2.keys()
        for k in f1:
            near(f1[k], f2[k], k)
    a, b = got.final_state, expected.final_state
    assert a.t == b.t
    near(a.w.values, b.w.values, "w")
    near(a.what.values, b.what.values, "what")
    for name in ("zeta", "last_u0", "last_u"):
        near(getattr(a, name), getattr(b, name), name)


def assert_near_reference(tr, expected, snap, rel=1e-12):
    """The trace equals reference_run's results within ``rel`` of each column's scale.

    Times, the blow-up time and the snapshot instants are equal; every
    column, snapshot field and final value is within ``rel`` times the
    largest magnitude of its series.
    """
    times, rows, snaps, final, zeta, last_u0, last_u, t_blow = expected

    def near(got, want, name):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape, name
        scale = float(np.abs(want).max())
        assert float(np.abs(got - want).max()) <= rel * scale, name

    assert tr.blow_up_time == t_blow
    assert bits(tr.times) == bits(times)
    for name in (*tr.scalars, *tr.extras):
        near(tr[name], [r.get(name, 0.0) for r in rows], name)
    assert set(tr.extras) == set(rows[0]) - set(tr.scalars)
    assert len(tr.snapshots) == len(snaps) and bool(snaps) == bool(snap)
    for (t1, f1), (t2, f2) in zip(tr.snapshots, snaps):
        assert t1 == t2 and f1.keys() == f2.keys()
        for k in f1:
            near(f1[k], f2[k], k)
    fs = tr.final_state
    assert fs.t == times[-1]
    near(fs.w.values, final["w"], "w")
    near(fs.what.values, final["what"], "what")
    near([fs.zeta, fs.last_u0, fs.last_u], [zeta, last_u0, last_u], "zeta, u0, u")


def operator_cutoff_grid():
    """The largest grid that takes the operator route, and a dt of 0.4 dx^2.

    At dt = dx^2 / 2, which the CFL check admits, the observer's Robin flux
    makes the explicit step unstable on this grid, on either route.
    """
    grid = Grid(scenarios._OPERATOR_MAX_N)
    return grid, 0.4 * grid.dx * grid.dx


SINE = ReferenceSignal.sinusoid(1.0, 1.0)
REFERENCES = {"sin": SINE, "sin-neg": ReferenceSignal.sinusoid(-1.0, 2.0),
              "const": ReferenceSignal.constant(3.0), "zero": ReferenceSignal.zero()}


class TestOperatorRoute:
    """Stabilize and tracking runs on small grids step as one operator product."""

    @pytest.mark.parametrize("at_cutoff", [False, True], ids=["n51", "cutoff"])
    @pytest.mark.parametrize("stride, snap", [(1, 0), (7, 45), (37, 130), (65, 64)])
    def test_trace_near_reference(self, at_cutoff, stride, snap, params8):
        # 640 steps: ten 64-step blocks, sampled inside, on and across their ends
        grid, dt = operator_cutoff_grid() if at_cutoff else (Grid(51), 1e-4)
        c = cfg(grid, 640 * dt, dt=dt, stride=stride, snap=snap)
        assert c.n_steps == 640
        w0 = benchmark_initial_state(grid, params8.q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        tr = run_stabilization(params8, c, w0, what0, 0.0)
        expected = reference_run("stabilize", params8, c, w0, what0, 0.0)
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", None)
        assert_near_reference(tr, expected, snap)

    @pytest.mark.parametrize("at_cutoff", [False, True], ids=["n51", "cutoff"])
    def test_observer_error_meets_criterion_7(self, at_cutoff, params8):
        # the observer's error w - what obeys the error system driven by the
        # run's own u0: criterion 7's time-L2 bound on its gap to the spectral
        # oracle, from the same initial error (the ramp and 1/b - zeta0 = -0.1)
        from heatadapt import galerkin_error_system

        grid, dt = operator_cutoff_grid() if at_cutoff else (Grid(51), 1e-4)
        c = cfg(grid, 1.0, dt=dt, stride=1)
        w0 = benchmark_initial_state(grid, 2.0)
        tr = run_stabilization(params8, c, w0, GridFunction.zeros(grid), 0.0)
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", None)
        times, u0s = tr.times, tr["u0"]
        oracle = galerkin_error_system(32, params8, lambda t: float(np.interp(t, times, u0s)),
                                       benchmark_initial_state(Grid(201), 2.0), -0.1, 1.0, 1e-4,
                                       sample_stride=100)
        at = slice(None, None, round(1e-2 / dt))
        assert np.allclose(oracle.times, times[at], rtol=0, atol=1e-12)
        d = oracle["wnorm"] - tr["obs_err_norm"][at]
        assert math.sqrt(float(np.trapezoid(d * d, oracle.times))) <= 1e-2

    @pytest.mark.parametrize("q, gain, handover, step", [
        (9.0, 0.01, 0, 9),  # blows up in the first block
        (6.0, 0.5, 200, 227),  # quiet for four blocks, which end at the snapshots
    ])
    def test_blow_up_ends_at_the_stencil_step(self, monkeypatch, q, gain, handover, step):
        grid = Grid(51)
        c = cfg(grid, 0.5, stride=37, snap=50)
        p = Params(q=q, b=-10.0, c0=gain, c1=gain)
        w0 = benchmark_initial_state(grid, q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        tr = run_stabilization(p, c, w0, what0, 0.0)
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", handover)
        monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", 0)
        st = run_stabilization(p, c, w0, what0, 0.0)
        assert (st.final_state.route, st.final_state.handover_step) == ("stencil", None)
        assert tr.blow_up_time == st.blow_up_time == step * c.dt
        assert bits(tr.times) == bits(st.times)
        if handover == 0:
            # the stencil stepped the whole run from the same state
            assert_same_run(tr, st)

    @pytest.mark.parametrize("b, dt, steps, zeta0", [
        (-1e307, 1e-4, 5000, 0.0),
        (-1e308, 1e-4, 5000, 0.0),
        # b m = 2.8e308 overflows, but its weight in the step, 2 r dx = 1e-300,
        # keeps the state quiet: only the flux bound catches it
        (-2e306, 1e-302, 10, 20.0),
        # the slab's root sum of squares is 150.8: the bound's factor of 2 takes
        # gain times it past the largest float, a factor of 0.5 would not
        (-2e306, 1e-311, 1, 15.0),
    ])
    def test_flux_overflow_raises_as_the_stencil(self, monkeypatch, grid51, ramp51, zeros51,
                                                 b, dt, steps, zeta0):
        p = Params(q=2.0, b=b, c0=5.0, c1=5.0)
        c = cfg(grid51, steps * dt, dt=dt)
        what0 = ramp51 if zeta0 else zeros51
        with pytest.raises(ConfigError, match="^boundary fluxes must be finite$"):
            run_stabilization(p, c, ramp51, what0, zeta0)
        monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", 0)
        with pytest.raises(ConfigError, match="^boundary fluxes must be finite$"):
            run_stabilization(p, c, ramp51, what0, zeta0)

    @pytest.mark.parametrize("kind, n", [("stabilize", scenarios._OPERATOR_MAX_N + 1),
                                         ("observer", 51),
                                         ("track", scenarios._OPERATOR_MAX_N + 1)],
                             ids=["stabilize-above-cutoff", "observer", "track-above-cutoff"])
    def test_takes_the_stencil(self, monkeypatch, params8, kind, n):
        grid = Grid(n)
        c = cfg(grid, 0.01, dt=4e-5, stride=7, snap=45)
        w0 = benchmark_initial_state(grid, params8.q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))

        def run():
            if kind == "observer":
                return run_observer(params8, c, w0, what0, 0.05, lambda t: math.exp(-t))
            if kind == "track":
                return run_tracking(params8, c, w0, what0, 0.0, SINE)
            return run_stabilization(params8, c, w0, what0, 0.0)

        tr = run()
        assert tr.final_state.route == "stencil"
        monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", 0)
        assert_same_run(tr, run())

    @pytest.mark.parametrize("ref", REFERENCES)
    @pytest.mark.parametrize("at_cutoff", [False, True], ids=["n51", "cutoff"])
    @pytest.mark.parametrize("stride, snap", [(1, 0), (7, 45), (37, 130), (65, 64)])
    def test_tracking_near_reference(self, at_cutoff, stride, snap, ref, params8):
        # as test_trace_near_reference, for tracking runs: the servo columns
        # and the rotation of (sin, cos) over ten blocks
        grid, dt = operator_cutoff_grid() if at_cutoff else (Grid(51), 1e-4)
        c = cfg(grid, 640 * dt, dt=dt, stride=stride, snap=snap)
        w0 = benchmark_initial_state(grid, params8.q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        tr = run_tracking(params8, c, w0, what0, 0.0, REFERENCES[ref])
        expected = reference_run("track", params8, c, w0, what0, 0.0, ref=REFERENCES[ref])
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", None)
        assert_near_reference(tr, expected, snap)

    @pytest.mark.parametrize("q, gain, handover, step", [
        (9.0, 0.01, 0, 9),  # blows up in the first block
        (6.0, 0.5, 200, 226),  # quiet for four blocks, which end at the snapshots
    ])
    def test_tracking_blow_up_ends_at_the_stencil_step(self, monkeypatch, q, gain, handover,
                                                         step):
        grid = Grid(51)
        c = cfg(grid, 0.5, stride=37, snap=50)
        p = Params(q=q, b=-10.0, c0=gain, c1=gain)
        w0 = benchmark_initial_state(grid, q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        tr = run_tracking(p, c, w0, what0, 0.0, SINE)
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", handover)
        monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", 0)
        st = run_tracking(p, c, w0, what0, 0.0, SINE)
        assert (st.final_state.route, st.final_state.handover_step) == ("stencil", None)
        assert tr.blow_up_time == st.blow_up_time == step * c.dt
        assert bits(tr.times) == bits(st.times)
        if handover == 0:
            assert_same_run(tr, st)

    @pytest.mark.parametrize("n", [3, 26, 51, 101])
    @pytest.mark.parametrize("stride, snap", [(2, 0), (100, 0), (10, 45)])
    @pytest.mark.parametrize("kind", ["stabilize", "track"])
    def test_pairs_near_reference(self, kind, n, stride, snap, params8):
        # without diss_cum, at an even stride, the operator steps two instants a
        # product (pairs.two_steps); 643 steps end on a block of 3 steps, a
        # pair and one alone, and snapshots every 45 steps start blocks on odd
        # instants, which step alone to the first even one
        grid = Grid(n)
        dt = min(1e-4, 0.4 * grid.dx * grid.dx)
        c = cfg(grid, round(643 * dt, 12), dt=dt, stride=stride, snap=snap)
        assert c.n_steps == 643
        w0 = benchmark_initial_state(grid, params8.q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        if kind == "track":
            tr = run_tracking(params8, c, w0, what0, 0.0, SINE)
            expected = reference_run("track", params8, c, w0, what0, 0.0, ref=SINE)
        else:
            tr = run_stabilization(params8, c, w0, what0, 0.0, diss_cum=False)
            times, rows, *rest = reference_run("stabilize", params8, c, w0, what0, 0.0)
            expected = times, [{k: v for k, v in r.items() if k != "diss_cum"} for r in rows], *rest
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", None)
        assert_near_reference(tr, expected, snap)

    @pytest.mark.parametrize("kind", ["stabilize", "track"])
    @pytest.mark.parametrize("q, gain, handover, steps", [
        (9.0, 0.01, 0, {"stabilize": 9, "track": 9}),  # blows up in the first block
        (6.0, 0.5, 192, {"stabilize": 227, "track": 226}),  # quiet for three blocks
    ])
    def test_pairs_blow_up_at_the_stencil_step(self, monkeypatch, kind, q, gain, handover, steps):
        grid = Grid(51)
        c = cfg(grid, 0.5, stride=100)
        p = Params(q=q, b=-10.0, c0=gain, c1=gain)
        w0 = benchmark_initial_state(grid, q)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))

        def run():
            if kind == "track":
                return run_tracking(p, c, w0, what0, 0.0, SINE)
            return run_stabilization(p, c, w0, what0, 0.0, diss_cum=False)

        tr = run()
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", handover)
        monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", 0)
        st = run()
        assert tr.blow_up_time == st.blow_up_time == steps[kind] * c.dt
        assert bits(tr.times) == bits(st.times)
        if handover == 0:
            assert_same_run(tr, st)

    @pytest.mark.parametrize("n", [3, 26, 51, 101])
    @pytest.mark.parametrize("kind", ["stabilize", "track"])
    def test_two_steps_are_the_squared_operator(self, monkeypatch, params8, kind, n):
        # A2's state rows are A A's, to rounding; its m and zeta rows read the
        # skipped instant's u0 and innovation out of A's rows
        made = {}
        real = pairs.two_steps

        def spy(A, A2, at_m, at_x1, at_what1):
            spread = real(A, A2, at_m, at_x1, at_what1)
            made.update(A=A, at=(at_m, at_x1, at_what1), A2=A2, spread=spread)
            return spread

        monkeypatch.setattr(pairs, "two_steps", spy)
        grid = Grid(n)
        dt = min(1e-4, 0.4 * grid.dx * grid.dx)
        c = cfg(grid, 64 * dt, dt=dt)
        w0 = benchmark_initial_state(grid, params8.q)
        if kind == "track":
            run_tracking(params8, c, w0, GridFunction.zeros(grid), 0.0, SINE)
        else:
            run_stabilization(params8, c, w0, GridFunction.zeros(grid), 0.0, diss_cum=False)
        A, A2, (at_m, at_x1, at_what1) = made["A"], made["A2"], made["at"]
        height, cols = A.shape
        assert A2.shape == A.shape and A2.flags.f_contiguous and A2.ctypes.data % 64 == 0
        assert at_m == 2 * n and at_what1 == 2 * n - 1
        assert at_x1 == (cols - 2 if kind == "track" else n - 1)
        square = np.ascontiguousarray(A[:cols]) @ np.ascontiguousarray(A[:cols])
        bound = 4 * np.spacing(np.abs(A[:cols]) @ np.abs(A[:cols]))
        state = [i for i in range(cols) if i != at_m]
        assert (np.abs(A2[state] - square[state]) <= bound[state]).all()
        assert bits(A2[at_m]) == bits(A[cols - 1])
        assert bits(A2[cols]) == bits(A[at_x1] - A[at_what1])
        assert not A2[cols + 1 :].any()
        # the spread bounds the squared 2-norm of A's rows but u0's
        rest = np.ascontiguousarray(A[: cols - 1])
        assert np.linalg.norm(rest, 2) ** 2 <= made["spread"] < math.inf

    def test_tracking_spike_raises_on_both_routes(self, monkeypatch, params8, grid51, ramp51):
        # the +-1e308 pair in the shifted estimate overflows the first step
        vals = np.zeros(51)
        vals[24], vals[25] = 1e308, -1e308
        spike = GridFunction(grid51, vals)
        for cutoff in (scenarios._OPERATOR_MAX_N, 0):
            monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", cutoff)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteState):
                    run_tracking(params8, cfg(grid51, 0.01), ramp51, spike, 0.0, SINE)

    def test_tracking_tail_failure_raises_as_the_stencil(self, monkeypatch, params8, grid51,
                                                         ramp51, zeros51):
        # at J = 1 the tail of sin 0.1t grows as sin 0.1t and passes 1e-6 at
        # step 121, in the second block: the operator steps the first
        slow = ReferenceSignal.sinusoid(1.0, 0.1)

        def run(t_final):
            c = SimConfig(dt=1e-4, t_final=t_final, grid=grid51, pe_window_tau=0.01,
                          servo_truncation_J=1)
            return run_tracking(params8, c, ramp51, zeros51, 0.0, slow)

        fs = run(0.012).final_state
        assert (fs.route, fs.handover_step) == ("operator", None)
        messages = []
        for cutoff in (scenarios._OPERATOR_MAX_N, 0):
            monkeypatch.setattr(scenarios, "_OPERATOR_MAX_N", cutoff)
            with pytest.raises(TruncationInsufficient) as exc:
                run(0.05)
            messages.append(str(exc.value))
        with pytest.raises(TruncationInsufficient) as exc:
            servo_boundary(slow, params8.q, 121 * 1e-4, 1)
        assert messages == [str(exc.value)] * 2
        assert messages[0] == "servo boundary tail 1.008e-06 exceeds 1.000e-06 at J=1"

    def test_tracking_sin_cos_stay_near_math(self, monkeypatch, params8, grid51, ramp51,
                                             zeros51):
        # each block resets (sin, cos) of omega t from math and rotates them:
        # every instant's pair, as the blocks' tail checks see it, over 5 s
        seen = []
        tails_below = _ServoSeries.tails_below

        def spy(series, s, c, tail_tol):
            seen.append(np.stack([s, c], axis=1))
            return tails_below(series, s, c, tail_tol)

        monkeypatch.setattr(_ServoSeries, "tails_below", spy)
        c = cfg(grid51, 5.0)
        tr = run_tracking(params8, c, ramp51, zeros51, 0.0, SINE)
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", None)
        got = np.concatenate(seen)
        assert len(got) == c.n_steps
        wt = [SINE.omega * (k * c.dt) for k in range(1, c.n_steps + 1)]
        exact = np.array([[math.sin(a), math.cos(a)] for a in wt])
        assert np.abs(got - exact).max() <= 64 * np.spacing(1.0)

    @pytest.mark.parametrize("kind", ["stabilize", "track"])
    def test_slab_padding_is_zero_on_a_heap_of_nans(self, params8, grid51, ramp51, zeros51,
                                                    kind):
        # freed NaN-filled arrays of the slab's size leave NaN where the heap
        # hands out the next slab: padding taken from them as it lies would fail
        # the first block's quiet test and hand the run over at step 0
        junk = [np.full((scenarios._SLAB + 1) * 112 + 7, np.nan) for _ in range(8)]
        del junk
        c = cfg(grid51, 0.05)
        if kind == "track":
            tr = run_tracking(params8, c, ramp51, zeros51, 0.0, SINE)
        else:
            tr = run_stabilization(params8, c, ramp51, zeros51, 0.0)
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", None)

    @pytest.mark.parametrize("n", [3, 26, 51, 101])
    @pytest.mark.parametrize("kind", ["stabilize", "track"])
    def test_product_matches_the_dense_one(self, monkeypatch, params8, rng, kind, n):
        # the column-major matrix, one row per value of a slab row, against the
        # row-major product of the same entries, on random states
        made = {}

        def spy(name):
            real = getattr(scenarios, name)

            def wrapper(*args):
                made[name] = real(*args)
                return made[name]
            monkeypatch.setattr(scenarios, name, wrapper)

        spy("_operator")
        spy("_slab")
        grid = Grid(n)
        dt = min(1e-4, 0.4 * grid.dx * grid.dx)
        c = cfg(grid, 64 * dt, dt=dt)
        w0 = benchmark_initial_state(grid, params8.q)
        if kind == "track":
            tr = run_tracking(params8, c, w0, GridFunction.zeros(grid), 0.0, SINE)
        else:
            tr = run_stabilization(params8, c, w0, GridFunction.zeros(grid), 0.0)
        assert (tr.final_state.route, tr.final_state.handover_step) == ("operator", None)
        A, states = made["_operator"], made["_slab"]
        height, cols = A.shape
        assert A.flags.f_contiguous and A.ctypes.data % 64 == 0
        assert height == states.shape[1] and height % 8 == 0
        # a row's values: [w, what, m, u0, zeta], or tracking's ten; zeta and
        # the padding are 0, the u0 readout before them is not
        used = 2 * n + (8 if kind == "track" else 3)
        assert used <= height < used + 8
        assert A[used - 2].any() and not A[used - 1 :].any()
        dense = np.ascontiguousarray(A)
        for s in rng.standard_normal((16, cols)):
            # as the loop calls it: from a row's first values into the next row
            states[0, :cols] = s
            A.dot(states[0, :cols], states[1])
            bound = 4 * np.spacing(np.abs(dense) @ np.abs(s))
            assert (np.abs(states[1] - dense.dot(s)) <= bound).all()

    def test_trace_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the product runs in BLAS, which may split it over threads
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            out = tmp_path / f"stabilize-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "heatadapt.cli", "simulate", "--scenario", "stabilize",
                 "--zeta0", "-0.1", "--t-final", "0.5", "--pe-tau", "0.1",
                 "--snapshot-stride", "700", "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / f).read_bytes() for f in ("trace.csv", "snapshots.csv")])
        assert outputs[0] == outputs[1]


class TestSignMirror:
    """(b, zeta0) -> (-b, -zeta0) is an exact symmetry of the scheme.

    Negation is exact in IEEE arithmetic, the update law's increment flips
    with sign(b), b zeta u0 keeps its value and E and F weigh zeta by |b|:
    every column and snapshot keeps its bits but zeta and u, which are
    negated bit for bit.  The error system records u as +0.0, which stays
    +0.0.  Stabilize and tracking runs step as operator products at n = 51
    and on the stencil at n = 102: at stride 7 one instant a product, and
    at stride 10 without diss_cum two (``pairs.two_steps``).
    """

    @pytest.mark.parametrize("n", [51, 102], ids=["n51", "n102"])
    @pytest.mark.parametrize("kind", ["observer", "stabilize", "track", "error"])
    def test_negating_b_and_zeta0_negates_zeta_and_u(self, kind, n, stride=7):
        grid = Grid(n)
        c = cfg(grid, 1.0, dt=1e-4 if n == 51 else 4e-5, stride=stride, snap=4500)
        w0 = benchmark_initial_state(grid, 2.0)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        u0 = lambda t: math.exp(-t)
        # tracking records no diss_cum at any stride
        off = {"diss_cum": False} if stride % 2 == 0 else {}

        def run(b, zeta0):
            p = Params(q=2.0, b=b, c0=5.0, c1=5.0)
            if kind == "observer":
                return run_observer(p, c, w0, what0, zeta0, u0, **off)
            if kind == "stabilize":
                return run_stabilization(p, c, w0, what0, zeta0, **off)
            if kind == "track":
                return run_tracking(p, c, w0, what0, zeta0, ReferenceSignal.sinusoid(1.0, 2.0))
            return run_error_system(p, c, w0, zeta0, u0, **off)

        tr, mirror = run(-10.0, 0.03), run(10.0, -0.03)
        operator = kind in ("stabilize", "track") and n <= scenarios._OPERATOR_MAX_N
        assert tr.final_state.route == mirror.final_state.route
        assert tr.final_state.route == ("operator" if operator else "stencil")
        assert not tr.blown_up and tr.final_state.t == 1.0
        negated = {"zeta"} if kind == "error" else {"zeta", "u"}
        assert bits(mirror.times) == bits(tr.times)
        assert mirror.scalars.keys() == tr.scalars.keys()
        for name, values in tr.scalars.items():
            assert bits(mirror[name]) == bits(-values if name in negated else values), name
        # zeta moved, so its negation is no copy of the other run's
        assert np.ptp(tr["zeta"]) > 1e-3
        if kind == "error":
            assert bits(mirror["u"]) == bits(np.zeros(len(tr.times)))
        assert mirror.extras.keys() == tr.extras.keys()
        for name, values in tr.extras.items():
            assert bits(mirror.extras[name]) == bits(values), name
        assert len(mirror.snapshots) == len(tr.snapshots) > 2
        for (t1, f1), (t2, f2) in zip(mirror.snapshots, tr.snapshots):
            assert t1 == t2 and f1.keys() == f2.keys()
            assert all(bits(f1[k]) == bits(f2[k]) for k in f1)
        a, b = mirror.final_state, tr.final_state
        assert bits(a.w.values) == bits(b.w.values)
        assert (a.what is None) is (b.what is None) is (kind == "error")
        if b.what is not None:
            assert bits(a.what.values) == bits(b.what.values)
        last_u = b.last_u if kind == "error" else -b.last_u
        assert bits([a.zeta, a.last_u0, a.last_u]) == bits([-b.zeta, b.last_u0, last_u])

    @pytest.mark.parametrize("n", [51, 102], ids=["n51", "n102"])
    @pytest.mark.parametrize("kind", ["observer", "stabilize", "track", "error"])
    def test_the_mirror_holds_without_diss_cum_at_an_even_stride(self, kind, n):
        self.test_negating_b_and_zeta0_negates_zeta_and_u(kind, n, stride=10)


class TestBatch:
    """Stabilize runs that differ in c0 and zeta0 step as one batch (heatadapt.batch)."""

    @pytest.mark.parametrize("at_cutoff", [False, True], ids=["n51", "cutoff"])
    @pytest.mark.parametrize("members", [4, 6, 16])
    def test_members_stay_near_their_runs(self, at_cutoff, members):
        from heatadapt.batch import run_stabilization_batch

        grid, dt = operator_cutoff_grid() if at_cutoff else (Grid(51), 1e-4)
        c = cfg(grid, 640 * dt, dt=dt, stride=7, snap=45)
        w0 = benchmark_initial_state(grid, 2.0)
        what0 = GridFunction(grid, 0.3 * np.sin(3.0 * grid.nodes))
        ps = [Params(q=2.0, b=-10.0, c0=c0, c1=5.0) for c0 in np.linspace(3.0, 8.0, members)]
        zeta0s = np.linspace(-0.05, 0.05, members).tolist()
        traces = run_stabilization_batch(ps, c, w0, what0, zeta0s)
        assert len(traces) == members
        for p, zeta0, tr in zip(ps, zeta0s, traces):
            # a batch records no diss_cum, as its one caller, the CLI sweep, writes none
            alone = run_stabilization(p, c, w0, what0, zeta0, diss_cum=False)
            assert (tr.final_state.route, tr.final_state.handover_step) == ("operator-batch", None)
            assert "diss_cum" not in tr.extras
            assert alone.final_state.route == "operator"
            assert bits(tr.times) == bits(alone.times) and tr.blow_up_time is None

            def near(got, want, name):
                scale = float(np.abs(want).max())
                assert float(np.abs(np.asarray(got) - want).max()) <= 1e-12 * scale, name

            for name in (*alone.scalars, *alone.extras):
                near(tr[name], alone[name], name)
            assert len(tr.snapshots) == len(alone.snapshots) == 16
            for (t1, f1), (t2, f2) in zip(tr.snapshots, alone.snapshots):
                assert t1 == t2
                near(np.stack([f1["w"], f1["what"]]), np.stack([f2["w"], f2["what"]]), t1)
            a, b = tr.final_state, alone.final_state
            near([a.zeta, a.last_u0, a.last_u], [b.zeta, b.last_u0, b.last_u], "zeta, u0, u")

    def test_a_member_that_is_not_quiet_ends_the_batch(self, params8, grid51, ramp51, zeros51):
        # |zeta| past about 6e10 is not quiet (scenarios._quiet_states)
        from heatadapt.batch import run_batches, run_stabilization_batch

        c = cfg(grid51, 0.05)
        zeta0s = [0.0, 0.1, 1e11, -0.1]
        assert run_stabilization_batch([params8] * 4, c, ramp51, zeros51, zeta0s) is None
        assert run_batches([params8] * 4, c, ramp51, zeros51, zeta0s) == [None] * 4

    @pytest.mark.parametrize("count, sizes", [(3, []), (4, [4]), (16, [16]), (17, [8, 9]),
                                              (33, [11, 11, 11])])
    def test_batches_are_as_even_as_their_count_allows(self, monkeypatch, params8, grid51,
                                                       ramp51, zeros51, count, sizes):
        from heatadapt import batch

        seen = []

        def spy(ps, *args):
            seen.append(len(ps))
            return [None] * len(ps)

        monkeypatch.setattr(batch, "run_stabilization_batch", spy)
        done = batch.run_batches([params8] * count, cfg(grid51, 0.01), ramp51, zeros51,
                                 [0.0] * count)
        assert seen == sizes and len(done) == count

    @pytest.mark.parametrize("n", [51, 101])
    @pytest.mark.parametrize("members", [4, 16])
    def test_the_slab_stays_within_a_chunk_buffer(self, monkeypatch, params8, n, members):
        from heatadapt import batch

        slabs = []
        aligned = batch._aligned

        def spy(shape, what):
            buf = aligned(shape, what)
            if what == "state slab":
                slabs.append(buf)
            return buf

        monkeypatch.setattr(batch, "_aligned", spy)
        grid = Grid(n)
        dt = 0.4 * grid.dx * grid.dx
        c = cfg(grid, 10 * dt, dt=dt)
        w0 = benchmark_initial_state(grid, 2.0)
        assert batch.run_stabilization_batch([params8] * members, c, w0, GridFunction.zeros(grid),
                                             [0.0] * members)
        (slab,) = slabs
        assert slab.nbytes <= scenarios._CHUNK_BYTES and len(slab) >= 2 * members


class TestDissCumOnRequest:
    """A run records ``diss_cum`` only when asked, and that changes no other bit.

    Without the column ``_run`` stages no error field and integrates
    nothing, on the same schedule of blocks, chunks and samples: every
    other column, the snapshots, the final state, its route and the
    blow-up stay as they are.  Stabilize runs step as operator products
    at n = 51 and on the stencil at n = 102.  At an even sample stride an
    operator run without the column steps two instants a product
    (``pairs.two_steps``), which rounds differently from one a
    product: there its values stay within 1e-12 of each column's scale,
    and its route, handover and blow-up stay as they are.
    """

    @pytest.mark.parametrize("n", [51, 102], ids=["n51", "n102"])
    @pytest.mark.parametrize("kind", ["stabilize", "observer", "error"])
    @pytest.mark.parametrize("steps, stride, snap, q, scale, blow_up", SLAB_CASES.values(),
                             ids=list(SLAB_CASES))
    def test_off_equals_on_but_for_the_column(self, kind, n, steps, stride, snap, q, scale,
                                              blow_up):
        grid, dt = (Grid(51), 1e-4) if n == 51 else (Grid(102), 4e-5)
        c = cfg(grid, round(steps * dt, 12), dt=dt, stride=stride, snap=snap)
        assert c.n_steps == steps
        p, w0, what0, zeta0, u0 = slab_case(kind, grid, q, scale, blow_up)
        on = run_kind(kind, p, c, w0, what0, zeta0, u0)
        off = run_kind(kind, p, c, w0, what0, zeta0, u0, diss_cum=False)
        assert "diss_cum" in on.extras and "diss_cum" not in off.extras
        operator = kind == "stabilize" and n <= scenarios._OPERATOR_MAX_N
        if operator and stride % 2 == 0:
            assert_near_run(off, on, without=("diss_cum",))
        else:
            assert_same_run(off, on, without=("diss_cum",))
        a, b = off.final_state, on.final_state
        assert (a.route, a.handover_step) == (b.route, b.handover_step)
        assert a.route == ("operator" if operator else "stencil")
        if n == 51:
            # the steps of SLAB_CASES, which the stencil takes too
            assert off.blown_up is (kind in blow_up)
            if off.blown_up:
                assert round(off.blow_up_time / c.dt) == blow_up[kind]
