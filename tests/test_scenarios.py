import math

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
    upsilon_b,
    zeta_step,
)
from heatadapt.batch import run_stabilization_batch
from heatadapt.fdm import grad_values


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
        tre = run_error_system(params8, c, ramp51, upsilon_b(0.0, params8.b), u0)
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


class TestRunnersMatchReferenceRoute:
    """Every runner reproduces the step_heat/grad_values route bit for bit."""

    @pytest.mark.parametrize(
        "kind, t_final, snap",
        [("open", 1.0, 997), ("observer", 0.3, 700), ("stabilize", 0.3, 0),
         ("track", 0.3, 1100), ("error", 0.3, 500)],
    )
    def test_trace_equals_reference(self, kind, t_final, snap, grid51, ramp51):
        p = Params(q=9.0, b=-10.0, c0=5.0, c1=5.0) if kind == "open" else Params(
            q=2.0, b=-10.0, c0=5.0, c1=5.0)
        c = cfg(grid51, t_final, stride=37, snap=snap)
        what0 = GridFunction(grid51, 0.3 * np.sin(3.0 * grid51.nodes))
        sine = ReferenceSignal.sinusoid(1.0, 1.0)
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
            tr = run_tracking(p, c, ramp51, what0, 0.0, sine)
            expected = reference_run(kind, p, c, ramp51, what0, 0.0, ref=sine)
        else:
            tr = run_error_system(p, c, ramp51, -0.1, u0)
            expected = reference_run(kind, p, c, ramp51, None, -0.1, u0_signal=u0)
        times, rows, snaps, final, zeta, last_u0, last_u, t_blow = expected

        assert tr.blown_up is (kind == "open")
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

    def test_returned_fields_are_copies(self, params8, grid51, ramp51, zeros51):
        # the stepper's buffers are reused every step; nothing a runner
        # returns may be a view of them
        tr = run_stabilization(params8, cfg(grid51, 0.01, snap=50), ramp51, zeros51, 0.0)
        fs = tr.final_state
        for f in (fs.w.values, fs.what.values, *tr.snapshots[-1][1].values()):
            assert f.flags.owndata


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


def assert_same_run(got, expected):
    """A batched member's outcome equals its own run's, bit for bit."""
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert isinstance(got, type(expected)), got
    assert got.blown_up is expected.blown_up and got.blow_up_time == expected.blow_up_time
    assert bits(got.times) == bits(expected.times)
    assert got.scalars.keys() == expected.scalars.keys()
    for name in expected.scalars:
        assert bits(got.scalars[name]) == bits(expected.scalars[name]), name
    assert got.extras.keys() == expected.extras.keys()
    for name in expected.extras:
        assert bits(got.extras[name]) == bits(expected.extras[name]), name
    assert len(got.snapshots) == len(expected.snapshots)
    for (t1, f1), (t2, f2) in zip(got.snapshots, expected.snapshots):
        assert t1 == t2 and f1.keys() == f2.keys()
        assert all(bits(f1[k]) == bits(f2[k]) and f1[k].flags.owndata for k in f1)
    a, b = got.final_state, expected.final_state
    assert a.t == b.t
    assert bits(a.w.values) == bits(b.w.values) and bits(a.what.values) == bits(b.what.values)
    assert bits([a.zeta, a.last_u0, a.last_u]) == bits([b.zeta, b.last_u0, b.last_u])


class TestStabilizationBatch:
    """The batched runner against run_stabilization, member by member."""

    @pytest.mark.parametrize("n, dt, t_final, stride, snap", [
        (51, 1e-4, 0.5, 37, 700), (201, 1e-5, 0.02, 50, 300),
    ])
    def test_members_equal_single_runs(self, n, dt, t_final, stride, snap):
        grid = Grid(n)
        config = cfg(grid, t_final, dt=dt, stride=stride, snap=snap)
        x = grid.nodes
        spike = np.zeros(n)
        spike[n // 2], spike[n // 2 + 1] = 1e308, -1e308
        members = [
            # (params, w0, what0, zeta0)
            (Params(q=2.0, b=-10.0, c0=5.0, c1=5.0), 2.0 * x - 1.0, 0.0 * x, 0.0),
            (Params(q=2.0, b=-10.0, c0=3.0, c1=0.5), 2.0 * x - 1.0, 0.3 * np.sin(3.0 * x), -0.05),
            # q=9 with tiny gains blows up at n=51
            (Params(q=9.0, b=-10.0, c0=0.01, c1=0.01), 9.0 * x - 1.0, 0.0 * x, 0.0),
            # the plant field overflows in the first step
            (Params(q=2.0, b=-10.0, c0=5.0, c1=5.0), spike, 0.0 * x, 0.0),
            (Params(q=3.5, b=4.0, c0=8.0, c1=2.0), np.cos(2.0 * x), 0.0 * x, 0.2),
            # b * u overflows once u0 is nonzero
            (Params(q=2.0, b=-1e308, c0=5.0, c1=5.0), 2.0 * x - 1.0, 0.0 * x, 0.0),
            (Params(q=0.5, b=0.1, c0=4.0, c1=9.0), 0.5 * x - 1.0, 0.1 * x, 1.0),
        ]
        params = [m[0] for m in members]
        w0s = [GridFunction(grid, m[1]) for m in members]
        what0s = [GridFunction(grid, m[2]) for m in members]
        zeta0s = [m[3] for m in members]
        got = run_stabilization_batch(params, config, w0s, what0s, zeta0s)
        assert len(got) == len(members)
        expected = []
        for args in zip(params, w0s, what0s, zeta0s):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    expected.append(run_stabilization(args[0], config, *args[1:]))
            except (ConfigError, NonFiniteState) as exc:
                expected.append(exc)
        kinds = [type(e).__name__ for e in expected]
        assert kinds.count("ConfigError") == 1 and kinds.count("NonFiniteState") == 1
        if n == 51:
            assert sum(isinstance(e, type(got[0])) and e.blown_up for e in expected) == 1
        for g, e in zip(got, expected):
            assert_same_run(g, e)

    def test_one_member(self, params8, grid51, ramp51, zeros51):
        config = cfg(grid51, 0.05, stride=7)
        (got,) = run_stabilization_batch([params8], config, [ramp51], [zeros51], [0.0])
        assert_same_run(got, run_stabilization(params8, config, ramp51, zeros51, 0.0))

    def test_rejects_mismatched_inputs(self, params8, grid51, ramp51, zeros51):
        with pytest.raises(ConfigError):
            run_stabilization_batch([params8, params8], cfg(grid51, 0.01), [ramp51], [zeros51], [0.0])
        with pytest.raises(ConfigError):
            other = GridFunction.zeros(Grid(26))
            run_stabilization_batch([params8], cfg(grid51, 0.01), [other], [zeros51], [0.0])
