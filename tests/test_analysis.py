import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from heatadapt import (
    ConfigError,
    Grid,
    GridFunction,
    InsufficientDuration,
    NonFiniteState,
    Params,
    SimConfig,
    Trace,
    UnresolvableMode,
    benchmark_initial_state,
    galerkin_error_system,
    limit_diagnostics,
    pe_check,
    pi_inverse,
    pi_transform,
    run_error_system,
)
from heatadapt.analysis import _SAMPLE_CHUNK
from heatadapt.domain import TRACE_COLUMNS


class TestPECheck:
    def test_constant_signal_is_pe(self):
        t = np.linspace(0.0, 20.0, 2001)
        for c in (0.05, -0.05, 2.0):
            v = pe_check(t, np.full_like(t, c), tau=1.0)
            assert v.is_pe
        # sign flip leaves the magnitudes unchanged
        vp = pe_check(t, np.full_like(t, 0.05), tau=1.0)
        vm = pe_check(t, np.full_like(t, -0.05), tau=1.0)
        assert [abs(a) for a in vp.window_integrals] == pytest.approx(
            [abs(a) for a in vm.window_integrals]
        )

    def test_zero_signal_is_not_pe(self):
        t = np.linspace(0.0, 10.0, 1001)
        assert not pe_check(t, np.zeros_like(t), tau=1.0).is_pe

    def test_decaying_signal_is_not_pe(self):
        # closed form: integral over [t, t+1] of e^-s is (1 - e^-1) e^-t -> 0
        t = np.linspace(0.0, 20.0, 4001)
        v = pe_check(t, np.exp(-t), tau=1.0, threshold=1e-3)
        assert not v.is_pe
        expected_last = (1.0 - math.exp(-1.0)) * math.exp(-19.0)
        assert abs(v.window_integrals[0]) == pytest.approx(expected_last, rel=1e-3)

    def test_window_integral_values(self):
        t = np.linspace(0.0, 10.0, 1001)
        v = pe_check(t, np.full_like(t, 2.0), tau=1.5, windows=3)
        assert list(v.window_integrals) == pytest.approx([3.0, 3.0, 3.0], abs=1e-12)

    def test_insufficient_duration(self):
        t = np.linspace(0.0, 3.0, 301)
        with pytest.raises(InsufficientDuration):
            pe_check(t, np.ones_like(t), tau=1.0, windows=5)

    def test_default_threshold_scales_with_tau(self):
        t = np.linspace(0.0, 50.0, 5001)
        v = pe_check(t, np.full_like(t, 1e-4), tau=10.0, windows=5)
        # integral = 1e-3 per window, threshold = 1e-3 * 10: not PE
        assert not v.is_pe


class TestTransforms:
    def test_zero_maps_to_zero(self, zeros51):
        assert np.abs(pi_transform(zeros51, 2.0).values).max() == 0.0
        assert np.abs(pi_inverse(zeros51, 2.0).values).max() == 0.0

    def test_forward_on_constant_matches_exponential(self, grid51):
        one = GridFunction(grid51, np.ones(51))
        out = pi_transform(one, 2.0)
        err = np.abs(out.values - np.exp(2.0 * grid51.nodes)).max()
        assert err <= 1e-3

    @pytest.mark.parametrize(
        "profile", [lambda x: np.ones_like(x), lambda x: x, lambda x: np.sin(np.pi * x)]
    )
    def test_roundtrip(self, profile):
        errs = {}
        for n in (51, 101):
            g = Grid(n)
            f = GridFunction.from_callable(g, profile)
            back = pi_inverse(pi_transform(f, 2.0), 2.0)
            errs[n] = np.abs(back.values - f.values).max()
        assert errs[51] <= 1e-3
        assert errs[51] / errs[101] >= 3.5


class TestGalerkin:
    def test_zero_initial_data_stays_zero(self, params8):
        g = Grid(201)
        tr = galerkin_error_system(
            8, params8, lambda t: 1.0, GridFunction.zeros(g), 0.0, 0.1, 1e-4
        )
        assert np.abs(tr["wnorm"]).max() == 0.0
        assert np.abs(tr["zeta"]).max() == 0.0

    def test_cross_check_against_finite_differences(self, params8):
        u0 = lambda t: math.exp(-t)
        g51 = Grid(51)
        cfg = SimConfig(dt=1e-4, t_final=0.5, grid=g51, sample_stride=100, pe_window_tau=0.5)
        fd = run_error_system(params8, cfg, benchmark_initial_state(g51, 2.0), -0.1, u0)
        g201 = Grid(201)
        w0 = benchmark_initial_state(g201, 2.0)
        tr = galerkin_error_system(16, params8, u0, w0, -0.1, 0.5, 1e-4, sample_stride=100)
        d = tr["wnorm"] - fd["wnorm"]
        gap = math.sqrt(np.trapezoid(d * d, fd.times))
        assert gap <= 5e-3
        assert abs(tr["zeta"][-1] - fd["zeta"][-1]) <= 1e-3

    def test_lyapunov_decrease(self, params8):
        g = Grid(201)
        w0 = benchmark_initial_state(g, 2.0)
        tr = galerkin_error_system(
            16, params8, lambda t: math.sin(t), w0, -0.1, 0.3, 1e-4, sample_stride=1
        )
        assert np.diff(tr["F"]).max() <= 1e-8

    def test_unresolvable_mode_guard(self, params8, grid51):
        with pytest.raises(UnresolvableMode):
            galerkin_error_system(
                32, params8, lambda t: 0.0, benchmark_initial_state(grid51, 2.0), 0.0, 0.1, 1e-4
            )

    def test_unresolvable_mode_rejected_before_any_mode_array(self, params8, grid51):
        # the check reads the top eigenvalue alone, so a huge N costs nothing
        w0 = benchmark_initial_state(grid51, 2.0)
        tracemalloc.start()
        try:
            with pytest.raises(UnresolvableMode, match="mode 1000000 needs dx < 3.183e-07"):
                galerkin_error_system(10**6, params8, lambda t: 0.0, w0, 0.0, 0.1, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_integrator_stability_guard(self, params8):
        g = Grid(801)
        with pytest.raises(ConfigError):
            galerkin_error_system(
                64, params8, lambda t: 0.0, GridFunction.zeros(g), 0.0, 0.1, 1e-4
            )

    @pytest.mark.parametrize(
        "t_final, dt",
        [(0.10005, 1e-4), (4e-5, 1e-4), (0.1, 0.0), (0.1, -1e-4), (math.inf, 1e-4)],
    )
    def test_rejects_a_horizon_it_cannot_step(self, params8, grid51, t_final, dt):
        # not a whole number of steps, shorter than one step, dt = 0, dt < 0, no end
        with pytest.raises(ConfigError) as exc:
            galerkin_error_system(
                8, params8, lambda t: 0.0, GridFunction.zeros(grid51), 0.0, t_final, dt
            )
        with pytest.raises(ConfigError) as cfg_exc:
            SimConfig(dt=dt, t_final=t_final, grid=grid51)
        assert type(exc.value) is type(cfg_exc.value)
        assert str(exc.value) == str(cfg_exc.value)

    def test_state_overflow_with_finite_fluxes(self, params8, grid51):
        # u0 is 1e300 at t and t + h and 0 at t + h/2: every stage flux stays
        # finite, but the first and last ztilde slopes (-1e308 each) sum past
        # the float range
        u0 = lambda t: 1e300 if t in (0.0, 1e-4) else 0.0
        w0 = GridFunction(grid51, np.full(51, 1e8))
        with pytest.raises(NonFiniteState, match="heat step produced non-finite values"):
            galerkin_error_system(8, params8, u0, w0, 0.0, 1e-3, 1e-4)


GALERKIN_COLUMNS = ("u0", "zeta", "w0", "w1", "wnorm", "obs_err_norm", "E", "F")


def reference_galerkin(N, p, u0_signal, wtilde0, zetatilde0, t_final, dt_ode, sample_stride):
    """The unfactored RK4 loop: four right-hand-side evaluations per step.

    Each evaluation calls ``u0_signal`` and forms the stage state as an
    array.  Returns the sample times and the columns.
    """
    grid = wtilde0.grid
    lam = np.array([(j * math.pi) ** 2 for j in range(N)])
    phi = np.ones((N, grid.n))
    phi[1:] = math.sqrt(2.0) * np.cos(np.sqrt(lam[1:, None]) * grid.nodes[None, :])
    phi1 = np.ones(N)
    phi1[1:] = math.sqrt(2.0) * np.array([(-1.0) ** j for j in range(1, N)])
    wts = np.full(grid.n, grid.dx)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    a = phi @ (wts * wtilde0.values)
    phi0 = np.full(N, math.sqrt(2.0))
    phi0[0] = 1.0
    b, sgn, c1 = p.b, float(p.sign_b), p.c1
    half_b = 0.5 * abs(b)

    def rhs(t, a, z):
        u0 = u0_signal(t)
        w1 = float(phi1 @ a)
        return -lam * a - phi1 * (b * z * u0 + c1 * w1), sgn * u0 * w1

    rows = []

    def record(t, a, z):
        e = 0.5 * float(a @ a)
        nrm = math.sqrt(2.0 * e)
        rows.append((t, u0_signal(t), z, float(phi0 @ a), float(phi1 @ a),
                     nrm, nrm, e, e + half_b * z * z))

    n_steps = int(round(t_final / dt_ode))
    z, t, h = float(zetatilde0), 0.0, dt_ode
    record(t, a, z)
    for k in range(n_steps):
        k1a, k1z = rhs(t, a, z)
        k2a, k2z = rhs(t + h / 2, a + h / 2 * k1a, z + h / 2 * k1z)
        k3a, k3z = rhs(t + h / 2, a + h / 2 * k2a, z + h / 2 * k2z)
        k4a, k4z = rhs(t + h, a + h * k3a, z + h * k3z)
        a = a + h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
        z = z + h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
        t = (k + 1) * h
        if (k + 1) % sample_stride == 0 or k + 1 == n_steps:
            record(t, a, z)
    data = np.array(rows)
    return data[:, 0], dict(zip(GALERKIN_COLUMNS, data.T[1:]))


U0_SIGNALS = {
    "exp": lambda t: math.exp(-t),
    "sin": math.sin,
    "const2": lambda t: 2.0,
    "zero": lambda t: 0.0,
}


class TestGalerkinMatchesReferenceRoute:
    """The factored RK4 step reproduces the unfactored loop.

    Every column agrees within 1e-12 of its largest magnitude, so a
    column that is zero in the reference is exactly zero; the sample
    times and u0 are bit for bit the same.
    """

    def check(self, N, p, u0, w0, z0, stride, t_final=0.05):
        # 200 steps of h = 2.5e-4, near the RK4 stability bound at N = 32,
        # where every stage coupling weighs in; a stride of 7 does not divide them
        args = (N, p, u0, w0, z0, t_final, 2.5e-4, stride)
        tr = galerkin_error_system(*args)
        times, cols = reference_galerkin(*args)
        assert tr.times.tobytes() == times.tobytes()
        assert tr["u0"].tobytes() == cols["u0"].tobytes()
        for name in GALERKIN_COLUMNS:
            scale = np.abs(cols[name]).max()
            assert np.abs(tr[name] - cols[name]).max() <= 1e-12 * scale, name

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("b", [-10.0, 3.0])
    @pytest.mark.parametrize("u0", sorted(U0_SIGNALS))
    @pytest.mark.parametrize("N", [1, 8, 32])
    def test_columns_match(self, N, u0, b, stride):
        p = Params(q=2.0, b=b, c0=5.0, c1=5.0)
        w0 = benchmark_initial_state(Grid(201), 2.0)
        self.check(N, p, U0_SIGNALS[u0], w0, -0.1, stride)

    @pytest.mark.parametrize("steps, stride", [(1100, 1), (1100, 2), (2 * _SAMPLE_CHUNK - 1, 1)],
                             ids=["chunks-2.15", "chunks-1.08", "chunks-2"])
    def test_samples_across_chunks(self, params8, steps, stride):
        # the samples are recorded a chunk at a time: a part chunk at the end,
        # and two whole chunks, the last of which the last sample fills
        assert steps // stride + 1 > _SAMPLE_CHUNK
        w0 = benchmark_initial_state(Grid(201), 2.0)
        self.check(32, params8, math.sin, w0, -0.1, stride, steps * 2.5e-4)

    @pytest.mark.parametrize("N", [1, 8, 32])
    def test_zero_data_stays_zero(self, params8, N):
        self.check(N, params8, math.sin, GridFunction.zeros(Grid(201)), 0.0, 7)


def _diag_trace(times, **overrides):
    sc = {k: np.zeros_like(times) for k in TRACE_COLUMNS}
    sc.update(overrides)
    return Trace(times=times, scalars=sc)


class TestLimitDiagnostics:
    def test_constant_trace_has_zero_gaps(self):
        t = np.linspace(0.0, 10.0, 1001)
        tr = _diag_trace(t, zeta=np.full_like(t, -0.1), wnorm=np.full_like(t, 0.5))
        s = limit_diagnostics(tr, settle_window=1.0)
        assert s.all_converged
        assert all(d.gap == 0.0 for d in s.quantities.values())

    def test_exponential_settling(self):
        t = np.linspace(0.0, 10.0, 1001)
        tr = _diag_trace(t, zeta=0.1 * np.exp(-t))
        s = limit_diagnostics(tr, settle_window=1.0, gap_tol=1e-3)
        assert s.quantities["zeta"].gap <= 0.1 * math.exp(-9.0)
        assert s.quantities["zeta"].converged

    def test_blown_up_trace_not_converged(self):
        t = np.linspace(0.0, 4.0, 401)
        tr = dataclasses.replace(_diag_trace(t, wnorm=np.exp(3.0 * t)), blow_up_time=4.0)
        s = limit_diagnostics(tr, settle_window=1.0)
        assert not s.quantities["wnorm"].converged
        assert not s.all_converged

    def test_insufficient_duration(self):
        t = np.linspace(0.0, 1.0, 101)
        with pytest.raises(InsufficientDuration):
            limit_diagnostics(_diag_trace(t), settle_window=0.8)
