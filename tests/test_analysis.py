import math

import numpy as np
import pytest

from heatadapt import (
    ConfigError,
    Grid,
    GridFunction,
    InsufficientDuration,
    SimConfig,
    Trace,
    UnresolvableMode,
    ZeroCoefficient,
    benchmark_initial_state,
    energies,
    galerkin_error_system,
    limit_diagnostics,
    pe_check,
    pi_inverse,
    pi_transform,
    run_error_system,
    upsilon_b,
)
from heatadapt.domain import TRACE_COLUMNS


class TestEnergies:
    def test_zeros(self, zeros51):
        e = energies(zeros51, 0.0, -10.0)
        assert e == (0.0, 0.0)

    def test_constant_field(self, grid51):
        f = GridFunction(grid51, np.ones(51))
        e = energies(f, 0.0, -10.0)
        assert e.E == pytest.approx(0.5, abs=1e-12)
        assert e.F == e.E

    def test_parameter_error_term(self, zeros51):
        e = energies(zeros51, 0.2, -10.0)
        assert e.F == pytest.approx(5.0 * 0.04, abs=1e-15)
        assert e.E == 0.0


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

    def test_upsilon_involution(self):
        # exact in floating point for dyadic values; 1 ulp otherwise
        assert upsilon_b(upsilon_b(0.25, -8.0), -8.0) == 0.25
        assert upsilon_b(upsilon_b(0.3, -10.0), -10.0) == pytest.approx(0.3, abs=1e-15)
        assert upsilon_b(0.0, -10.0) == -0.1
        assert upsilon_b(1.0 / -10.0, -10.0) == 0.0

    def test_upsilon_rejects_zero(self):
        with pytest.raises(ZeroCoefficient):
            upsilon_b(0.3, 0.0)


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

    def test_integrator_stability_guard(self, params8):
        g = Grid(801)
        with pytest.raises(ConfigError):
            galerkin_error_system(
                64, params8, lambda t: 0.0, GridFunction.zeros(g), 0.0, 0.1, 1e-4
            )


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
        tr = _diag_trace(t, wnorm=np.exp(3.0 * t))
        tr.blown_up = True
        s = limit_diagnostics(tr, settle_window=1.0)
        assert not s.quantities["wnorm"].converged
        assert not s.all_converged

    def test_insufficient_duration(self):
        t = np.linspace(0.0, 1.0, 101)
        with pytest.raises(InsufficientDuration):
            limit_diagnostics(_diag_trace(t), settle_window=0.8)
