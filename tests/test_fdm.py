import math

import numpy as np
import pytest

from heatadapt import (
    ConfigError,
    FluxBC,
    Grid,
    GridFunction,
    NonFiniteState,
    l2_norm,
    quad,
    step_heat,
)
from heatadapt.fdm import GradientEnergy, HeatStepper, grad_values
from heatadapt.scenarios import _sq_norm


def same_bits(x, y):
    return float(x).hex() == float(y).hex()


def heat_steps(state, bc, dt, n):
    for _ in range(n):
        state = step_heat(state, bc, dt)
    return state


class TestStepHeat:
    def test_constant_state_is_steady(self, grid51):
        u = GridFunction(grid51, np.full(51, 5.0))
        out = step_heat(u, FluxBC(0.0, 0.0), 1e-4)
        np.testing.assert_array_equal(out.values, u.values)

    def test_linear_profile_with_matching_fluxes_is_steady(self, grid51):
        u = GridFunction(grid51, grid51.nodes.copy())
        out = step_heat(u, FluxBC(1.0, 1.0), 1e-4)
        np.testing.assert_allclose(out.values, u.values, atol=1e-15)

    def test_input_unmodified(self, ramp51):
        before = ramp51.values.copy()
        step_heat(ramp51, FluxBC(0.5, -0.5), 1e-4)
        np.testing.assert_array_equal(ramp51.values, before)

    def test_eigenmode_decay_error_shrinks_on_refinement(self):
        # cos(pi x) decays exactly like e^{-pi^2 t} under zero-flux conditions.
        # Run at dt = 0.1 dx^2 so the spatial error term dominates; halving
        # both dx and dt must then cut the max-norm error by >= 3.5.
        T = 0.5

        def err(n, dt):
            g = Grid(n)
            u = GridFunction.from_callable(g, lambda x: np.cos(np.pi * x))
            u = heat_steps(u, FluxBC(0.0, 0.0), dt, int(round(T / dt)))
            exact = math.exp(-math.pi**2 * T) * np.cos(np.pi * g.nodes)
            return np.abs(u.values - exact).max()

        e_coarse = err(21, 0.1 * 0.05**2)
        e_fine = err(41, 0.05 * 0.05**2)
        assert e_coarse < 5e-4
        assert e_coarse / e_fine >= 3.5

    def test_mass_conserved_with_zero_fluxes(self, rng):
        g = Grid(51)
        u = GridFunction(g, rng.uniform(-1.0, 1.0, g.n))
        bc = FluxBC(0.0, 0.0)
        for _ in range(50):
            nxt = step_heat(u, bc, 1e-4)
            assert abs(quad(nxt) - quad(u)) < 1e-13
            u = nxt

    def test_discrete_maximum_principle(self, rng):
        # under dt <= dx^2/2 and zero fluxes every new value is a convex
        # combination of old ones
        g = Grid(26)
        dt = g.dx**2 / 2
        for _ in range(20):
            u = GridFunction(g, rng.uniform(-3.0, 3.0, g.n))
            out = step_heat(u, FluxBC(0.0, 0.0), dt)
            assert out.values.min() >= u.values.min() - 1e-12
            assert out.values.max() <= u.values.max() + 1e-12

    def test_linearity(self, rng, grid51):
        f = GridFunction(grid51, rng.standard_normal(51))
        h = GridFunction(grid51, rng.standard_normal(51))
        bf = FluxBC(0.3, -1.1)
        bh = FluxBC(-0.7, 0.2)
        a, b = 1.7, -0.4
        combo = GridFunction(grid51, a * f.values + b * h.values)
        bc = FluxBC(a * bf.left_flux + b * bh.left_flux, a * bf.right_flux + b * bh.right_flux)
        lhs = step_heat(combo, bc, 1e-4).values
        rhs = a * step_heat(f, bf, 1e-4).values + b * step_heat(h, bh, 1e-4).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_spatial_convergence_order(self):
        # fixed tiny dt isolates the O(dx^2) spatial error
        T, dt = 0.1, 2e-6

        def err(n):
            g = Grid(n)
            u = GridFunction.from_callable(g, lambda x: np.cos(np.pi * x))
            u = heat_steps(u, FluxBC(0.0, 0.0), dt, int(round(T / dt)))
            return np.abs(u.values - math.exp(-math.pi**2 * T) * np.cos(np.pi * g.nodes)).max()

        errs = [err(n) for n in (11, 21, 41)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_temporal_convergence_order(self):
        # fixed dx; compare against the exact decay of the discrete cosine
        # mode, which isolates the O(dt) time-integration error
        T, n = 0.2, 21
        g = Grid(n)
        mu = (2 * math.cos(math.pi * g.dx) - 2) / g.dx**2

        def err(dt):
            u = GridFunction.from_callable(g, lambda x: np.cos(np.pi * x))
            u = heat_steps(u, FluxBC(0.0, 0.0), dt, int(round(T / dt)))
            return np.abs(u.values - math.exp(mu * T) * np.cos(np.pi * g.nodes)).max()

        errs = [err(dt) for dt in (1e-3, 5e-4, 2.5e-4)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.9

    def test_source_term(self, grid51):
        # constant source on a constant state raises it uniformly by dt*s
        u = GridFunction(grid51, np.full(51, 1.0))
        s = GridFunction(grid51, np.full(51, 2.0))
        out = step_heat(u, FluxBC(0.0, 0.0), 1e-4, source=s)
        np.testing.assert_allclose(out.values, 1.0 + 2e-4, atol=1e-15)

    def test_overflowing_step_raises(self, grid51):
        # an almost-overflowed state pushed past the float range must fail
        # loudly, not leak Inf into the next step
        vals = np.full(51, 1e308)
        vals[25] = -1e308
        u = GridFunction(grid51, vals)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                step_heat(u, FluxBC(0.0, 0.0), 1e-4)


class TestHeatStepper:
    """The in-place kernel against the reference route, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [3, 51, 201])
    def test_each_step_equals_step_heat(self, n, k):
        rng = np.random.default_rng(1000 * n + k)
        g = Grid(n)
        dt = 0.4 * g.dx**2
        fields = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
        stepper = HeatStepper(fields, g.dx, dt)
        ref = [GridFunction(g, row) for row in fields]
        for _ in range(20):
            fluxes = rng.standard_normal(2 * k) * 10.0 ** rng.uniform(-3, 3, 2 * k)
            rows = stepper.step(*fluxes.tolist())
            ref = [
                step_heat(f, FluxBC(fluxes[2 * i], fluxes[2 * i + 1]), dt)
                for i, f in enumerate(ref)
            ]
            assert rows is stepper.rows
            for row, f in zip(rows, ref):
                assert row.tobytes() == f.values.tobytes()

    def test_input_fields_are_copied(self, ramp51):
        stepper = HeatStepper([ramp51.values], ramp51.grid.dx, 1e-4)
        stepper.step(0.5, -0.5)
        stepper.step(0.5, -0.5)
        np.testing.assert_array_equal(ramp51.values, 2.0 * ramp51.grid.nodes - 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_flux_raises_before_writing(self, ramp51, bad):
        stepper = HeatStepper([ramp51.values, ramp51.values], ramp51.grid.dx, 1e-4)
        before = stepper.rows
        with pytest.raises(ConfigError, match="boundary fluxes must be finite"):
            stepper.step(0.0, 0.0, 0.0, bad)
        assert stepper.rows is before
        np.testing.assert_array_equal(before[1], ramp51.values)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ConfigError):
            HeatStepper(np.zeros((2, 2)), 1.0, 0.1)


class TestGradientEnergy:
    @pytest.mark.parametrize("n", [3, 4, 51, 201])
    def test_equals_norm_of_grad_values(self, n):
        rng = np.random.default_rng(n)
        g = Grid(n)
        energy = GradientEnergy(n, g.dx)
        for _ in range(20):
            f = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            h = rng.standard_normal(n)
            assert same_bits(energy(f), _sq_norm(grad_values(f, g.dx), g.dx))
            assert same_bits(energy.of_difference(f, h), _sq_norm(grad_values(f - h, g.dx), g.dx))

    def test_linear_profile(self, grid51):
        # f = 3x has f_x = 3 everywhere, so the integral of f_x^2 is 9
        energy = GradientEnergy(51, grid51.dx)
        assert energy(3.0 * grid51.nodes) == pytest.approx(9.0, rel=1e-12)


class TestQuad:
    def test_zero(self, zeros51):
        assert quad(zeros51) == 0.0

    def test_exact_on_linear(self, grid51):
        f = GridFunction(grid51, grid51.nodes.copy())
        assert quad(f) == pytest.approx(0.5, abs=1e-14)

    def test_exponential_against_antiderivative(self, grid51):
        # oracle: integral of e^{2(1-x)} over [0,1] is (e^2 - 1)/2; the
        # trapezoid error is (dx^2/12) * int f'' = 4.26e-4 at dx = 0.02
        f = GridFunction.from_callable(grid51, lambda x: np.exp(2.0 * (1.0 - x)))
        exact = (math.e**2 - 1.0) / 2.0
        err = quad(f) - exact
        assert abs(err) < 5e-4
        # refinement sanity: the error is genuinely O(dx^2)
        g101 = Grid(101)
        f2 = GridFunction.from_callable(g101, lambda x: np.exp(2.0 * (1.0 - x)))
        assert abs(err) / abs(quad(f2) - exact) == pytest.approx(4.0, rel=0.02)


class TestL2Norm:
    def test_zero(self, zeros51):
        assert l2_norm(zeros51) == 0.0

    def test_constant(self, grid51):
        f = GridFunction(grid51, np.full(51, 3.0))
        assert l2_norm(f) == pytest.approx(3.0, abs=1e-12)

    def test_ramp_against_hand_integral(self, ramp51):
        # integral of (2x-1)^2 over [0,1] is 1/3
        assert l2_norm(ramp51) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-3)
