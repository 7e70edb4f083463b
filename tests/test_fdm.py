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
    step_heat,
)
from heatadapt.fdm import GradientEnergy, HeatStepper, _trapz, grad_values
from heatadapt.scenarios import _sq_norm


def same_bits(x, y):
    return float(x).hex() == float(y).hex()


def gradient_energies(values, dx):
    # the energies of the rows of ``values``, filled into a buffer of their own
    energy = GradientEnergy(values.shape[1], dx, np.empty(values.size + 1))
    energy.rows[:] = values
    return energy.of_rows(len(values))


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
            assert abs(_trapz(nxt.values, g.dx) - _trapz(u.values, g.dx)) < 1e-13
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
    """The slab kernel against the reference route, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [3, 51, 201])
    def test_each_step_equals_step_heat(self, n, k):
        # 20 steps down a slab of 21 rows, whose rows hold 3 more values than the
        # fields, checked and unchecked, at r = 0.4 and r = 0.2.  Every third step
        # starts from boundary values of +-0.0 beside +-0.0 or the smallest
        # subnormals, with +-0.0 fluxes: at r = 0.2, 2 r times such a subnormal
        # rounds to a zero of its sign, so some boundary nodes become -0.0
        rng = np.random.default_rng(1000 * n + k)
        g = Grid(n)
        negative_zeros = 0
        for check, ratio in [(True, 0.4), (False, 0.4), (True, 0.2), (False, 0.2)]:
            dt = ratio * g.dx**2
            fields = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
            slab = np.full((21, k * n + 3), 7.0)
            stepper = HeatStepper(slab, fields, g.dx, dt)
            assert slab[0, : k * n].tobytes() == fields.tobytes()
            ref = [GridFunction(g, row) for row in fields]
            for i in range(20):
                fluxes = rng.standard_normal(2 * k) * 10.0 ** rng.uniform(-3, 3, 2 * k)
                if i % 3 == 2:
                    fluxes = rng.choice([0.0, -0.0], 2 * k)
                    for row in stepper.rows[i]:
                        row[[1, -2]] = rng.choice([0.0, -0.0, 5e-324, -5e-324], 2)
                        row[[0, -1]] = rng.choice([0.0, -0.0], 2)
                    ref = [GridFunction(g, row) for row in stepper.rows[i]]
                rows = stepper.step(i, *fluxes.tolist(), check=check)
                ref = [
                    step_heat(f, FluxBC(fluxes[2 * j], fluxes[2 * j + 1]), dt)
                    for j, f in enumerate(ref)
                ]
                assert rows is stepper.rows[i + 1]
                assert all(np.shares_memory(row, slab[i + 1]) for row in rows)
                for row, f in zip(rows, ref):
                    assert row.tobytes() == f.values.tobytes()
                    ends = row[[0, -1]]
                    negative_zeros += int((np.signbit(ends) & (ends == 0.0)).sum())
            # the values past the fields are neither read nor written
            assert (slab[:, k * n :] == 7.0).all()
        assert negative_zeros

    def test_fields_in_any_memory_order(self, grid51):
        # the first row holds the fields in C order, whatever the order of
        # the array the stepper copies
        rng = np.random.default_rng(7)
        fields = np.asfortranarray(rng.standard_normal((3, 51)))
        dt = 0.4 * grid51.dx**2
        stepper = HeatStepper(np.empty((2, 3 * 51)), fields, grid51.dx, dt)
        stepper.step(0, *[0.5, -0.5] * 3)
        for row, f in zip(stepper.rows[1], fields):
            expected = step_heat(GridFunction(grid51, f), FluxBC(0.5, -0.5), dt)
            assert row.tobytes() == expected.values.tobytes()

    def test_input_fields_are_copied(self, ramp51):
        stepper = HeatStepper(np.empty((3, 51)), [ramp51.values], ramp51.grid.dx, 1e-4)
        stepper.step(0, 0.5, -0.5)
        stepper.step(1, 0.5, -0.5)
        np.testing.assert_array_equal(ramp51.values, 2.0 * ramp51.grid.nodes - 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_flux_raises_before_writing(self, ramp51, bad):
        slab = np.zeros((2, 2 * 51))
        stepper = HeatStepper(slab, [ramp51.values, ramp51.values], ramp51.grid.dx, 1e-4)
        with pytest.raises(ConfigError, match="boundary fluxes must be finite"):
            stepper.step(0, 0.0, 0.0, 0.0, bad)
        assert not slab[1].any()
        np.testing.assert_array_equal(stepper.rows[0][1], ramp51.values)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_unchecked_flux_reaches_its_boundary_node(self, ramp51, bad):
        # without the check a non-finite flux shows in the next row, so a
        # test of that row's values stands for the check
        stepper = HeatStepper(np.zeros((2, 51)), [ramp51.values], ramp51.grid.dx, 1e-4)
        with np.errstate(invalid="ignore"):
            (row,) = stepper.step(0, 0.0, bad, check=False)
        assert not math.isfinite(row[-1]) and np.isfinite(row[:-1]).all()

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ConfigError):
            HeatStepper(np.zeros((2, 4)), np.zeros((2, 2)), 1.0, 0.1)

    @pytest.mark.parametrize("slab", [
        np.zeros((2, 50)),  # rows too short for the fields
        np.zeros((1, 51)),  # no row to step into
        np.zeros((51, 2)).T,  # not C-contiguous
        np.zeros(102),  # not rows
    ], ids=["width", "rows", "order", "flat"])
    def test_rejects_a_slab_the_fields_do_not_fit(self, slab):
        with pytest.raises(ConfigError):
            HeatStepper(slab, np.zeros((1, 51)), 0.02, 1e-4)


class TestGradientEnergy:
    @pytest.mark.parametrize("n", [3, 4, 51, 201])
    def test_equals_norm_of_grad_values(self, n):
        rng = np.random.default_rng(n)
        g = Grid(n)
        # the row-wise energies of one row, and of many, against np.gradient's
        rows = rng.standard_normal((20, n)) * 10.0 ** rng.uniform(-3, 3, (20, 1))
        got = gradient_energies(rows, g.dx)
        assert got.shape == (20,)
        for f, energy in zip(rows, got):
            expected = _sq_norm(grad_values(f, g.dx), g.dx)
            assert same_bits(energy, expected)
            assert same_bits(gradient_energies(f[None], g.dx)[0], expected)

    def test_linear_profile(self, grid51):
        # f = 3x has f_x = 3 everywhere, so the integral of f_x^2 is 9
        assert gradient_energies(3.0 * grid51.nodes[None], grid51.dx) == pytest.approx(
            9.0, rel=1e-12)

    def test_first_rows_equal_all_rows(self, grid51):
        # a block of m steps asks for its m rows of the runner's slab, in any
        # order of m; each value equals that of the row's energy alone
        rng = np.random.default_rng(7)
        slab = rng.standard_normal((64, 51))
        energy = GradientEnergy(51, grid51.dx, np.empty(slab.size + 1))
        expected = [gradient_energies(f[None], grid51.dx)[0] for f in slab]
        for m in (64, 1, 37, 2, 64, 37):
            energy.rows[:] = slab
            got = energy.of_rows(m)
            assert got.shape == (m,)
            assert all(same_bits(g, e) for g, e in zip(got, expected))


    @pytest.mark.parametrize("n", [3, 51, 201])
    def test_rows_of_its_buffer_take_their_gradients_in_place(self, n):
        # the rows the caller fills in a buffer of k n + 1 values: each energy is
        # that of the same row on its own, and no buffer of their size is made
        import tracemalloc

        rng = np.random.default_rng(n)
        g = Grid(n)
        values = rng.standard_normal((64, n)) * 10.0 ** rng.uniform(-3, 3, (64, 1))
        expected = [gradient_energies(f[None], g.dx)[0] for f in values]
        energy = GradientEnergy(n, g.dx, np.empty(64 * n + 1))
        assert energy.rows.shape == (64, n) and energy.rows.flags.c_contiguous
        for m in (64, 1, 37, 64):
            energy.of_rows(m)  # plans the views of m rows
            energy.rows[:] = values
            tracemalloc.start()
            got = energy.of_rows(m)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert all(same_bits(a, b) for a, b in zip(got, expected[:m]))
            # the rows are overwritten, and the gradients took no rows-sized buffer
            assert not np.array_equal(energy.rows[:m], values[:m])
            assert peak < 8 * m * (n // 2 + 8) + 4096


class TestQuad:
    """The trapezoid rule, through ``_trapz`` and the squared norm it gives."""

    def test_zero(self, zeros51):
        assert _trapz(zeros51.values, zeros51.grid.dx) == 0.0

    def test_exact_on_linear(self, grid51):
        assert _trapz(grid51.nodes, grid51.dx) == pytest.approx(0.5, abs=1e-14)

    def test_exponential_against_antiderivative(self, grid51):
        # oracle: ||e^{1-x}||^2, the integral of e^{2(1-x)} over [0,1], is
        # (e^2 - 1)/2; the trapezoid error is (dx^2/12) * int f'' = 4.26e-4 at
        # dx = 0.02
        f = GridFunction.from_callable(grid51, lambda x: np.exp(1.0 - x))
        exact = (math.e**2 - 1.0) / 2.0
        err = l2_norm(f) ** 2 - exact
        assert abs(err) < 5e-4
        # refinement sanity: the error is genuinely O(dx^2)
        f2 = GridFunction.from_callable(Grid(101), lambda x: np.exp(1.0 - x))
        assert abs(err) / abs(l2_norm(f2) ** 2 - exact) == pytest.approx(4.0, rel=0.02)


class TestL2Norm:
    def test_zero(self, zeros51):
        assert l2_norm(zeros51) == 0.0

    def test_constant(self, grid51):
        f = GridFunction(grid51, np.full(51, 3.0))
        assert l2_norm(f) == pytest.approx(3.0, abs=1e-12)

    def test_ramp_against_hand_integral(self, ramp51):
        # integral of (2x-1)^2 over [0,1] is 1/3
        assert l2_norm(ramp51) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-3)
