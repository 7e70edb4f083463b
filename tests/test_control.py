import math

import numpy as np
import pytest

from heatadapt import (
    Grid,
    GridFunction,
    Params,
    ReferenceSignal,
    TruncationInsufficient,
    adaptive_u0,
    backstepping_known_b,
    servo_boundary,
    servo_eval,
    zeta_step,
)
from heatadapt.control import (
    DEFAULT_TAIL_TOL,
    ServoTerms,
    _exp_kernel,
    _feedback_kernel,
    _ServoSeries,
    _zeta_steps,
    feedback_row,
)


@pytest.fixture()
def ones51(grid51):
    return GridFunction(grid51, np.ones(51))


class TestBackstepping:
    def test_zero_state(self, params8, zeros51):
        assert backstepping_known_b(zeros51, params8) == 0.0

    def test_constant_state_against_closed_form(self, params8, ones51):
        # K[1] = 1 + 2*(e^2-1)/2 = e^2, so u = (7/10) e^2; quadrature error
        # of the kernel integral is ~6e-4 at dx = 0.02
        val = backstepping_known_b(ones51, params8)
        assert val == pytest.approx(0.7 * math.e**2, abs=1.5e-3)

    def test_linearity_in_state(self, params8, ones51, grid51):
        doubled = GridFunction(grid51, 2.0 * ones51.values)
        assert backstepping_known_b(doubled, params8) == pytest.approx(
            2.0 * backstepping_known_b(ones51, params8), rel=1e-14
        )


class TestAdaptiveU0:
    def test_zero_state_no_servo(self, params8, zeros51):
        assert adaptive_u0(zeros51, params8.estimator_view()) == 0.0

    def test_constant_state_against_closed_form(self, params8, ones51):
        val = adaptive_u0(ones51, params8.estimator_view())
        assert val == pytest.approx(-7.0 * math.e**2, abs=1.5e-2)

    def test_constant_servo_adds_slope(self, params8, zeros51):
        # for r* = 3, q = 2 the servo boundary slope is -q r* = -6
        servo = servo_boundary(ReferenceSignal.constant(3.0), 2.0, 0.0, 0)
        assert adaptive_u0(zeros51, params8.estimator_view(), servo) == -6.0

    @pytest.mark.parametrize("n", [3, 51, 201])
    def test_equals_the_array_form(self, n):
        # the law in Python floats against -(q + c0) * float(f[-1] + q * (K @ f)),
        # with K built from the grid's own nodes and dx
        rng = np.random.default_rng(7 * n)
        grid = Grid(n)
        for q, c0 in [(2.0, 5.0), (9.0, 0.01), (0.5, 8.0), (3.7, 1e-3)]:
            est = Params(q=q, b=-10.0, c0=c0, c1=1.0).estimator_view()
            K = np.exp(q * (1.0 - grid.nodes))
            K[0] *= 0.5
            K[-1] *= 0.5
            K *= grid.dx
            for _ in range(10):
                f = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
                what = GridFunction(grid, f)
                expected = -(q + c0) * float(f[-1] + q * (K @ f))
                assert adaptive_u0(what, est).hex() == expected.hex()
                servo = ServoTerms(v1=0.0, vx1=float(rng.standard_normal()), tail_bound=0.0)
                assert adaptive_u0(what, est, servo).hex() == (expected + servo.vx1).hex()

    def test_kernel_is_read_only_and_shared_by_equal_grids(self):
        est = Params(q=4.125, b=-10.0, c0=5.0, c1=1.0).estimator_view()
        first, second = Grid(37), Grid(37)
        assert first is not second and first == second
        before = _exp_kernel.cache_info()
        u = adaptive_u0(GridFunction(first, np.ones(37)), est)
        assert adaptive_u0(GridFunction(second, np.ones(37)), est) == u
        after = _exp_kernel.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        weights = _exp_kernel(37, 4.125)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0

    def test_cannot_read_b(self, params8, ones51):
        # the estimator view physically lacks b; the plant-only law needs it
        est = params8.estimator_view()
        assert not hasattr(est, "b")
        with pytest.raises((TypeError, AttributeError)):
            backstepping_known_b(ones51, est)


class TestZetaStep:
    def test_zero_innovation_freezes(self):
        assert zeta_step(0.37, -1, 0.0, 2.0, 0.1) == 0.37

    def test_zero_u0_freezes(self):
        assert zeta_step(-1.2, 1, 0.5, 0.0, 0.1) == -1.2

    def test_direct_substitution(self):
        assert zeta_step(0.0, -1, 0.5, 2.0, 0.1) == pytest.approx(0.1, abs=0)

    def test_antisymmetric_in_sign(self, rng):
        # exact negation from a zero state; within rounding of z +- p otherwise
        for _ in range(50):
            innov, u0, dt = rng.uniform(-2, 2, 3)
            dt = abs(dt) + 1e-3
            assert zeta_step(0.0, 1, innov, u0, dt) == -zeta_step(0.0, -1, innov, u0, dt)
            z = rng.uniform(-2, 2)
            inc_plus = zeta_step(z, 1, innov, u0, dt) - z
            inc_minus = zeta_step(z, -1, innov, u0, dt) - z
            tol = 4.0 * np.spacing(abs(z) + abs(innov * u0 * dt))
            assert abs(inc_plus + inc_minus) <= tol

    @pytest.mark.parametrize("sign_b", [1, -1])
    def test_array_steps_equal_the_scalar_step(self, rng, sign_b):
        # a batch of runs takes the law on arrays: every value is zeta_step's, bit
        # for bit, over magnitudes from 1e-12 to 1e6 and zeros among them
        scale = 10.0 ** rng.uniform(-12, 6, (4, 64))
        zeta, innov, u0 = rng.standard_normal((3, 64)) * scale[:3]
        innov[::9], u0[::7] = 0.0, 0.0
        dt = float(rng.uniform(1e-6, 1e-3))
        out = np.empty(64)
        _zeta_steps(zeta, np.array(float(sign_b)), innov.copy(), u0, np.array(dt), out)
        expected = [zeta_step(z, sign_b, i, u, dt) for z, i, u in zip(zeta, innov, u0)]
        assert out.tobytes() == np.array(expected).tobytes()


class TestFeedbackKernel:
    @pytest.mark.parametrize("n", [3, 51, 101])
    def test_scaled_kernel_is_the_feedback_row(self, params8, n):
        # -(q + c0) h is g up to the order of its roundings
        g = feedback_row(n, params8.estimator_view())
        h = _feedback_kernel(n, params8.q)
        gain = -(params8.q + params8.c0)
        assert np.allclose(gain * h, g, rtol=4e-16 * n, atol=0)
        assert h[-1] == 1.0 + params8.q * _exp_kernel(n, params8.q)[-1]


class TestServoEval:
    def test_value_at_left_end_is_reference(self):
        ref = ReferenceSignal.sinusoid(0.8, 1.0)
        for t in (0.0, 0.4, 2.7):
            assert servo_eval(ref, 2.0, 0.0, t, 8) == ref.derivative(0, t)

    @pytest.mark.parametrize("J", [0, 1, 5, 12, 83])
    def test_constant_reference_exact_for_any_truncation(self, J):
        ref = ReferenceSignal.constant(3.0)
        for x in (0.0, 0.25, 1.0):
            assert servo_eval(ref, 2.0, x, 1.0, J) == 3.0 * (1.0 - 2.0 * x)

    @pytest.mark.parametrize("J", [84, 10**9])
    def test_truncation_past_the_float_range_rejected(self, J):
        # (2J + 3)! is past the float range from J = 84 on
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        with pytest.raises(ValueError, match=rf"J must be in \[0, 83\], got {J}"):
            servo_boundary(ref, 2.0, 0.0, J)
        with pytest.raises(ValueError, match=rf"J must be in \[0, 83\], got {J}"):
            servo_eval(ref, 2.0, 1.0, 0.0, J)

    def test_sinusoid_self_convergence(self):
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        v12 = servo_eval(ref, 2.0, 1.0, 1.0, 12)
        v20 = servo_eval(ref, 2.0, 1.0, 1.0, 20)
        assert abs(v12 - v20) <= 1e-8

    def test_truncation_guard_fires_for_small_J(self):
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        with pytest.raises(TruncationInsufficient):
            servo_eval(ref, 2.0, 1.0, 0.3, 0, tail_tol=1e-6)

    def test_vectorized_over_positions(self):
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        x = np.linspace(0.0, 1.0, 11)
        vals = servo_eval(ref, 2.0, x, 0.5, 12)
        assert vals.shape == x.shape
        assert vals[0] == pytest.approx(ref.derivative(0, 0.5), abs=0)

    def test_profile_satisfies_discrete_heat_equation(self):
        # time derivative matches the second space difference to O(dx^2 + dt)
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        q, J, t = 2.0, 12, 0.7

        def residual(n, dt):
            x = np.linspace(0.0, 1.0, n)
            dx = x[1] - x[0]
            v0 = servo_eval(ref, q, x, t, J)
            v1 = servo_eval(ref, q, x, t + dt, J)
            vt = (v1 - v0) / dt
            vxx = (v0[2:] - 2 * v0[1:-1] + v0[:-2]) / dx**2
            return np.abs(vt[1:-1] - vxx).max()

        r_coarse = residual(51, 1e-4)
        r_fine = residual(101, 2.5e-5)
        assert r_coarse < 5e-5
        assert r_coarse / r_fine > 3.0

    def test_left_slope_matches_reference_flux(self):
        # one-sided second-order slope at x = 0 approaches -q r(t)
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        q, J, t = 2.0, 12, 0.7

        def slope_err(n):
            x = np.linspace(0.0, 1.0, n)
            dx = x[1] - x[0]
            v = servo_eval(ref, q, x, t, J)
            slope = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dx)
            return abs(slope + q * ref.derivative(0, t))

        assert slope_err(51) < 5e-4
        assert slope_err(51) / slope_err(101) > 3.0


class TestServoBoundary:
    def test_zero_reference(self):
        terms = servo_boundary(ReferenceSignal.zero(), 2.0, 1.0, 5)
        assert terms.v1 == 0.0 and terms.vx1 == 0.0 and terms.tail_bound == 0.0

    def test_constant_reference_closed_form(self):
        terms = servo_boundary(ReferenceSignal.constant(3.0), 2.0, 0.37, 0)
        assert terms.v1 == -3.0
        assert terms.vx1 == -6.0
        assert terms.tail_bound == 0.0

    def test_sinusoid_self_convergence(self):
        ref = ReferenceSignal.sinusoid(1.0, 1.0)
        t12 = servo_boundary(ref, 2.0, 1.0, 12)
        t20 = servo_boundary(ref, 2.0, 1.0, 20)
        assert abs(t12.vx1 - t20.vx1) <= 1e-8
        assert abs(t12.v1 - t20.v1) <= 1e-8

    def test_truncation_guard(self):
        with pytest.raises(TruncationInsufficient):
            servo_boundary(ReferenceSignal.sinusoid(2.0, 1.5), 2.0, 0.2, 1, tail_tol=1e-8)


class _SeriesSum:
    """The servo series summed term by term from r^(j)(t), as before its closed form.

    The reference for :func:`servo_boundary` and :func:`servo_eval`:
    ``derivatives`` builds r^(j)(t) per call from the kind of reference,
    and ``boundary`` and ``profile`` sum the truncated series with the
    factorial coefficient tables.
    """

    def __init__(self, ref, q, J):
        self.ref, self.q, self.J = ref, q, J
        j = np.arange(J + 2)
        self.inv_2j = 1.0 / np.array([math.factorial(2 * k) for k in j], dtype=float)
        self.inv_2j1 = 1.0 / np.array([math.factorial(2 * k + 1) for k in j], dtype=float)
        self.c_v1 = self.inv_2j - q * self.inv_2j1
        self.c_vx1 = np.zeros(J + 2)
        self.c_vx1[1:] = q * self.inv_2j[1:] - 1.0 / np.array(
            [math.factorial(2 * k - 1) for k in j[1:]], dtype=float)
        if ref.kind == "sinusoid":
            self.amplitudes = ref.amplitude * ref.omega**j
            self.phases = j * math.pi / 2.0

    def derivatives(self, t):
        n = self.J + 2
        if self.ref.kind == "zero":
            return np.zeros(n)
        if self.ref.kind == "constant":
            out = np.zeros(n)
            out[0] = self.ref.value
            return out
        return self.amplitudes * np.sin(self.ref.omega * t + self.phases)

    def boundary(self, t, tail_tol):
        """(v1, vx1, tail_bound), or TruncationInsufficient."""
        r = self.derivatives(t)
        v1 = float(r[:-1] @ self.c_v1[:-1])
        vx1 = float(-self.q * r[0] - r[1:-1] @ self.c_vx1[1:-1])
        tail = max(abs(r[-1] * self.c_v1[-1]), abs(r[-1] * self.c_vx1[-1]))
        if tail > tail_tol:
            raise TruncationInsufficient(f"tail {tail}")
        return v1, vx1, float(tail)

    def profile(self, x, t, tail_tol):
        r = self.derivatives(t)
        powers = x[..., None] ** (2 * np.arange(self.J + 2))
        terms = r * (self.inv_2j * powers - self.q * self.inv_2j1 * powers * x[..., None])
        if float(np.max(np.abs(terms[..., -1]))) > tail_tol:
            raise TruncationInsufficient("tail")
        return terms[..., :-1].sum(axis=-1)


def _raises(f, *args):
    try:
        f(*args)
    except TruncationInsufficient:
        return True
    return False


class TestServoClosedForm:
    """The closed form against the term-by-term series sum."""

    SINUSOIDS = [(1.0, 1.0), (1.2345, 0.6789), (2.0, 1.7), (0.5, 0.999)]
    TIMES = np.linspace(0.0, 12.0, 5001)

    @pytest.mark.parametrize("amplitude, omega", SINUSOIDS)
    @pytest.mark.parametrize("J", [0, 1, 5, 12, 20])
    def test_sinusoid_boundary_matches_series_sum(self, amplitude, omega, J):
        # every instant, also those the default tolerance rejects: a column's
        # scale is then its amplitude, not the small values near a zero of it
        ref, q = ReferenceSignal.sinusoid(amplitude, omega), 2.0
        series = _SeriesSum(ref, q, J)
        got, want = [], []
        for t in self.TIMES.tolist():
            terms = servo_boundary(ref, q, t, J, tail_tol=math.inf)
            got.append((terms.v1, terms.vx1, terms.tail_bound))
            want.append(series.boundary(t, math.inf))
        got, want = np.array(got), np.array(want)
        scale = np.abs(want).max(axis=0)
        assert (np.abs(got - want).max(axis=0) <= 1e-14 * scale).all()

    @pytest.mark.parametrize("amplitude, omega", SINUSOIDS)
    @pytest.mark.parametrize("J", [0, 1, 5, 12, 20])
    @pytest.mark.parametrize("n", [51, 201])
    def test_sinusoid_profile_matches_series_sum(self, amplitude, omega, J, n):
        ref, q = ReferenceSignal.sinusoid(amplitude, omega), 2.0
        series, x = _SeriesSum(ref, q, J), Grid(n).nodes
        times = self.TIMES.tolist()
        got = np.array([servo_eval(ref, q, x, t, J, tail_tol=math.inf) for t in times])
        want = np.array([series.profile(x, t, math.inf) for t in times])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    # no constant(-0.0): it equals constant(0.0) as a cache key, so it may be
    # served the series built for +0.0
    @pytest.mark.parametrize(
        "ref",
        [ReferenceSignal.zero(), ReferenceSignal.constant(3.0), ReferenceSignal.constant(-1.5),
         ReferenceSignal.constant(0.0), ReferenceSignal.constant(1e-300)],
        ids=["zero", "const-3", "const-neg", "const-0", "const-tiny"],
    )
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 9.0])
    def test_constant_and_zero_reference_bit_equal(self, ref, q):
        x51, x201 = Grid(51).nodes, Grid(201).nodes
        for J in (0, 1, 5, 12, 20):
            series = _SeriesSum(ref, q, J)
            for t in (0.0, 0.37, 1.0, 5.0, 123.456):
                terms = servo_boundary(ref, q, t, J)
                got = (terms.v1, terms.vx1, terms.tail_bound)
                assert [float(v).hex() for v in got] == [
                    float(v).hex() for v in series.boundary(t, DEFAULT_TAIL_TOL)]
                for x in (x51, x201):
                    got = servo_eval(ref, q, x, t, J)
                    assert got.tobytes() == series.profile(x, t, DEFAULT_TAIL_TOL).tobytes()

    @pytest.mark.parametrize("tail_tol", [1e-8, 1e-6])
    def test_truncation_raised_at_the_same_instants(self, tail_tol):
        ref, q, J, x = ReferenceSignal.sinusoid(2.0, 1.5), 2.0, 1, Grid(51).nodes
        series = _SeriesSum(ref, q, J)
        times = self.TIMES.tolist()
        raised = [_raises(servo_boundary, ref, q, t, J, tail_tol) for t in times]
        assert raised == [_raises(series.boundary, t, tail_tol) for t in times]
        assert 0 < sum(raised) < len(times)
        raised = [_raises(servo_eval, ref, q, x, t, J, tail_tol) for t in times]
        assert raised == [_raises(series.profile, x, t, tail_tol) for t in times]
        assert 0 < sum(raised) < len(times)

    def test_tails_below_keeps_a_rounding_margin(self):
        # the operator route's sin and cos may stray from math's by a few dozen
        # ulps: a tail within 1e-12 of its weights' scale S below the
        # tolerance must not count as below it, so that such a block goes to
        # the stencil, which decides with math's sin and cos
        series = _ServoSeries(ReferenceSignal.sinusoid(1.0, 1.0), 2.0, 3)
        s, c, _, _, tail = series.at(0.7, math.inf)
        scale = np.abs(series._boundary_weights[2]).sum()
        assert tail == pytest.approx(9.5866e-5, rel=1e-4)
        assert scale == pytest.approx(1.488e-4, rel=1e-3)
        s, c = np.array([s]), np.array([c])
        assert not series.tails_below(s, c, tail + 0.5e-12 * scale)
        assert series.tails_below(s, c, tail + 2e-12 * scale)
