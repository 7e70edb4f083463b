"""Closed-loop assemblies of plant, observer and controller.

Each runner advances the coupled system with a fixed per-step order:
read boundary values, evaluate the feedback and the innovation, update
the reciprocal estimate, then step the plant with the pre-update
estimate and step the observer.  Using the pre-update estimate keeps
plant and observer consistent with the continuous-time simultaneity;
the O(dt) splitting error this introduces is covered by the energy
residual checks in the test suite.  That order, the sampling, the
blow-up test and the final sample live in one private loop, ``_run``;
a runner supplies only its state and its inputs, advance and row
callbacks.  Every runner steps its fields with one
:class:`~heatadapt.fdm.HeatStepper`, which holds plant and observer (or
the single field of open-loop and error-system runs) as rows of one
array and steps them in place.  :mod:`heatadapt.batch` steps many
stabilization runs on one grid as one stack of rows.

Runs are deterministic: identical inputs produce bit-identical traces
on one platform.  A run whose state norm passes 1e12 stops early with a
blow-up marker in the trace instead of raising; open-loop instability
is an expected, recorded outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import ServoTerms, adaptive_u0, servo_boundary, servo_eval, zeta_step
from .domain import (
    ConfigError,
    Grid,
    GridFunction,
    Params,
    ReferenceSignal,
    SimConfig,
    Trace,
    _Recorder,
)
from .fdm import GradientEnergy, HeatStepper, NonFiniteState

# The runners no longer call these; bench/tracer.py wraps them under these
# names, so they stay importable from here.
from .fdm import grad_values, l2_norm, step_heat  # noqa: F401

__all__ = [
    "ScenarioState",
    "BLOWUP_NORM",
    "benchmark_initial_state",
    "run_open_loop",
    "run_observer",
    "run_stabilization",
    "run_tracking",
    "run_error_system",
]

#: state norm at which a run is declared blown up and terminated
BLOWUP_NORM = 1e12


def _quiet() -> np.errstate:
    """Silence numpy's overflow warnings: the loops detect NaN/Inf from their scalars."""
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class ScenarioState:
    """State of a run at one instant: fields, estimate and last inputs.

    For error-system runs, ``w`` holds the error field and ``zeta`` the
    parameter error; ``what`` is None for runs without an observer.
    """

    t: float
    w: GridFunction
    what: GridFunction | None
    zeta: float
    last_u0: float
    last_u: float


def benchmark_initial_state(grid: Grid, q: float) -> GridFunction:
    """The standard initial profile w(x, 0) = q x - 1."""
    return GridFunction(grid, q * grid.nodes - 1.0)


@dataclass(slots=True)
class _Loop:
    """Mutable state of one run, shared by the loop and a runner's callbacks.

    ``w`` is the field whose norm decides blow-up; ``what`` is the
    observer field, or None for runs without one.  Both are rows of the
    run's :class:`HeatStepper` buffer, replaced by each step.  ``gsq``
    is the gradient energy of the current error field, for ``diss_cum``.
    """

    w: np.ndarray
    what: np.ndarray | None = None
    zeta: float = 0.0
    u0: float = 0.0
    u: float = 0.0
    innov: float = 0.0
    diss_cum: float = 0.0
    gsq: float = 0.0
    servo: ServoTerms | None = None

    def fields(self) -> dict[str, np.ndarray]:
        if self.what is None:
            return {"w": self.w}
        return {"w": self.w, "what": self.what}


_Step = Callable[[float, _Loop], None]


def _run(
    config: SimConfig,
    s: _Loop,
    inputs: _Step,
    advance: _Step,
    row: Callable[[float, _Loop], dict[str, float]],
    extra_names: tuple[str, ...] = (),
) -> Trace:
    """The time loop every runner shares.

    Each step calls ``inputs(t, s)`` to evaluate the loop's inputs, records
    ``row(t, s)`` every ``sample_stride`` steps and the fields every
    ``snapshot_stride`` steps, then calls ``advance(t, s)`` to step the
    fields.  A run whose ``s.w`` passes :data:`BLOWUP_NORM` stops there;
    one that turns NaN/Inf raises :class:`NonFiniteState`.  The last
    instant is always sampled, after one more ``inputs`` call.
    """
    dt, stride, snap_stride = config.dt, config.sample_stride, config.snapshot_stride
    dx = config.grid.dx
    rec = _Recorder(extra_names)
    blown, t_blow = False, None
    n_steps = config.n_steps
    with _quiet():
        for k in range(n_steps):
            t = k * dt
            inputs(t, s)
            if k % stride == 0:
                rec.row(t, **row(t, s))
            if snap_stride and k % snap_stride == 0:
                rec.snap(t, s.fields())
            advance(t, s)
            norm = math.sqrt(_sq_norm(s.w, dx))
            if not math.isfinite(norm):
                _require_finite(s.w)
            if norm > BLOWUP_NORM:
                blown, t_blow = True, (k + 1) * dt
                break
        t_end = t_blow if blown else n_steps * dt
        inputs(t_end, s)
        return _finish(config, rec, s, row, t_end, t_blow)


def _finish(
    config: SimConfig,
    rec: _Recorder,
    s: _Loop,
    row: Callable[[float, _Loop], dict[str, float]],
    t_end: float,
    t_blow: float | None,
) -> Trace:
    """Record the last instant, whose inputs ``s`` holds, and build the Trace."""
    grid = config.grid
    rec.row(t_end, **row(t_end, s))
    if config.snapshot_stride:
        rec.snap(t_end, s.fields())
    what = None if s.what is None else GridFunction(grid, s.what)
    final = ScenarioState(
        t=t_end, w=GridFunction(grid, s.w), what=what, zeta=s.zeta, last_u0=s.u0, last_u=s.u
    )
    return rec.build(final, blown_up=t_blow is not None, blow_up_time=t_blow)


def _sq_norm(values: np.ndarray, dx: float) -> float:
    v2 = values * values
    return dx * (v2.sum() - 0.5 * (v2[0] + v2[-1]))


def _require_finite(*fields: np.ndarray) -> None:
    """Raise :class:`NonFiniteState` if a field holds NaN/Inf.

    The loop calls this only once a scalar it computes from the fields
    (a norm, a gradient energy, a feedback value) is not finite; such a
    scalar is finite whenever the fields are, unless it overflows.
    """
    for f in fields:
        if not np.isfinite(f).all():
            raise NonFiniteState("heat step produced non-finite values")


def _initial_fields(config: SimConfig, *fields: GridFunction) -> list[np.ndarray]:
    """The values of the initial fields, which must be on the run's grid."""
    for f in fields:
        if f.grid != config.grid:
            raise ConfigError("initial data must live on the configured grid")
    return [f.values for f in fields]


def _stepper(config: SimConfig, *fields: GridFunction) -> HeatStepper:
    """A stepper over copies of the initial fields, which must be on the run's grid."""
    return HeatStepper(_initial_fields(config, *fields), config.grid.dx, config.dt)


def _windows(grid: Grid, stepper: HeatStepper, row: int) -> tuple[GridFunction, ...]:
    """Read-only GridFunction views of one row, one per stepper buffer.

    ``windows[stepper.index]`` shows the row's current values without a
    copy, for :func:`adaptive_u0`, which reads it within the step.  The
    values change under it as the run goes on, so no window leaves the
    runner.
    """
    return tuple(GridFunction._wrap(grid, buf[row]) for buf in stepper.buffers)


def _no_inputs(t: float, s: _Loop) -> None:
    pass


def run_open_loop(p: Params, config: SimConfig, w0: GridFunction) -> Trace:
    """Simulate the uncontrolled plant (u = 0) and record the growth of ||w||.

    With q > 1 the boundary convection wins and the state grows without
    bound; the run then stops at the blow-up threshold with the marker
    set rather than raising.
    """
    dx, q = config.grid.dx, p.q
    stepper = _stepper(config, w0)

    def advance(t: float, s: _Loop) -> None:
        (s.w,) = stepper.step(-q * s.w.item(0), 0.0)

    def row(t: float, s: _Loop) -> dict[str, float]:
        return {"w0": s.w[0], "w1": s.w[-1], "wnorm": math.sqrt(_sq_norm(s.w, dx))}

    return _run(config, _Loop(w=stepper.rows[0]), _no_inputs, advance, row)


def _run_observer_loop(
    p: Params,
    config: SimConfig,
    w0: GridFunction,
    what0: GridFunction,
    zeta0: float,
    u0_of: Callable[[float, GridFunction], float],
) -> Trace:
    """Common plant + observer + update-law loop.

    u0_of(t, what) supplies the controller value, either from an
    external signal (observer scenario) or from the adaptive feedback
    law (stabilization scenario).
    """
    dt, dx = config.dt, config.grid.dx
    q, b, c1, sgn = p.q, p.b, p.c1, p.sign_b
    stepper = _stepper(config, w0, what0)
    observer = _windows(config.grid, stepper, 1)
    energy = GradientEnergy(config.grid.n, dx)

    def inputs(t: float, s: _Loop) -> None:
        s.u0 = u0_of(t, observer[stepper.index])
        s.innov = s.w.item(-1) - s.what.item(-1)
        s.u = s.zeta * s.u0

    def advance(t: float, s: _Loop) -> None:
        innov = s.innov
        s.diss_cum += dt * (s.gsq + c1 * innov * innov)
        zeta_new = zeta_step(s.zeta, sgn, innov, s.u0, dt)
        left = -q * s.w.item(0)
        s.w, s.what = stepper.step(left, b * s.u, left, s.u0 + c1 * innov)
        # a NaN/Inf in either field makes the error's gradient energy non-finite
        s.gsq = energy.of_difference(s.w, s.what)
        if not math.isfinite(s.gsq):
            _require_finite(s.w, s.what)
        s.zeta = zeta_new

    w, what = stepper.rows
    with _quiet():
        gsq = energy.of_difference(w, what)
    state = _Loop(w=w, what=what, zeta=zeta0, gsq=gsq)
    return _run(config, state, inputs, advance, _observer_row(p, dx), ("diss_cum",))


def _observer_row(p: Params, dx: float) -> Callable[[float, _Loop], dict[str, float]]:
    """The sample row of a plant + observer + update-law run."""
    half_b = 0.5 * abs(p.b)
    inv_b = 1.0 / p.b

    def row(t: float, s: _Loop) -> dict[str, float]:
        w = s.w
        e = 0.5 * _sq_norm(w - s.what, dx)
        zt = inv_b - s.zeta
        return {
            "u0": s.u0, "u": s.u, "zeta": s.zeta, "w0": w[0], "w1": w[-1],
            "wnorm": math.sqrt(_sq_norm(w, dx)), "obs_err_norm": math.sqrt(2.0 * e),
            "E": e, "F": e + half_b * zt * zt, "diss_cum": s.diss_cum,
        }

    return row


def run_observer(
    p: Params,
    config: SimConfig,
    w0: GridFunction,
    what0: GridFunction,
    zeta0: float,
    u0_signal: Callable[[float], float],
) -> Trace:
    """Plant under u = zeta * u0 with an externally supplied u0(t).

    Exercises the observer and the update law in isolation from any
    feedback design; the plant may well be diverging while the
    estimation error decays.
    """
    return _run_observer_loop(p, config, w0, what0, zeta0, lambda t, _what: u0_signal(t))


def run_stabilization(
    p: Params,
    config: SimConfig,
    w0: GridFunction,
    what0: GridFunction,
    zeta0: float,
) -> Trace:
    """Full adaptive output-feedback stabilization loop."""
    est = p.estimator_view()
    return _run_observer_loop(
        p, config, w0, what0, zeta0, lambda t, what: adaptive_u0(what, est)
    )


def run_tracking(
    p: Params,
    config: SimConfig,
    w0: GridFunction,
    zhat0: GridFunction,
    zeta0: float,
    ref: ReferenceSignal,
) -> Trace:
    """Adaptive output tracking of the reference at the unactuated end.

    The observer estimates the shifted state z = w - v, where v is the
    servo solution built from the reference's derivative series; its
    boundary data v(1,t), v_x(1,t) enter the observer flux and the
    feedback.  The trace records the tracking error w(0,t) - r(t) and
    the servo slope series (the signal whose excitation decides whether
    the reciprocal estimate converges) alongside the standard columns.
    """
    dt, dx = config.dt, config.grid.dx
    q, b, c1, sgn = p.q, p.b, p.c1, p.sign_b
    est = p.estimator_view()
    J = config.servo_truncation_J
    half_b = 0.5 * abs(b)
    inv_b = 1.0 / b
    nodes = config.grid.nodes
    stepper = _stepper(config, w0, zhat0)
    observer = _windows(config.grid, stepper, 1)

    def inputs(t: float, s: _Loop) -> None:
        s.servo = servo_boundary(ref, q, t, J)
        s.u0 = adaptive_u0(observer[stepper.index], est, s.servo)
        # the feedback weighs every observer node, so a NaN/Inf there shows in u0
        if not math.isfinite(s.u0):
            _require_finite(s.what)
        s.innov = s.w.item(-1) - s.servo.v1 - s.what.item(-1)
        s.u = s.zeta * s.u0

    def advance(t: float, s: _Loop) -> None:
        zeta_new = zeta_step(s.zeta, sgn, s.innov, s.u0, dt)
        r_t = ref.derivative(0, t)
        w_at_0 = s.w.item(0)
        s.w, s.what = stepper.step(
            -q * w_at_0, b * s.u, -q * (w_at_0 - r_t), s.u0 + c1 * s.innov - s.servo.vx1
        )
        s.zeta = zeta_new

    def row(t: float, s: _Loop) -> dict[str, float]:
        w = s.w
        v_vals = servo_eval(ref, q, nodes, t, J)
        e = 0.5 * _sq_norm(w - v_vals - s.what, dx)
        zt = inv_b - s.zeta
        r_t = ref.derivative(0, t)
        return {
            "u0": s.u0, "u": s.u, "zeta": s.zeta, "w0": w[0], "w1": w[-1],
            "wnorm": math.sqrt(_sq_norm(w, dx)), "obs_err_norm": math.sqrt(2.0 * e),
            "E": e, "F": e + half_b * zt * zt,
            "tracking_err": w[0] - r_t, "ref": r_t, "v1": s.servo.v1, "vx1": s.servo.vx1,
        }

    w, what = stepper.rows
    state = _Loop(w=w, what=what, zeta=zeta0)
    return _run(config, state, inputs, advance, row, ("tracking_err", "ref", "v1", "vx1"))


def run_error_system(
    p: Params,
    config: SimConfig,
    wtilde0: GridFunction,
    zetatilde0: float,
    u0_signal: Callable[[float], float],
) -> Trace:
    """Directly simulate the estimation-error dynamics.

    The error field obeys the heat equation with zero flux at x = 0 and
    flux -b ztilde u0 - c1 werr(1) at x = 1, while the parameter error
    obeys ztilde' = sign(b) u0 werr(1).  Algebraically identical to the
    difference of plant and observer in :func:`run_observer`, which
    makes this the finite-difference half of the spectral cross-check.
    The ``zeta`` column holds the parameter error and ``wnorm`` equals
    ``obs_err_norm``; ``diss_cum`` accumulates
    dt * (||werr_x||^2 + c1 werr(1)^2) for energy-identity tests.
    """
    dt, dx = config.dt, config.grid.dx
    b, c1, sgn = p.b, p.c1, p.sign_b
    half_b = 0.5 * abs(b)
    stepper = _stepper(config, wtilde0)
    energy = GradientEnergy(config.grid.n, dx)

    def inputs(t: float, s: _Loop) -> None:
        s.u0 = u0_signal(t)
        s.innov = s.w.item(-1)

    def advance(t: float, s: _Loop) -> None:
        zt, u0, wt1 = s.zeta, s.u0, s.innov
        s.diss_cum += dt * (s.gsq + c1 * wt1 * wt1)
        zt_new = zt + dt * sgn * u0 * wt1
        (s.w,) = stepper.step(0.0, -b * zt * u0 - c1 * wt1)
        s.gsq = energy(s.w)
        s.zeta = zt_new

    def row(t: float, s: _Loop) -> dict[str, float]:
        wt, zt = s.w, s.zeta
        e = 0.5 * _sq_norm(wt, dx)
        nrm = math.sqrt(2.0 * e)
        return {
            "u0": s.u0, "zeta": zt, "w0": wt[0], "w1": wt[-1], "wnorm": nrm,
            "obs_err_norm": nrm, "E": e, "F": e + half_b * zt * zt, "diss_cum": s.diss_cum,
        }

    (wt,) = stepper.rows
    with _quiet():
        gsq = energy(wt)
    state = _Loop(w=wt, zeta=zetatilde0, gsq=gsq)
    return _run(config, state, inputs, advance, row, ("diss_cum",))
