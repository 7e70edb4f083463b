"""Closed-loop assemblies of plant, observer and controller.

Each runner advances the coupled system with a fixed per-step order:
read boundary values, evaluate the feedback and the innovation, update
the reciprocal estimate, then step the plant with the pre-update
estimate and step the observer.  Using the pre-update estimate keeps
plant and observer consistent with the continuous-time simultaneity;
the O(dt) splitting error this introduces is covered by the energy
residual checks in the test suite.  A runner keeps its state in its
own variables and steps it in blocks of at most 64 steps, which end
only at snapshot instants, a blow-up and the horizon, through one
shared blow-up test, ``_blown_up``; the schedule of blocks, snapshots
and the final sample lives in one private function, ``_run``.  A block
keeps the scalars of the sample instants it passes and, for runs that
integrate the dissipation ``diss_cum``, the error field of every step
in a slab; when it ends, one row-wise call computes the gradient
energies of the slab and one the norms of its samples, and the samples
are recorded.  Observer, stabilization and tracking runs
share one loop, ``_run_observer_loop``, and differ only in their
inputs: the controller value and, for tracking, the servo terms and
the reference.  Open-loop and error-system runs keep their own loops,
whose fluxes are ordered differently.  Every runner steps its fields
with one :class:`~heatadapt.fdm.HeatStepper`, which holds plant and
observer (or the single field of open-loop and error-system runs) as
rows of one array and steps them in place.  :mod:`heatadapt.batch`
steps many stabilization runs on one grid as one stack of rows, but
only to the horizon: how a run ends early is decided here alone.

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

from .control import adaptive_u0, servo_boundary, servo_eval, zeta_step
from .domain import (
    ConfigError,
    Grid,
    GridFunction,
    Params,
    ReferenceSignal,
    SimConfig,
    Trace,
    TRACE_COLUMNS,
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

#: fields whose squares sum to less than this, so that no value passes
#: BLOWUP_NORM / 2, have a finite gradient energy and a norm under BLOWUP_NORM:
#: the trapezoid weights sum to 1, so the norm is at most sqrt(n / (n - 1))
#: <= 1.23 times the largest value, rounding included
_QUIET_SQ = (0.5 * BLOWUP_NORM) ** 2


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


#: the most steps one block takes, and so the steps one :class:`_Slab` holds
_SLAB = 64

#: ``block(k, stop)`` steps a run from step k to step stop, see :func:`_run`
_Block = Callable[[int, int], "int | None"]
#: ``flush(rec, k0, k)`` records the samples of the block from step k0 to k
_Flush = Callable[[_Recorder, int, int], None]
#: ``row(t)``: the values of a run's columns at the current instant t
_Row = Callable[[float], tuple[float, ...]]
#: ``now()``: the current plant field, observer field (or None), zeta, u0 and u
_Now = Callable[[], tuple]


def _run(
    config: SimConfig, names: tuple[str, ...], block: _Block, flush: _Flush, row: _Row, now: _Now
) -> Trace:
    """The schedule every runner shares: blocks, snapshots and the last instant.

    A runner holds its state in its own variables and evaluates the inputs
    of step 0 before this is called.  ``block(k, stop)`` then advances
    from step k to step ``stop``, at most :data:`_SLAB` steps on: each step
    keeps the sample of the instant it starts from if that is on the
    ``sample_stride``, takes the inputs at hand, steps the fields, runs
    :func:`_blown_up` on the plant field and evaluates the inputs of the
    instant it reaches.  It returns None, or the step at which the plant
    field blew up, where the run ends; a state that turns NaN/Inf raises
    :class:`NonFiniteState` from it.  After each block ``flush`` records
    the samples the block kept, the values of the columns ``names``.
    Blocks also end every ``snapshot_stride`` steps, where this records the
    fields of ``now()``.  The last instant is always sampled, from
    ``row(t)``, the columns' values at the current instant t.
    """
    dt, snap_stride, n_steps = config.dt, config.snapshot_stride, config.n_steps
    rec = _Recorder(names, n_steps, config.sample_stride)
    k, blow = 0, None
    with _quiet():
        while blow is None and k < n_steps:
            stop = min(n_steps, k + _SLAB)
            if snap_stride:
                if k % snap_stride == 0:
                    rec.snap(k * dt, _fields(*now()[:2]))
                stop = min(stop, k - k % snap_stride + snap_stride)
            blow = block(k, stop)
            flush(rec, k, stop if blow is None else blow)
            k = stop
        t_blow = None if blow is None else blow * dt
        t_end = n_steps * dt if blow is None else t_blow
        return _finish(config, rec, t_end, t_blow, row(t_end), now())


def _put(rec: _Recorder, samples: list[tuple[float, ...]]) -> None:
    """Record the rows kept in ``samples``, each t and the columns' values, and forget them."""
    if samples:
        rec.rows(len(samples))[:] = samples
        samples.clear()


class _Slab:
    """One block's error fields, turned into gradient energies when it ends.

    The error field is w - what, or the field of an error-system run.  A
    block writes the field at the instant it starts from into ``rows[0]``
    and, after its i-th step, the field it reaches into ``rows[i]``, and it
    appends each step's boundary value x of the field to ``xs``.
    :meth:`close` then computes the gradient energies of all rows with one
    row-wise call and adds each step's ``dt * (||f_x||^2 + c1 x^2)`` to
    ``diss``, in step order, as a loop that took the energy every step did.
    """

    __slots__ = ("rows", "head", "xs", "diss", "_energy", "_dt", "_c1")

    def __init__(self, config: SimConfig, c1: float):
        n = config.grid.n
        buf = np.empty((_SLAB + 1, n))
        #: each row, and the first _SLAB of them, the fields a block steps from
        self.rows, self.head = tuple(buf), buf[:_SLAB]
        self.xs: list[float] = []
        self.diss = 0.0
        self._energy = GradientEnergy(n, config.grid.dx)
        self._dt, self._c1 = config.dt, c1

    def close(self) -> list[float]:
        """Add the block's steps to ``diss``; return its value at each instant stepped from.

        The rows past the block's steps hold an earlier block's fields, or
        nothing yet; their energies are computed and not read.
        """
        dt, c1, diss, at = self._dt, self._c1, self.diss, []
        for g, x in zip(self._energy.of_rows(self.head).tolist(), self.xs):
            at.append(diss)
            diss += dt * (g + c1 * x * x)
        self.diss = diss
        self.xs.clear()
        return at


def _errors(out: np.ndarray, fields: np.ndarray, zt, half_b: float, diss, dx: float) -> None:
    """Fill in obs_err_norm, E, F and diss_cum, the columns of ``out``, for samples.

    ``fields`` are the samples' error fields as rows, ``zt`` their
    parameter errors and ``diss`` their diss_cum; every value equals the
    one a per-sample row computes from the same inputs, bit for bit.
    """
    e = 0.5 * _sq_norms(fields, dx)
    np.sqrt(2.0 * e, out=out[:, 0])
    out[:, 1] = e
    out[:, 2] = e + half_b * zt * zt
    out[:, 3] = diss


def _finish(
    config: SimConfig,
    rec: _Recorder,
    t_end: float,
    t_blow: float | None,
    values: tuple[float, ...],
    state: tuple,
) -> Trace:
    """Record the last instant and build the Trace.

    ``values`` is the instant's row and ``state`` what ``now()`` gives there.
    """
    grid = config.grid
    w, what, zeta, u0, u = state
    rec.row(t_end, values)
    if config.snapshot_stride:
        rec.snap(t_end, _fields(w, what))
    final = ScenarioState(
        t=t_end, w=GridFunction(grid, w), what=None if what is None else GridFunction(grid, what),
        zeta=zeta, last_u0=u0, last_u=u,
    )
    return rec.build(final, blow_up_time=t_blow)


def _fields(w: np.ndarray, what: np.ndarray | None) -> dict[str, np.ndarray]:
    return {"w": w} if what is None else {"w": w, "what": what}


def _blown_up(w: np.ndarray, dx: float) -> bool:
    """Whether the norm of the plant field w passes :data:`BLOWUP_NORM`.

    Raises :class:`NonFiniteState` if w holds NaN/Inf.  The exact norm,
    which squares a copy of w, is computed only once ``w . w`` reaches
    :data:`_QUIET_SQ`; a NaN fails that test too, so it takes the exact one.
    """
    if w.dot(w) < _QUIET_SQ:
        return False
    norm = math.sqrt(_sq_norm(w, dx))
    if not math.isfinite(norm):
        _require_finite(w)
    return norm > BLOWUP_NORM


def _sq_norm(values: np.ndarray, dx: float) -> float:
    v2 = values * values
    return dx * (v2.sum() - 0.5 * (v2[0] + v2[-1]))


def _sq_norms(rows: np.ndarray, dx: float) -> np.ndarray:
    """:func:`_sq_norm` of each row, bit for bit: each row of the squares is summed alike."""
    v2 = rows * rows
    return dx * (np.add.reduce(v2, axis=1) - 0.5 * (v2[:, 0] + v2[:, -1]))


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


def run_open_loop(p: Params, config: SimConfig, w0: GridFunction) -> Trace:
    """Simulate the uncontrolled plant (u = 0) and record the growth of ||w||.

    With q > 1 the boundary convection wins and the state grows without
    bound; the run then stops at the blow-up threshold with the marker
    set rather than raising.
    """
    dt, dx, stride, q = config.dt, config.grid.dx, config.sample_stride, p.q
    stepper = _stepper(config, w0)
    (w,) = stepper.rows
    samples: list[tuple[float, ...]] = []

    def block(k: int, stop: int) -> int | None:
        nonlocal w
        step = stepper.step
        while k < stop:
            if k % stride == 0:
                samples.append((k * dt, *row(k * dt)))
            (w,) = step(-q * w.item(0), 0.0)
            k += 1
            if _blown_up(w, dx):
                return k
        return None

    def row(t: float) -> tuple[float, ...]:
        return w[0], w[-1], math.sqrt(_sq_norm(w, dx))

    return _run(config, ("w0", "w1", "wnorm"), block, lambda rec, k0, k: _put(rec, samples), row,
                lambda: (w, None, 0.0, 0.0, 0.0))


#: ``inputs(t, what)``: the feedback value u0 and the servo terms v(1,t),
#: v_x(1,t) and r(t) at instant t, given the observer field what
_Inputs = Callable[[float, GridFunction], tuple[float, float, float, float]]


def _run_observer_loop(
    p: Params,
    config: SimConfig,
    w0: GridFunction,
    what0: GridFunction,
    zeta0: float,
    inputs: _Inputs,
    ref: ReferenceSignal | None = None,
) -> Trace:
    """The plant + observer + update-law loop of observer, stabilize and track.

    ``inputs(t, what)`` gives the controller value u0 and, for tracking,
    the servo terms v(1,t), v_x(1,t) and r(t); the observer then
    estimates z = w - v.  Without a reference the three are +0.0, and
    ``x - 0.0 == x`` for every float, so the step is the stabilizing one
    bit for bit.  Only runs without a reference record ``diss_cum``: their
    steps write w - what into a :class:`_Slab`, whose squares catch a
    NaN/Inf state, which tracking's ``inputs`` catch from u0.
    """
    dt, dx, stride = config.dt, config.grid.dx, config.sample_stride
    q, b, c1, sgn = p.q, p.b, p.c1, p.sign_b
    stepper = _stepper(config, w0, what0)
    observer = _windows(config.grid, stepper, 1)
    w, what = stepper.rows
    zeta = zeta0
    with _quiet():
        u0, v1, vx1, r = inputs(0.0, observer[0])
    samples: list[tuple[float, ...]] = []
    slab = None if ref is not None else _Slab(config, c1)
    errors = None if slab is None else slab.rows

    def block(k: int, stop: int) -> int | None:
        nonlocal w, what, zeta, u0, v1, vx1, r
        step, update, k0 = stepper.step, zeta_step, k
        if errors is not None:
            np.subtract(w, what, errors[0])
            keep = slab.xs.append
        while k < stop:
            if k % stride == 0:
                sample(k * dt)
            innov = w.item(-1) - v1 - what.item(-1)
            zeta_new = update(zeta, sgn, innov, u0, dt)
            w_at_0 = w.item(0)
            w, what = step(-q * w_at_0, b * (zeta * u0), -q * (w_at_0 - r), u0 + c1 * innov - vx1)
            zeta = zeta_new
            k += 1
            if errors is not None:
                keep(innov)
                d = errors[k - k0]
                np.subtract(w, what, d)
                # a NaN/Inf in either field makes the error's squares non-finite
                if not math.isfinite(d.dot(d)):
                    _require_finite(w, what)
            blown = _blown_up(w, dx)
            u0, v1, vx1, r = inputs(k * dt, observer[stepper.index])
            if blown:
                return k
        return None

    half_b, inv_b = 0.5 * abs(b), 1.0 / b
    if slab is None:
        names = (*TRACE_COLUMNS, "tracking_err", "ref", "v1", "vx1")
        J, nodes = config.servo_truncation_J, config.grid.nodes

        def row(t: float) -> tuple[float, ...]:
            e = 0.5 * _sq_norm(w - servo_eval(ref, q, nodes, t, J) - what, dx)
            zt = inv_b - zeta
            return (u0, zeta * u0, zeta, w[0], w[-1], math.sqrt(_sq_norm(w, dx)),
                    math.sqrt(2.0 * e), e, e + half_b * zt * zt, w[0] - r, r, v1, vx1)

        def sample(t: float) -> None:
            samples.append((t, *row(t)))

        def flush(rec: _Recorder, k0: int, k: int) -> None:
            _put(rec, samples)
    else:
        names, observer_row = _OBSERVER_COLUMNS, _observer_row(p, dx)
        plants = np.empty((_SLAB, config.grid.n))
        copies = tuple(plants)

        def row(t: float) -> tuple[float, ...]:
            return observer_row(w, what, zeta, u0, zeta * u0, slab.diss)

        def sample(t: float) -> None:
            np.copyto(copies[len(samples)], w)
            samples.append((t, u0, zeta * u0, zeta, w.item(0), w.item(-1)))

        def flush(rec: _Recorder, k0: int, k: int) -> None:
            diss = slab.close()
            if samples:
                # the columns of _observer_row, after t
                out = rec.rows(len(samples))
                out[:, :6] = samples
                np.sqrt(_sq_norms(plants[: len(samples)], dx), out=out[:, 6])
                at = slice(-k0 % stride, k - k0, stride)
                _errors(out[:, 7:], slab.head[at], inv_b - out[:, 3], half_b, diss[at], dx)
                samples.clear()

    return _run(config, names, block, flush, row, lambda: (w, what, zeta, u0, zeta * u0))


#: the columns of a plant + observer + update-law run's rows without a reference
_OBSERVER_COLUMNS = (*TRACE_COLUMNS, "diss_cum")


def _observer_row(p: Params, dx: float) -> Callable[..., tuple[float, ...]]:
    """``row(w, what, zeta, u0, u, diss_cum)``: a plant + observer run's sample.

    The values are those of _OBSERVER_COLUMNS.
    """
    half_b = 0.5 * abs(p.b)
    inv_b = 1.0 / p.b

    def row(w, what, zeta, u0, u, diss_cum) -> tuple[float, ...]:
        e = 0.5 * _sq_norm(w - what, dx)
        zt = inv_b - zeta
        return (u0, u, zeta, w[0], w[-1], math.sqrt(_sq_norm(w, dx)),
                math.sqrt(2.0 * e), e, e + half_b * zt * zt, diss_cum)

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
    return _run_observer_loop(
        p, config, w0, what0, zeta0, lambda t, _what: (u0_signal(t), 0.0, 0.0, 0.0)
    )


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
        p, config, w0, what0, zeta0, lambda t, what: (adaptive_u0(what, est), 0.0, 0.0, 0.0)
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
    est = p.estimator_view()
    q, J = p.q, config.servo_truncation_J

    def inputs(t: float, zhat: GridFunction) -> tuple[float, float, float, float]:
        servo = servo_boundary(ref, q, t, J)
        u0 = adaptive_u0(zhat, est, servo)
        # the feedback weighs every observer node, so a NaN/Inf there shows in u0
        if not math.isfinite(u0):
            _require_finite(zhat.values)
        return u0, servo.v1, servo.vx1, ref.derivative(0, t)

    return _run_observer_loop(p, config, w0, zhat0, zeta0, inputs, ref)


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
    dt, dx, stride = config.dt, config.grid.dx, config.sample_stride
    b, c1, sgn = p.b, p.c1, p.sign_b
    half_b = 0.5 * abs(b)
    stepper = _stepper(config, wtilde0)
    slab = _Slab(config, c1)
    errors, keep = slab.rows, slab.xs.append
    (wt,) = stepper.rows
    zt = zetatilde0
    samples: list[tuple[float, ...]] = []
    with _quiet():
        u0 = u0_signal(0.0)

    def block(k: int, stop: int) -> int | None:
        nonlocal wt, zt, u0
        step, k0 = stepper.step, k
        np.copyto(errors[0], wt)
        while k < stop:
            wt1 = wt.item(-1)
            if k % stride == 0:
                samples.append((k * dt, u0, zt, wt.item(0), wt1))
            keep(wt1)
            zt_new = zt + dt * sgn * u0 * wt1
            (wt,) = step(0.0, -b * zt * u0 - c1 * wt1)
            zt = zt_new
            k += 1
            np.copyto(errors[k - k0], wt)
            blown = _blown_up(wt, dx)
            u0 = u0_signal(k * dt)
            if blown:
                return k
        return None

    def flush(rec: _Recorder, k0: int, k: int) -> None:
        diss = slab.close()
        if samples:
            # t, u0, zeta, w0, w1, then wnorm, which equals obs_err_norm, and the rest
            out = rec.rows(len(samples))
            out[:, :5] = samples
            at = slice(-k0 % stride, k - k0, stride)
            _errors(out[:, 6:], slab.head[at], out[:, 2], half_b, diss[at], dx)
            out[:, 5] = out[:, 6]
            samples.clear()

    def row(t: float) -> tuple[float, ...]:
        e = 0.5 * _sq_norm(wt, dx)
        nrm = math.sqrt(2.0 * e)
        return u0, zt, wt[0], wt[-1], nrm, nrm, e, e + half_b * zt * zt, slab.diss

    names = ("u0", "zeta", "w0", "w1", "wnorm", "obs_err_norm", "E", "F", "diss_cum")
    return _run(config, names, block, flush, row, lambda: (wt, None, zt, u0, 0.0))
