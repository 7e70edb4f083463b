"""Stabilization runs of many members stepped together as one stack.

:func:`run_stabilization_batch` runs the loop of
:func:`~heatadapt.scenarios.run_stabilization` for B members on one
grid at once: one :class:`~heatadapt.fdm.HeatStepper` steps the plant
and observer rows of every member, and the scalars of the loop become
arrays with one element per member.  Each operation is the scalar
loop's, elementwise, so every member's trace is bit-identical to its
own run.  The stack handles only the ordinary case, every member run
to the horizon: how a run ends early is decided by the scalar runner
alone, and a stack that may hold such a member gives up.  One stack step
costs about as much as two or three single stencil steps and barely grows
with B.  Sweeps use it only on grids above
:data:`~heatadapt.scenarios._OPERATOR_MAX_N` nodes, where single runs
step on the stencil: there, end to end, a six-member sweep costs about
0.8 of its members run alone, and three members break even.  On smaller
grids a single run steps as one operator product, and B of them alone
cost less than the stack (README, Performance).  The module is separate
so that a process that never batches does not compile it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .control import BatchFeedback, zeta_step
from .domain import ConfigError, GridFunction, Params, SimConfig, Trace, _Recorder
from .fdm import GradientEnergy, HeatStepper
from .scenarios import _OBSERVER_COLUMNS, _QUIET_SQ, _finish, _initial_fields, _observer_row, _quiet

__all__ = ["run_stabilization_batch"]


def run_stabilization_batch(
    params: Sequence[Params],
    config: SimConfig,
    w0s: Sequence[GridFunction],
    what0s: Sequence[GridFunction],
    zeta0s: Sequence[float],
) -> list[Trace] | None:
    """:func:`run_stabilization` of many members at once, as one stack.

    Member i is the run ``run_stabilization(params[i], config, w0s[i],
    what0s[i], zeta0s[i])``, and the list returned holds, per member, the
    Trace that run returns, bit for bit.  The plant and observer rows of
    every member are stepped together as one ``(2, B, n)``
    :class:`HeatStepper` buffer, in the scalar loop's order of operations,
    with the feedback built by :class:`BatchFeedback` from each member's
    estimator view alone.

    Returns None when some member may end otherwise than at the horizon:
    as soon as the squares of the stack's values sum to :data:`_QUIET_SQ`
    or more (a NaN/Inf fails that test too), or when a member's trace
    does not build.  Below that level no member blows up or holds a
    NaN/Inf, and a non-finite flux shows in the state of the next step.
    The caller then runs each member on its own.
    """
    count = len(params)
    if not len(w0s) == len(what0s) == len(zeta0s) == count:
        raise ConfigError("every member needs its own w0, what0 and zeta0")
    grid, dt, dx = config.grid, config.dt, config.grid.dx
    stride, snap_stride, n_steps = config.sample_stride, config.snapshot_stride, config.n_steps
    fields = np.array(_initial_fields(config, *w0s, *what0s)).reshape(2, count, grid.n)
    stepper = HeatStepper(fields, dx, dt)
    # plant, observer, and the plant's first and last column, per buffer
    views = [(buf[0], buf[1], buf[0, :, 0], buf[0, :, -1], buf[1, :, -1])
             for buf in stepper.buffers]
    flats = [buf.reshape(-1) for buf in stepper.buffers]
    feedback = BatchFeedback(grid, [p.estimator_view() for p in params])
    energy = GradientEnergy(grid.n, dx)
    rows = [_observer_row(p, dx) for p in params]
    recs = [_Recorder(_OBSERVER_COLUMNS, n_steps, stride) for _ in params]
    neg_q = -np.array([p.q for p in params])
    b = np.array([p.b for p in params])
    c1 = np.array([p.c1 for p in params])
    sgn = np.array([p.sign_b for p in params], dtype=float)
    # one flux per stepper row: the left flux both rows of a member share,
    # then the plant's and the observer's right fluxes
    fluxes = np.empty((2, 2, count))
    left, right = fluxes[0].reshape(-1), fluxes[1].reshape(-1)
    (plant_left, observer_left), (plant, observer) = fluxes
    zeta = np.array(zeta0s, dtype=float)
    diss = np.zeros(count)

    with _quiet():
        gsq = energy.of_row_differences(fields[0], fields[1])
        for k in range(n_steps):
            w, what, w_first, w_last, what_last = views[stepper.index]
            u0 = feedback(what)
            innov = w_last - what_last
            u = zeta * u0
            np.multiply(neg_q, w_first, plant_left)
            np.copyto(observer_left, plant_left)
            np.multiply(b, u, plant)
            np.add(u0, c1 * innov, observer)
            t = k * dt
            if k % stride == 0:
                # each member's _observer_row arguments: w, what, zeta, u0, u, diss_cum
                for rec, row, *state in zip(recs, rows, w, what, zeta.tolist(), u0.tolist(),
                                            u.tolist(), diss.tolist()):
                    rec.row(t, row(*state))
            if snap_stride and k % snap_stride == 0:
                for rec, w_i, what_i in zip(recs, w, what):
                    rec.snap(t, {"w": w_i, "what": what_i})
            diss += dt * (gsq + c1 * innov * innov)
            zeta_new = zeta_step(zeta, sgn, innov, u0, dt)
            stepper.step_rows(left, right)
            flat = flats[stepper.index]
            if not np.dot(flat, flat) < _QUIET_SQ:
                return None
            gsq = energy.of_row_differences(*views[stepper.index][:2])
            zeta = zeta_new

        # the last instant's inputs, as in _run
        w, what = views[stepper.index][:2]
        u0 = feedback(what)
        u = zeta * u0
        states = zip(w, what, zeta.tolist(), u0.tolist(), u.tolist())
        try:
            return [_finish(config, rec, n_steps * dt, None, row(*state, d), state)
                    for rec, row, state, d in zip(recs, rows, states, diss.tolist())]
        except ConfigError:
            return None
