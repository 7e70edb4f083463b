"""Stabilization runs of many members stepped together as one stack.

:func:`run_stabilization_batch` runs the loop of
:func:`~heatadapt.scenarios.run_stabilization` for B members on one
grid at once: one :class:`~heatadapt.fdm.HeatStepper` steps the plant
and observer rows of every member, and the scalars of the loop become
arrays with one element per member.  Each operation is the scalar
loop's, elementwise, so every member's trace is bit-identical to its
own run.  One stack step costs about as much as two or three single-run
steps and barely grows with B, so batching pays from three members on.
The module is separate so that a process that never batches does not
compile it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .control import BatchFeedback, zeta_step
from .domain import ConfigError, GridFunction, Params, SimConfig, Trace, _Recorder
from .fdm import GradientEnergy, HeatStepper, NonFiniteState
from .scenarios import (
    _OBSERVER_COLUMNS,
    _QUIET_SQ,
    _blown_up,
    _finish,
    _initial_fields,
    _observer_row,
    _quiet,
    _require_finite,
)

__all__ = ["run_stabilization_batch"]


def run_stabilization_batch(
    params: Sequence[Params],
    config: SimConfig,
    w0s: Sequence[GridFunction],
    what0s: Sequence[GridFunction],
    zeta0s: Sequence[float],
) -> list[Trace | ConfigError | NonFiniteState]:
    """:func:`run_stabilization` of many members at once, as one stack.

    Member i is the run ``run_stabilization(params[i], config, w0s[i],
    what0s[i], zeta0s[i])``, and the list returned holds, per member, the
    Trace that run returns or the error it raises, bit for bit and at the
    same step.  The plant and observer rows of every member are stepped
    together as one ``(2, B, n)`` :class:`HeatStepper` buffer, in the
    scalar loop's order of operations, with the feedback built by
    :class:`BatchFeedback` from each member's estimator view alone.

    A member ends early when it blows up (its trace carries the marker),
    when a boundary flux turns non-finite (:class:`ConfigError`) or when
    its state does (:class:`NonFiniteState`).  It then leaves the stack,
    and the others run on in a stack rebuilt from their current rows.
    """
    count = len(params)
    if not len(w0s) == len(what0s) == len(zeta0s) == count:
        raise ConfigError("every member needs its own w0, what0 and zeta0")
    grid, dt, dx = config.grid, config.dt, config.grid.dx
    stride, snap_stride, n_steps = config.sample_stride, config.snapshot_stride, config.n_steps
    fields = np.array(_initial_fields(config, *w0s, *what0s)).reshape(2, count, grid.n)
    energy = GradientEnergy(grid.n, dx)
    rows = [_observer_row(p, dx) for p in params]
    recs = [_Recorder(_OBSERVER_COLUMNS, n_steps, stride) for _ in params]
    results: list = [None] * count
    live = list(range(count))
    zeta = np.array(zeta0s, dtype=float)
    diss = np.zeros(count)
    k = 0

    def member(i: int, w, what, u0, u) -> tuple:
        # the arguments of _observer_row's row: w, what, zeta, u0, u, diss_cum
        return w[i], what[i], zeta.item(i), u0.item(i), u.item(i), diss.item(i)

    def finish(t_end: float, t_blow: float | None, ending: list[int], w, what) -> None:
        # the last instant's inputs, as in _run, for the members that end here
        u0 = feedback(what)
        u = zeta * u0
        for i in ending:
            m = live[i]
            state = member(i, w, what, u0, u)
            try:
                results[m] = _finish(config, recs[m], t_end, t_blow, rows[m](*state), state[:5])
            except ConfigError as exc:
                results[m] = exc

    with _quiet():
        gsq = energy.of_row_differences(fields[0], fields[1])
        while live:
            ps = [params[m] for m in live]
            stepper = HeatStepper(fields, dx, dt)
            # plant, observer, and the plant's first and last column, per buffer
            views = [(buf[0], buf[1], buf[0, :, 0], buf[0, :, -1], buf[1, :, -1])
                     for buf in stepper.buffers]
            flats = [buf.reshape(-1) for buf in stepper.buffers]
            feedback = BatchFeedback(grid, [p.estimator_view() for p in ps])
            neg_q = -np.array([p.q for p in ps])
            b = np.array([p.b for p in ps])
            c1 = np.array([p.c1 for p in ps])
            sgn = np.array([p.sign_b for p in ps], dtype=float)
            # one flux per stepper row: the left flux both rows of a member
            # share, then the plant's and the observer's right fluxes
            fluxes = np.empty((2, 2, len(live)))
            left, right = fluxes[0].reshape(-1), fluxes[1].reshape(-1)
            (plant_left, observer_left), (plant, observer) = fluxes
            all_fluxes = fluxes.reshape(-1)
            ended: list[int] = []
            while k < n_steps:
                w, what, w_first, w_last, what_last = views[stepper.index]
                u0 = feedback(what)
                innov = w_last - what_last
                u = zeta * u0
                np.multiply(neg_q, w_first, plant_left)
                np.copyto(observer_left, plant_left)
                np.multiply(b, u, plant)
                np.add(u0, c1 * innov, observer)
                if not math.isfinite(np.add.reduce(all_fluxes)):
                    # HeatStepper.step raises this before writing, so the run ends here
                    finite = np.isfinite(fluxes).all(axis=(0, 1))
                    ended = [i for i, ok in enumerate(finite) if not ok]
                    for i in ended:
                        results[live[i]] = ConfigError("boundary fluxes must be finite")
                    if ended:
                        break
                t = k * dt
                if k % stride == 0:
                    for i, m in enumerate(live):
                        recs[m].row(t, rows[m](*member(i, w, what, u0, u)))
                if snap_stride and k % snap_stride == 0:
                    for i, m in enumerate(live):
                        recs[m].snap(t, {"w": w[i], "what": what[i]})
                diss += dt * (gsq + c1 * innov * innov)
                zeta_new = zeta_step(zeta, sgn, innov, u0, dt)
                stepper.step_rows(left, right)
                w, what = views[stepper.index][:2]
                flat = flats[stepper.index]
                gsq = energy.of_row_differences(w, what)
                zeta = zeta_new
                k += 1
                if np.dot(flat, flat) < _QUIET_SQ:
                    continue
                # the single run's tests, member by member
                blown = []
                for i in range(len(live)):
                    try:
                        if not math.isfinite(gsq.item(i)):
                            _require_finite(w[i], what[i])
                        if _blown_up(w[i], dx):
                            blown.append(i)
                    except NonFiniteState as exc:
                        results[live[i]] = exc
                        ended.append(i)
                if blown:
                    finish(k * dt, k * dt, blown, w, what)
                ended += blown
                if ended:
                    break
            else:
                finish(n_steps * dt, None, list(range(len(live))), *views[stepper.index][:2])
                break
            keep = [i for i in range(len(live)) if i not in ended]
            fields = stepper.buffers[stepper.index][:, keep]
            zeta, diss, gsq = zeta[keep], diss[keep], gsq[keep]
            live = [live[i] for i in keep]
    return results
