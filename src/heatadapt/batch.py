"""Stabilize runs that share an operator, stepped together as one batch.

Runs that differ only in c0 and zeta0 share the matrix of
:func:`~heatadapt.scenarios._operator` once its observer flux reads u0
from the state and its readout is the row ``h = e_n + q K`` of
:func:`~heatadapt.control._feedback_kernel`, which no c0 enters.  One
``(B, W) @ A^T`` product a step then steps B members' states, a level-3
product that reads A once for all of them, where B runs alone read it B
times.  ``sweep`` steps its members so (:func:`run_batches`); a member
of a batch stays within the rounding of its product of the same run
alone.  The CLI loads this module only for the sweeps that may batch.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .control import _adaptive_law, _feedback_kernel, _zeta_steps
from .domain import TRACE_COLUMNS, ConfigError, GridFunction, Params, SimConfig, Trace
from .scenarios import (
    _CHUNK_BYTES,
    _SLAB,
    _aligned,
    _observer_rows,
    _operator,
    _quiet,
    _quiet_states,
    _run,
    check_record_size,
)

__all__ = ["run_batches", "run_stabilization_batch"]

#: the fewest and the most runs of a batch; fewer run faster alone
_SIZES = (4, 16)


class _Unquiet(Exception):
    """A batch block whose states are not quiet: the batch ends there."""


def run_stabilization_batch(
    ps: Sequence[Params],
    config: SimConfig,
    w0: GridFunction,
    what0: GridFunction,
    zeta0s: Sequence[float],
) -> list[Trace] | None:
    """Stabilize runs that differ only in c0 and zeta0, stepped together; None if one is not quiet.

    Member j runs as ``run_stabilization(ps[j], config, w0, what0,
    zeta0s[j], diss_cum=False)`` does on the operator route, within the
    rounding of its product: one ``(B, W) @ A^T`` product a step
    takes every member's state from one slab row ``(B, W)`` into the
    next.  Each step then takes the update law of every member at once,
    in :func:`~heatadapt.control.zeta_step`'s order of operations
    (:func:`~heatadapt.control._zeta_steps`), scales each readout ``h .
    what`` by its member's ``-(q + c0)`` into u0 and writes ``m = zeta
    u0``.  A block of L steps keeps its ``L + 1`` rows of B states within
    the chunk buffers' bound, and :func:`~heatadapt.scenarios._run`
    records every member's TRACE_COLUMNS, without ``diss_cum``: its one
    caller, ``sweep``, writes none.

    A batch decides no run's end: its first block whose states are not
    all quiet (:func:`~heatadapt.scenarios._quiet_states`) ends it and it
    returns None, so that each member runs alone from step 0.  The final
    states' route is ``"operator-batch"``.  The members' q, b and c1 must
    be equal.
    """
    p, members = ps[0], len(ps)
    n, dt = config.grid.n, config.dt
    for f in (w0, what0):
        if f.grid != config.grid:
            raise ConfigError("initial data must live on the configured grid")
    used, width, gain, fill = _observer_rows(p, config, None)
    length = max(1, min(_SLAB, _CHUNK_BYTES // (8 * members * width) - 1))
    states = _aligned(((length + 1) * members, width), "state slab")
    states = states.reshape(length + 1, members, width)
    at_m, at_u0, at_zeta = 2 * n, used - 2, used - 1
    with _quiet():
        A = _operator(p, config, _feedback_kernel(n, p.q), width)
        for s, pj, zeta0 in zip(states[0], ps, zeta0s):
            u0 = _adaptive_law(n, pj.estimator_view())(what0.values)
            s[:n], s[n : 2 * n] = w0.values, what0.values
            s[at_m:used] = zeta0 * u0, u0, zeta0
    gains = np.array([-(pj.q + pj.c0) for pj in ps])
    sign, step = np.array(float(p.sign_b)), np.array(dt)
    AT, innov = A.T, np.empty(members)
    # per step from row i: the states it reads, the row it writes, the row's
    # w(1), what(1), u0 and zeta, and the next row's zeta, u0 and m
    rows = tuple(states)
    zetas, u0s, ms = (tuple(states[:, :, at]) for at in (at_zeta, at_u0, at_m))
    plans = tuple(zip((s[:, : A.shape[1]] for s in rows), rows[1:], states[:, :, n - 1],
                      states[:, :, 2 * n - 1], u0s, zetas, zetas[1:], u0s[1:], ms[1:]))

    def block(k: int, stop: int) -> None:
        matmul, update, multiply, subtract = np.matmul, _zeta_steps, np.multiply, np.subtract
        for s, y, x1, what1, u0, zeta, zeta_next, u0_next, m_next in plans[: stop - k]:
            matmul(s, AT, y)
            subtract(x1, what1, innov)
            update(zeta, sign, innov, u0, step, zeta_next)
            multiply(u0_next, gains, u0_next)
            multiply(zeta_next, u0_next, m_next)
        if not _quiet_states(states[: stop - k + 1], gain):
            raise _Unquiet

    try:
        return _run(config, TRACE_COLUMNS, states, block, fill, 2,
                    (at_zeta, at_u0, at_m), p.c1, lambda: ("operator-batch", None))
    except _Unquiet:
        return None


def run_batches(
    ps: Sequence[Params],
    config: SimConfig,
    w0: GridFunction,
    what0: GridFunction,
    zeta0s: Sequence[float],
) -> list[tuple[Trace, float] | None]:
    """Stabilize runs that differ only in c0 and zeta0, stepped in batches of 4 to 16.

    The runs are split, in order, into as few batches of at most 16 as
    there can be, as even as their count allows; fewer than 4 runs are
    not batched.  A batch whose runs would record more than
    ``scenarios.MAX_RECORD_BYTES`` together, whose buffers the system
    refuses or whose states stop being quiet gives its runs back.
    Returns, per run, its trace and its duration, the batch's shared
    among its runs, or None where the run is to run alone.
    """
    least, most = _SIZES
    done: list[tuple[Trace, float] | None] = [None] * len(ps)
    count = -(-len(ps) // most) if len(ps) >= least else 0
    for b in range(count):
        at = range(b * len(ps) // count, (b + 1) * len(ps) // count)
        start = time.perf_counter()
        try:
            check_record_size(config, 1 + len(TRACE_COLUMNS), 2, len(at))
            traces = run_stabilization_batch([ps[i] for i in at], config, w0, what0,
                                             [zeta0s[i] for i in at])
        except ConfigError:
            continue
        if traces is None:
            continue
        duration = (time.perf_counter() - start) / len(at)
        for i, trace in zip(at, traces):
            done[i] = (trace, duration)
    return done
