"""Closed-loop assemblies of plant, observer and controller.

Each runner advances the coupled system with a fixed per-step order:
read boundary values, evaluate the feedback and the innovation, update
the reciprocal estimate, then step the plant with the pre-update
estimate and step the observer.  Using the pre-update estimate keeps
plant and observer consistent with the continuous-time simultaneity; the
O(dt) splitting error this introduces is covered by the energy residual
checks in the test suite.  Blocks step, chunks record.  One row of a
slab holds the whole state of an instant, fields first: ``[w, what, m =
zeta u0, u0, zeta]`` for the observer loop, ``[w, what, m, 1, sin wt,
cos wt, r, w(1) - v1, u0, zeta]`` for tracking, both padded with zeros
to a multiple of 8 values, ``[wt, u0, zt]`` for the error system and
``[w]`` for open-loop.  A runner steps it in blocks of
at most 64 steps, which end only at snapshot instants, a blow-up and the
horizon, through one shared blow-up test, ``_blown_up``; the schedule of
blocks, snapshots and samples, and the record, live in one private
function, ``_run``.  Every block reads the state it starts from in the
slab's first row and steps the fields (plant and observer, or the one
field of open-loop and error-system runs) with one
:class:`~heatadapt.fdm.HeatStepper` from one row into the next, writing
the scalars of each instant it reaches into its row; nothing else is
kept per step.  After a block, ``_run`` only stages what the record
needs in the buffers of a chunk of blocks: the error field of each step,
for the runs that integrate the dissipation ``diss_cum`` (observer,
stabilization and error-system), and the row and t of each instant on
the sample stride.  Once per chunk, and at the end of the run, it takes
the chunk's gradient energies with one row-wise call and ``diss_cum``
with one ``np.add.accumulate``; once the staged rows are full, and at
the end, it takes the values of every staged sample with one row-wise
``fill`` of the runner's; snapshots and the final state it reads from
the first row.  A slab row may hold the states of a batch of members
(:mod:`heatadapt.batch`), which one schedule and one record serve.
Observer, stabilization and tracking runs share one loop,
``_run_observer_loop``, which reads their inputs itself:
u0 from a given signal or the adaptive law, and tracking's servo terms
from its series.  Open-loop and error-system runs keep their own loops,
whose fluxes are ordered differently.  An error-system block skips the
blow-up test and the flux check and tests its rows once; a block that
fails is stepped again with both.

Stabilize and tracking runs on grids of at most :data:`_OPERATOR_MAX_N`
nodes step instead as one product a step of a column-major matrix and
a row, into the whole next row of the same slab, which the same record
reads: the loop is linear in ``[w, what, m]`` once ``m = zeta u0``, its
one bilinear term, is written into the state, and tracking's servo
terms are linear in ``(1, sin wt, cos wt)``, which the state carries and
a rotation block steps (:func:`_operator`); the product reads the row's
u0 for the observer's flux.  The product rounds differently from the
stencil, within about 1e-14 of a column's scale on a stable run; it
writes a row's zeta and padding as 0, and the update law then writes
zeta.  It decides no run's end: a block whose states are not quiet, or
whose servo tail comes near its tolerance, is stepped again on the
stencil from its first row, and the stencil steps the run to its end;
the final state records the route and that step.  A sweep steps the
stabilize members that share an operator as batches
(:mod:`heatadapt.batch`) and runs every other member through these
runners, one at a time.

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

from .control import (
    DEFAULT_TAIL_TOL,
    _adaptive_law,
    _servo_series,
    _ServoSeries,
    feedback_row,
    zeta_step,
)
from .domain import (
    ConfigError,
    Grid,
    GridFunction,
    Params,
    ReferenceSignal,
    SimConfig,
    Trace,
    TRACE_COLUMNS,
    _allocating,
    _Recorder,
)
from .fdm import GradientEnergy, HeatStepper, NonFiniteState

# The runners no longer call these; bench/tracer.py wraps them under these
# names, so they stay importable from here.
from .control import adaptive_u0, servo_boundary, servo_eval  # noqa: F401
from .fdm import grad_values, l2_norm, step_heat  # noqa: F401

__all__ = [
    "ScenarioState",
    "BLOWUP_NORM",
    "MAX_RECORD_BYTES",
    "check_record_size",
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
    #: what stepped the run: "operator", one matrix product a step,
    #: "operator-batch", one product a step for a batch of runs
    #: (:mod:`heatadapt.batch`), or "stencil", :class:`~heatadapt.fdm.HeatStepper`
    route: str = "stencil"
    #: the step from which an operator run went on on the stencil, if it did
    handover_step: int | None = None


def benchmark_initial_state(grid: Grid, q: float) -> GridFunction:
    """The standard initial profile w(x, 0) = q x - 1."""
    return GridFunction(grid, q * grid.nodes - 1.0)


#: the most steps one block takes, and so the steps a slab of a block's states holds
_SLAB = 64

#: ``block(k, stop)`` steps a run from step k to step stop, see :func:`_run`
_Block = Callable[[int, int], "int | None"]
#: ``fill(out, rows)`` writes the values of a run's columns at staged rows into ``out``
_Fill = Callable[[np.ndarray, np.ndarray], None]

#: the most bytes of one chunk buffer: glibc's default mmap threshold, above
#: which malloc maps an array afresh and its pages add to the peak RSS
_CHUNK_BYTES = 128 << 10

#: the fewest samples that one ``fill`` takes at once, where a chunk samples
#: fewer: a run at stride 100 fills 32 times in 50k steps, not once a chunk,
#: and the servo profiles of a tracking fill, n (J + 2) values a sample, stay
#: under :data:`_CHUNK_BYTES` at n=51 and J=12
_FILL_SAMPLES = 16


def _chunk_steps(n: int, width: int, stride: int, block: int = _SLAB) -> int:
    """The most steps one chunk records: a multiple of ``block`` steps, at least one block.

    A chunk keeps a row of n values for each step, the error field it
    starts from, and a row of ``width`` values for each instant it samples
    on ``stride`` and for the last; both stay within :data:`_CHUNK_BYTES`
    unless one block does not fit.  A batch of B members counts B n and
    B ``width`` values.
    """
    rows = _CHUNK_BYTES // 8
    steps = min(rows // n, (rows // width - 1) * stride)
    return max(block, steps - steps % block)


def _run(
    config: SimConfig,
    names: tuple[str, ...],
    slab: np.ndarray,
    block: _Block,
    fill: _Fill,
    fields: int = 1,
    scalars: tuple[int | None, int | None, int | None] = (None, None, None),
    c1: float = 0.0,
    route: Callable[[], tuple[str, int | None]] = lambda: ("stencil", None),
) -> list[Trace]:
    """The schedule and the record every runner shares: blocks step, chunks record.

    ``slab`` is ``(L + 1, B, W)``: row i holds the states of B members at
    one instant, a single run's B being 1, and each state is W values,
    its ``fields`` fields of n values first; ``scalars`` are the columns
    of its zeta, u0 and u, None for one that is 0.0.  A runner writes the
    states of step 0 into the first row before this is called.
    ``block(k, stop)`` then advances from step k, whose states it reads in
    the first row, to step ``stop``, at most L steps on: each step steps
    the fields from one row into the next, so that row i holds step
    k + i, runs :func:`_blown_up` on the plant field (the error system
    tests its rows once instead, and a batch tests them for quiet) and
    writes the scalars of the instant it reaches into its row.  It returns
    None, or the step at which the plant field blew up, where the run
    ends; a state that turns NaN/Inf raises :class:`NonFiniteState` from
    it.  Blocks also end every ``snapshot_stride`` steps, where this
    records the first row's fields.

    After each block this stages what the record needs: in a chunk of
    blocks (:func:`_chunk_steps`), when ``diss_cum`` is one of ``names``,
    the error field of each row a step started from, ``w - what`` of two
    fields or the one field itself, for every member; and each instant on
    the ``sample_stride`` leaves its t and row.  Then it carries the row
    the block reached into the first, from which the last instant is
    sampled and the final states read.  Before a block that would
    overflow the chunk, it records the chunk's ``diss_cum`` with the
    boundary gain ``c1``, with one ``GradientEnergy.of_rows`` and one
    ``np.add.accumulate`` over every member's steps, and the chunk's
    samples keep theirs.  Before a block whose samples would overflow the
    staged rows (:data:`_FILL_SAMPLES`), it also records every staged
    sample, with one ``fill(out, rows)`` of the other columns ``names`` of
    all their rows, every member's; and it records both at the end.
    ``route()`` gives the final states' ``route`` and ``handover_step``.
    Returns one Trace per member.
    """
    dt, stride, n_steps = config.dt, config.sample_stride, config.n_steps
    snap_stride, n = config.snapshot_stride, config.grid.n
    length, members, width = slab.shape
    length -= 1
    recs = [_Recorder(names, n_steps, stride, snapshot_stride=snap_stride, fields=fields, n=n)
            for _ in range(members)]
    chunk = _chunk_steps(members * n, members * width, stride, length)
    # the staged samples: their rows, and then t and the values of ``names``
    room = max(min(chunk, -(-chunk // stride)) + 1, _FILL_SAMPLES)
    picked = _buffer((room, members, width), "sampled states")
    values = _buffer((room, members, 1 + len(names)), "sampled values")
    # the fields of each member's state in the first row, as (fields, n)
    firsts = [s[: fields * n].reshape(fields, n) for s in slab[0]]
    errors = "diss_cum" in names
    if errors:
        # the error fields of each step of the chunk, in rows whose gradients
        # of_rows writes over them, and diss_cum where the chunk starts and
        # after each step, one column per member
        energy = GradientEnergy(n, config.grid.dx, _buffer((chunk * members * n + 1,),
                                                            "error fields"))
        errs, diss = energy.rows.reshape(chunk, members, n), np.zeros((chunk + 1, members))
        at_diss = 1 + names.index("diss_cum")
    # the step of each staged sample, and how many of them have their diss_cum
    marks, settled = [], 0

    def sample(k0: int, at: slice) -> None:
        # the rows ``at`` of the block that started from step k0
        ks = range(k0 + at.start, k0 + at.stop, at.step)
        if ks:
            j = len(marks)
            picked[j : j + len(ks)] = slab[at]
            marks.extend(ks)

    def record(k0: int, m: int, full: bool) -> None:
        # diss_cum of the chunk of m steps from step k0 and of the samples it
        # staged; with ``full``, every staged sample into each member's record
        nonlocal settled
        c = len(marks)
        if errors and m:
            # each step adds dt * (||f_x||^2 + c1 x^2), x the last value of its
            # error field, read before of_rows overwrites the fields; the terms,
            # evaluated elementwise in that order, are summed in step order down
            # each member's column, so each value is that of a loop, bit for bit
            xs = errs[:m, :, -1]
            edge = c1 * xs * xs
            energies = energy.of_rows(energy.rows, m * members).reshape(m, members)
            np.multiply(dt, energies + edge, out=diss[1 : m + 1])
            np.add.accumulate(diss[: m + 1], out=diss[: m + 1])
            values[settled:c, :, at_diss] = diss[np.array(marks[settled:], dtype=int) - k0]
            diss[0] = diss[m]
        settled = c
        if full and c:
            values[:c, :, 0] = (np.array(marks, dtype=int) * dt)[:, None]
            fill(values[:c].reshape(c * members, -1)[:, 1:], picked[:c].reshape(c * members, -1))
            for j, rec in enumerate(recs):
                rec.rows(c)[:] = values[:c, j]
            marks.clear()
            settled = 0

    def snap(k: int) -> None:
        for rec, first in zip(recs, firsts):
            rec.snap(k * dt, dict(zip(("w", "what"), first)))

    k, m, blow = 0, 0, None
    with _quiet():
        while blow is None and k < n_steps:
            stop = min(n_steps, k + length)
            if snap_stride:
                if k % snap_stride == 0:
                    snap(k)
                stop = min(stop, k - k % snap_stride + snap_stride)
            # the block's samples, and the last instant's, must fit the staged rows
            full = len(marks) + len(range(-k % stride, stop - k, stride)) >= room
            if full or m + stop - k > chunk:
                record(k - m, m, full)
                m = 0
            blow = block(k, stop)
            steps = (stop if blow is None else blow) - k
            if errors:
                # w - what, or the one field less 0.0, which is the field bit for bit
                less = slab[:steps, :, n : 2 * n] if fields == 2 else 0.0
                np.subtract(slab[:steps, :, :n], less, errs[m : m + steps])
            sample(k, slice(-k % stride, steps, stride))
            slab[0] = slab[steps]
            k, m = k + steps, m + steps
        sample(k - steps, slice(steps, steps + 1, 1))
        record(k - m, m, True)
    if snap_stride:
        snap(k)
    traces = []
    for s, first, rec in zip(slab[0], firsts, recs):
        w, *what = (GridFunction(config.grid, f) for f in first)
        zeta, u0, u = (0.0 if at is None else s[at].item() for at in scalars)
        final = ScenarioState(k * dt, w, what[0] if what else None, zeta, u0, u, *route())
        traces.append(rec.build(final, blow_up_time=None if blow is None else k * dt))
    return traces


def _errors(out: np.ndarray, sq: np.ndarray, zt, half_b: float) -> None:
    """Fill in obs_err_norm, E and F, the columns of ``out``, for samples.

    ``sq`` are the squared norms of the samples' error fields and ``zt``
    their parameter errors; every value equals the one a per-sample row
    computes from the same inputs, bit for bit.
    """
    e = 0.5 * sq
    np.sqrt(2.0 * e, out=out[:, 0])
    out[:, 1] = e
    out[:, 2] = e + half_b * zt * zt


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


def _buffer(shape: tuple[int, ...], what: str) -> np.ndarray:
    """``np.empty(shape)`` for a buffer the grid sizes: one the system refuses is a ConfigError."""
    with _allocating(shape, what, "raise --dx"):
        return np.empty(shape)


def _aligned(shape: tuple[int, int], what: str) -> np.ndarray:
    """Zeros of ``shape``, C-contiguous from a 64-byte boundary, not the heap's whim.

    A buffer the system refuses is a ConfigError, as in :func:`_buffer`.
    """
    size = shape[0] * shape[1]
    with _allocating(shape, what, "raise --dx"):
        buf = np.zeros(size + 7)
    # the address, not from .ctypes, which imports ctypes
    start = -buf.__array_interface__["data"][0] % 64 // 8
    return buf[start : start + size].reshape(shape)


def _slab(width: int) -> np.ndarray:
    """``_SLAB + 1`` rows of ``width`` zeros from a 64-byte boundary (:func:`_aligned`)."""
    return _aligned((_SLAB + 1, width), "state slab")


def _stepper(config: SimConfig, slab: np.ndarray, *fields: GridFunction) -> HeatStepper:
    """A stepper over ``slab`` from the initial fields, which must be on the run's grid."""
    for f in fields:
        if f.grid != config.grid:
            raise ConfigError("initial data must live on the configured grid")
    return HeatStepper(slab, [f.values for f in fields], config.grid.dx, config.dt)


def run_open_loop(p: Params, config: SimConfig, w0: GridFunction) -> Trace:
    """Simulate the uncontrolled plant (u = 0) and record the growth of ||w||.

    With q > 1 the boundary convection wins and the state grows without
    bound; the run then stops at the blow-up threshold with the marker
    set rather than raising.
    """
    dx, q = config.grid.dx, p.q
    # the field of each instant a block starts from or reaches, each a row of ``slab``
    slab = _slab(config.grid.n)
    stepper = _stepper(config, slab, w0)

    def block(k: int, stop: int) -> int | None:
        step = stepper.step
        (w,) = stepper.rows[0]
        for i in range(stop - k):
            (w,) = step(i, -q * w.item(0), 0.0)
            if _blown_up(w, dx):
                return k + i + 1
        return None

    def fill(out: np.ndarray, picked: np.ndarray) -> None:
        out[:, 0], out[:, 1] = picked[:, 0], picked[:, -1]
        np.sqrt(_sq_norms(picked, dx), out=out[:, 2])

    return _run(config, _OPEN_LOOP_COLUMNS, slab[:, None], block, fill)[0]


#: the largest grid on which stabilize and tracking runs step as one product
#: of :func:`_operator`'s matrix a step.  Since the matrix went column-major
#: the operator is about as fast as the stencil at 126 nodes and slower at
#: 151 (README, Performance, which measures the crossover); the cutoff stays
#: here until a benchmark workload runs above it
_OPERATOR_MAX_N = 101


def _operator(p: Params, config: SimConfig, feedback: np.ndarray, height: int,
              servo: _ServoSeries | None = None) -> np.ndarray:
    """One step of the stabilizing or tracking loop as a matrix A: the next state is ``A @ s``.

    The state is ``s = [w, what, m, u0]`` with ``m = zeta u0``, and
    ``A @ s`` also gives the next u0.  The rows of w and what are one
    explicit step of :func:`~heatadapt.fdm.step_heat` with the ghost-node
    fluxes expanded: ``-q w(0)`` at the left end of both fields, ``b m``
    at the plant's right end and ``u0 + c1 (w(1) - what(1))`` at the
    observer's, which reads u0 in the state.  The last row, ``feedback``
    times the observer rows, gives the next u0 when ``feedback`` is the
    row g of :func:`~heatadapt.control.feedback_row`; with the row h of
    :func:`~heatadapt.control._feedback_kernel`, which no c0 enters, it
    gives the next ``u0 / -(q + c0)`` of every c0, which a batch scales
    (:func:`~heatadapt.batch.run_stabilization_batch`).  The m row is 0:
    the caller writes ``zeta u0`` there, the one bilinear term of the loop.

    With the ``servo`` series of a reference, whose terms r(t), v(1,t) and
    v_x(1,t) are weights on ``(1, sin wt, cos wt)``, the state is ``[w,
    what, m, 1, sin wt, cos wt, r, w(1) - v1, u0]``, whose r and ``w(1) -
    v1`` A reads with weight 0, a rotation block steps the three entries,
    and what is the shifted estimate z.  Its fluxes ``-q (w(0) - r)`` and
    ``u0 + c1 (w(1) - v1 - what(1)) - v_x1``, with u0 now ``g . what +
    v_x1``, add the columns ``-2 r dx q r(t)``, ``-2 r dx c1 v1(t)`` and
    ``-2 r dx v_x1(t)``, and the readouts are the next r, ``w(1) - v1``
    and u0.

    A has ``height`` rows, one per value of the loop's slab row, and is
    stored column-major from a 64-byte boundary (:func:`_aligned`), so a
    product writes whole slab rows; with ``height`` a multiple of 8 every
    column starts on a 64-byte boundary too, where OpenBLAS's column
    kernel runs fastest.  The rows past u0, the slab's zeta and padding,
    are 0.
    """
    n, dx = config.grid.n, config.grid.dx
    r = config.dt / (dx * dx)
    # the weight of a boundary flux in its node's step
    flux = 2.0 * r * dx
    # the state's u0, after tracking's 1, sin wt, cos wt, r and w(1) - v1
    at_u0 = 2 * n + (1 if servo is None else 6)
    A = _aligned((at_u0 + 1, height), "operator").T
    for f in (0, n):
        inner = np.arange(f + 1, f + n - 1)
        A[inner, inner - 1] = A[inner, inner + 1] = r
        A[inner, inner] = 1.0 - 2.0 * r
        last = f + n - 1
        A[f, f] = A[last, last] = 1.0 - 2.0 * r
        A[f, f + 1] = A[last, last - 1] = 2.0 * r
        A[f, 0] += flux * p.q
    A[n - 1, 2 * n] = flux * p.b
    A[2 * n - 1, n - 1] += flux * p.c1
    A[2 * n - 1, 2 * n - 1] -= flux * p.c1
    A[2 * n - 1, at_u0] = flux
    if servo is not None:
        basis = slice(2 * n + 1, 2 * n + 4)
        A[n, basis] -= flux * p.q * servo.weights[0]
        A[2 * n - 1, basis] -= flux * p.c1 * servo.weights[1]
        A[2 * n - 1, basis] -= flux * servo.weights[2]
        rotation, (ref, v1, vx1, _) = servo.ahead(config.dt)
        A[basis, basis] = rotation
        A[at_u0 - 2, basis] = ref
        A[at_u0 - 1] = A[n - 1]
        A[at_u0 - 1, basis] -= v1
    A[at_u0] = feedback @ A[n : 2 * n]
    if servo is not None:
        A[at_u0, basis] += vx1
    return A


def _quiet_states(states: np.ndarray, gain: float) -> bool:
    """Whether no state of ``states``, rows of :func:`_run_observer_loop`'s slab, can end a run.

    Their squares summing to less than :data:`_QUIET_SQ`, which a NaN/Inf
    fails, keeps every value under BLOWUP_NORM / 2: no plant norm passes
    BLOWUP_NORM and no error field's squares overflow.  The sum takes in
    each row's zeta too, so a block whose |zeta| passes about 6e10 is not
    quiet either, and its padding, which is 0.  ``gain`` is twice the
    largest weight of a value in a flux (:func:`_observer_rows`), so a finite
    ``gain`` times the largest value bounds every flux, ``-q w(0)``, ``b
    m`` and ``u0 + c1 (w(1) - what(1))`` or their tracking forms, with
    room for rounding.
    """
    flat = states.reshape(-1)
    sq = flat.dot(flat)
    return sq < _QUIET_SQ and gain * math.sqrt(sq) < math.inf


#: the most bytes of samples and snapshots that one run may hold (README, CLI)
MAX_RECORD_BYTES = 2 << 30


def check_record_size(config: SimConfig, row: int, fields: int, members: int = 1) -> None:
    """Raise :class:`ConfigError` if a run would record more than :data:`MAX_RECORD_BYTES`.

    The run keeps ``n_steps // sample_stride + 2`` sample rows of ``row``
    floats, t included, and, with snapshots, ``n_steps // snapshot_stride
    + 2`` snapshots of ``fields`` fields, before it starts; a batch of
    ``members`` runs keeps that many times as much.
    """
    n_steps, snap_stride = config.n_steps, config.snapshot_stride
    size = 8 * (n_steps // config.sample_stride + 2) * row
    if snap_stride:
        size += 8 * (n_steps // snap_stride + 2) * fields * config.grid.n
    size *= members
    if size > MAX_RECORD_BYTES:
        raise ConfigError(
            f"the run would record {size / 2**30:.3g} GiB of samples and snapshots, over the "
            f"{MAX_RECORD_BYTES / 2**30:g} GiB limit: raise --sample-stride or "
            "--snapshot-stride, or shorten --t-final"
        )


def _observer_rows(p: Params, config: SimConfig,
                   servo: _ServoSeries | None) -> tuple[int, int, float, _Fill]:
    """The rows of the observer loop: the values of a state, the row, the flux gain and ``fill``.

    A state is ``[w, what, m = zeta u0, u0, zeta]``, or with a servo
    series ``[w, what, m, 1, sin wt, cos wt, r, w(1) - v1, u0, zeta]``, and
    a row pads it with zeros to a multiple of 8 values.  The gain is twice
    the largest weight of a state's value in a flux: ``|b|``, q and ``1 +
    2 c1``, and with a servo series, whose state holds 1, ``q (1 + sum|r|)``
    and ``1 + c1 (2 + sum|v1|) + sum|vx1|`` (:func:`_quiet_states`).
    ``fill`` writes the columns of :data:`_OBSERVER_COLUMNS`, or of
    :data:`_TRACKING_COLUMNS`, but diss_cum, of staged states: every value
    equals the one a per-sample row computes from the same state, bit for
    bit.
    """
    n, dx, b = config.grid.n, config.grid.dx, p.b
    used = 2 * n + (3 if servo is None else 8)
    half_b, inv_b = 0.5 * abs(b), 1.0 / b
    at_m, at_u0, at_zeta = 2 * n, used - 2, used - 1
    r_sum = v1_sum = vx1_sum = 0.0
    if servo is not None:
        kernel = servo.kernel(config.grid.nodes)
        at_sin, at_cos, at_r = 2 * n + 2, 2 * n + 3, 2 * n + 4
        v1_weights, vx1_weights = servo.weights[1:3].tolist()
        r_sum, v1_sum, vx1_sum = np.abs(servo.weights[:3]).sum(axis=1).tolist()
    gain = 2.0 * max(abs(b), p.q * (1.0 + r_sum), 1.0 + p.c1 * (2.0 + v1_sum) + vx1_sum)

    def fill(out: np.ndarray, picked: np.ndarray) -> None:
        out[:, 0], out[:, 1], out[:, 2] = picked[:, at_u0], picked[:, at_m], picked[:, at_zeta]
        out[:, 3], out[:, 4] = picked[:, 0], picked[:, n - 1]
        plant_rows, observer_rows = picked[:, :n], picked[:, n : 2 * n]
        np.sqrt(_sq_norms(plant_rows, dx), out=out[:, 5])
        if servo is not None:
            # the shifted state z = w - v, which the observer estimates
            sin, cos = picked[:, at_sin], picked[:, at_cos]
            plant_rows = plant_rows - servo.profiles(kernel, sin, cos)
        errors = _sq_norms(plant_rows - observer_rows, dx)
        _errors(out[:, 6:9], errors, inv_b - out[:, 2], half_b)
        if servo is None:
            return
        refs = picked[:, at_r]
        np.subtract(out[:, 3], refs, out=out[:, 9])
        out[:, 10] = refs
        for at, (c0, cs, cc) in ((11, v1_weights), (12, vx1_weights)):
            out[:, at] = c0 + cs * sin + cc * cos

    return used, -(-used // 8) * 8, gain, fill


def _run_observer_loop(
    p: Params,
    config: SimConfig,
    w0: GridFunction,
    what0: GridFunction,
    zeta0: float,
    u0_signal: Callable[[float], float] | None = None,
    ref: ReferenceSignal | None = None,
) -> Trace:
    """The plant + observer + update-law loop of observer, stabilize and track.

    u0 is ``u0_signal(t)`` for an observer run, else the adaptive law on
    the observer field, which reads neither b nor zeta
    (:func:`~heatadapt.control._adaptive_law`).  With a reference ``ref``,
    the loop tracks it: the servo terms v(1,t), v_x(1,t) and r(t) of its
    truncated series enter the fluxes, u0 adds v_x(1,t), and the
    observer estimates z = w - v.  Without one the three are +0.0, and
    ``x - 0.0 == x`` for every float, so the step is the stabilizing one
    bit for bit.  Every instant checks the series' tail against
    ``DEFAULT_TAIL_TOL`` (:class:`~heatadapt.control.TruncationInsufficient`).

    Each block writes the whole state of every instant it reaches into a
    row of one slab, and reads the state it starts from in the first row,
    taking tracking's servo terms from the series at that instant.  Each
    step sums the squares of the row's fields once: only a sum that is
    not under :data:`_QUIET_SQ` (a NaN/Inf state fails it too) is followed
    by the scan for NaN/Inf and the blow-up test.  A row is the state of
    :func:`_observer_rows`, then zeros up to a multiple of 8 values, so
    that every row starts on a 64-byte boundary.  Without a reference
    :func:`_run` takes ``diss_cum`` from the rows' ``w - what``.

    The adaptive law on a grid of at most :data:`_OPERATOR_MAX_N` nodes
    steps as one product of the matrix of :func:`_operator` a step, whose
    readouts are u0 and, for tracking, r and ``w(1) - v1``, into the same
    slab: the product reads the row's u0 and writes whole rows, zeta and
    the padding as 0, and the update law then writes zeta.  A tracking
    block first resets its sin and cos from ``math``.
    Such a block decides no run's end: a block whose slab is not quiet
    (:func:`_quiet_states`), or whose servo tail comes near
    ``DEFAULT_TAIL_TOL``, is stepped again from its first row on the
    stencil, which then steps the run to its end: the stencil alone finds
    a blow-up, a NaN/Inf state, a non-finite flux or a servo series that
    is truncated too early.
    """
    dt, dx, n = config.dt, config.grid.dx, config.grid.n
    q, b, c1, sgn = p.q, p.b, p.c1, p.sign_b
    est = p.estimator_view()
    feedback = feedback_row(n, est) if u0_signal is None and n <= _OPERATOR_MAX_N else None
    with _quiet():
        servo = None if ref is None else _servo_series(ref, q, config.servo_truncation_J)
    track = servo is not None
    # the state of each instant a block starts from or reaches, each a row of
    # ``states``: its ``used`` values, then zeros up to a multiple of 8
    used, width, gain, fill = _observer_rows(p, config, servo)
    states = _slab(width)
    stepper = _stepper(config, states, w0, what0)
    rows, views = tuple(states), stepper.views
    fields = tuple(s[: 2 * n] for s in rows)
    # the innovation is x1 - what(1): x1 is w(1), or for tracking w(1) - v(1,t),
    # which a tracking row holds; u0 and zeta end every row's used values
    at_m, at_what1, at_x1, at_u0, at_zeta = 2 * n, 2 * n - 1, n - 1, used - 2, used - 1
    names = _TRACKING_COLUMNS if track else _OBSERVER_COLUMNS
    if track:
        servo_at, derivative = servo.at, ref.derivative
        at_sin, at_cos, _, at_x1 = range(2 * n + 2, 2 * n + 6)

    def reach(t: float, i: int, w: np.ndarray, what: np.ndarray, zeta: float) -> tuple:
        """Write the inputs of t, from w and what, and zeta into row i; return u0, v1, vx1, r."""
        if track:
            sin, cos, v1, vx1, _ = servo_at(t, DEFAULT_TAIL_TOL)
            r = derivative(0, t)
            u0 = law(what) + vx1
            rows[i][at_m:used] = (zeta * u0, 1.0, sin, cos, r, w.item(-1) - v1, u0, zeta)
            return u0, v1, vx1, r
        u0 = u0_signal(t) if law is None else law(what)
        s = views[i]
        s[at_m], s[at_u0], s[at_zeta] = zeta * u0, u0, zeta
        return u0, 0.0, 0.0, 0.0

    with _quiet():
        law = None if u0_signal is not None else _adaptive_law(n, est)
        reach(0.0, 0, *stepper.rows[0], zeta0)

    def block(k: int, stop: int) -> int | None:
        step, update, k0, blow = stepper.step, zeta_step, k, None
        w, what = stepper.rows[0]
        zeta, u0 = views[0][at_zeta], views[0][at_u0]
        # the first row's servo terms from the series, not an operator block's readouts
        v1 = vx1 = r = 0.0
        if track:
            _, _, v1, vx1, _ = servo_at(k * dt, DEFAULT_TAIL_TOL)
            r = derivative(0, k * dt)
        while k < stop:
            innov = w.item(-1) - v1 - what.item(-1)
            zeta_new = update(zeta, sgn, innov, u0, dt)
            w_at_0 = w.item(0)
            w, what = step(k - k0, -q * w_at_0, b * (zeta * u0), -q * (w_at_0 - r),
                           u0 + c1 * innov - vx1)
            zeta = zeta_new
            k += 1
            f = fields[k - k0]
            # squares of w and what under _QUIET_SQ, which a NaN/Inf fails, keep
            # the plant's norm under BLOWUP_NORM
            blown = False
            if not f.dot(f) < _QUIET_SQ:
                _require_finite(f)
                blown = _blown_up(w, dx)
            u0, v1, vx1, r = reach(k * dt, k - k0, w, what, zeta)
            if blown:
                blow = k
                break
        return blow

    record = (2, (at_zeta, at_u0, at_m), c1)
    if feedback is None:
        return _run(config, names, states[:, None], block, fill, *record)[0]

    # the operator route: the product reads the row up to u0 and writes the
    # whole row, its zeta and padding as 0
    with _quiet():
        A = _operator(p, config, feedback, states.shape[1], servo)
    ins = tuple(s[: A.shape[1]] for s in rows)
    # a block whose tail comes near the tolerance leaves every instant there to
    # the stencil, which takes sin and cos from math
    tail = track and bool(servo.weights[3].any())
    handover = None

    def operator_block(k: int, stop: int) -> int | None:
        nonlocal handover
        if handover is not None:
            return block(k, stop)
        dot, update, steps, s = A.dot, zeta_step, stop - k, views[0]
        if track:
            wt = servo.omega * (k * dt)
            s[at_sin], s[at_cos] = math.sin(wt), math.cos(wt)
        z, u = s[at_zeta], s[at_u0]
        for i in range(steps):
            y = views[i + 1]
            z = update(z, sgn, s[at_x1] - s[at_what1], u, dt)
            dot(ins[i], rows[i + 1])
            u = y[at_u0]
            y[at_m], y[at_zeta] = z * u, z
            s = y
        quiet = _quiet_states(states[: steps + 1], gain)
        if quiet and tail:
            reached = states[1 : steps + 1]
            quiet = servo.tails_below(reached[:, at_sin], reached[:, at_cos], DEFAULT_TAIL_TOL)
        if quiet:
            return None
        # step the block again on the stencil, from the first row
        handover = k
        return block(k, stop)

    return _run(config, names, states[:, None], operator_block, fill, *record,
                lambda: ("operator", handover))[0]


#: the columns of a plant + observer + update-law run's rows without a reference
_OBSERVER_COLUMNS = (*TRACE_COLUMNS, "diss_cum")
#: the columns of a tracking run's rows
_TRACKING_COLUMNS = (*TRACE_COLUMNS, "tracking_err", "ref", "v1", "vx1")
#: the columns of an open-loop run's rows
_OPEN_LOOP_COLUMNS = ("w0", "w1", "wnorm")
#: the columns of an error-system run's rows
_ERROR_SYSTEM_COLUMNS = ("u0", "zeta", "w0", "w1", "wnorm", "obs_err_norm", "E", "F", "diss_cum")


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
    return _run_observer_loop(p, config, w0, what0, zeta0, u0_signal)


def run_stabilization(
    p: Params,
    config: SimConfig,
    w0: GridFunction,
    what0: GridFunction,
    zeta0: float,
) -> Trace:
    """Full adaptive output-feedback stabilization loop.

    On a grid of at most :data:`_OPERATOR_MAX_N` nodes it steps as one
    operator product a step (:func:`_run_observer_loop`).
    """
    return _run_observer_loop(p, config, w0, what0, zeta0)


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
    On a grid of at most :data:`_OPERATOR_MAX_N` nodes it steps as one
    operator product a step, as stabilization does.
    """
    return _run_observer_loop(p, config, w0, zhat0, zeta0, ref=ref)


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

    A row of the slab holds an instant's state ``[wt, u0, zt]``, and each
    block starts from the first.  It steps unchecked and tests the fields
    of its rows once; one that fails is stepped again with the checks, so
    ``u0_signal`` may see instants past the end of the run.
    """
    dt, dx, n = config.dt, config.grid.dx, config.grid.n
    b, c1, sgn = p.b, p.c1, p.sign_b
    half_b = 0.5 * abs(b)
    # the state of each instant a block starts from or reaches, each a row
    # ``[wt, u0, zt]`` of ``slab``
    slab = _slab(n + 2)
    stepper = _stepper(config, slab, wtilde0)
    views = stepper.views
    with _quiet():
        slab[0, n:] = u0_signal(0.0), zetatilde0

    def block(k: int, stop: int) -> int | None:
        step, first = stepper.step, views[0]
        # unchecked, every flux and zt reaches a row, which one test then sees
        for checked in (False, True):
            (wt,) = stepper.rows[0]
            u0, zt, blow = first[n], first[n + 1], None
            for i in range(stop - k):
                wt1 = wt.item(-1)
                zt_new = zt + dt * sgn * u0 * wt1
                (wt,) = step(i, 0.0, -b * zt * u0 - c1 * wt1, check=checked)
                zt = zt_new
                blown = checked and _blown_up(wt, dx)
                u0 = u0_signal((k + i + 1) * dt)
                s = views[i + 1]
                s[n], s[n + 1] = u0, zt
                if blown:
                    blow = k + i + 1
                    break
            # _blown_up's first test of each row's field, which NaN/Inf fails; not as
            # one BLAS dot over the slab, which may start threads
            reached = slab[1 : (blow or stop) - k + 1, :n]
            if checked or np.add.reduce(reached * reached, axis=1).max() < _QUIET_SQ:
                break
        return blow

    def fill(out: np.ndarray, picked: np.ndarray) -> None:
        # u0, zeta, w0, w1, then wnorm, which equals obs_err_norm, and the rest
        out[:, 0:2] = picked[:, n:]
        out[:, 2], out[:, 3] = picked[:, 0], picked[:, n - 1]
        _errors(out[:, 5:8], _sq_norms(picked[:, :n], dx), out[:, 1], half_b)
        out[:, 4] = out[:, 5]

    # the field is the error, and each step's wt(1) the last value of its row
    return _run(config, _ERROR_SYSTEM_COLUMNS, slab[:, None], block, fill, 1, (n + 1, n, None),
                c1)[0]
