"""Explicit finite differences for 1-D heat equations with flux boundary data.

The stepper advances u_t = u_xx + source one forward-Euler step with
second-order central differences.  Boundary nodes use ghost values

    u_{-1} = u_1 - 2 dx left_flux,      u_n = u_{n-2} + 2 dx right_flux,

so callers impose Neumann or Robin conditions by evaluating the flux
from the current boundary values (e.g. left_flux = -q u(0)) and passing
the numbers here.  Quadrature is composite trapezoid, matching the
stepper's O(dx^2) spatial accuracy.

:func:`step_heat` and :func:`grad_values` allocate their results and are
the reference route.  :class:`HeatStepper` and :class:`GradientEnergy`
repeat their arithmetic operation for operation in preallocated
buffers, so a simulation loop gets bit-identical values without
allocating per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import ConfigError, GridFunction

__all__ = [
    "FluxBC",
    "NonFiniteState",
    "step_heat",
    "HeatStepper",
    "quad",
    "l2_norm",
    "grad_values",
    "GradientEnergy",
]


class NonFiniteState(ArithmeticError):
    """A step produced NaN or Inf, i.e. the discrete solution blew up."""


@dataclass(frozen=True)
class FluxBC:
    """Prescribed values of u_x at x = 0 and x = 1 for one step."""

    left_flux: float
    right_flux: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.left_flux) and math.isfinite(self.right_flux)):
            raise ConfigError("boundary fluxes must be finite")


def step_heat(
    state: GridFunction,
    bc: FluxBC,
    dt: float,
    source: GridFunction | None = None,
) -> GridFunction:
    """Advance the state by one explicit step of u_t = u_xx + source.

    The input is never modified.  Raises :class:`NonFiniteState` when the
    output contains NaN/Inf, which is the expected end of an open-loop
    unstable run once the state overflows.
    """
    u = state.values
    dx = state.grid.dx
    r = dt / (dx * dx)
    out = np.empty_like(u)
    out[1:-1] = u[1:-1] + r * (u[2:] - 2.0 * u[1:-1] + u[:-2])
    out[0] = u[0] + 2.0 * r * (u[1] - u[0] - dx * bc.left_flux)
    out[-1] = u[-1] + 2.0 * r * (u[-2] - u[-1] + dx * bc.right_flux)
    if source is not None:
        if source.grid != state.grid:
            raise ConfigError("source must live on the same grid as the state")
        out += dt * source.values
    if not np.isfinite(out).all():
        raise NonFiniteState("heat step produced non-finite values")
    return GridFunction._wrap(state.grid, out)


class HeatStepper:
    """Explicit steps of many fields on one grid, in place.

    The fields are the rows of a ``(k, n)`` array, the k fields of one
    run.  Two preallocated buffers take turns as input and output, and
    their slice views are built once, so a step allocates nothing.
    Each row after a step equals :func:`step_heat` of that row with the
    same fluxes, bit for bit: the interior is the same ufunc sequence,
    the boundary nodes the same expressions.  The interior update runs
    once over the flattened buffer, so it also writes the boundary nodes
    where two rows meet; the boundary expressions then overwrite them.

    A step does not scan for NaN/Inf; callers detect a non-finite state
    from a scalar they compute anyway.
    """

    __slots__ = ("dx", "index", "rows", "buffers", "_two_r", "_k", "_tmp", "_plans")

    def __init__(self, fields, dx: float, dt: float):
        # C order, so that the flat views below are views of the buffer, not copies
        cur = np.array(fields, dtype=float, order="C")
        if cur.ndim != 2 or cur.shape[1] < 3:
            raise ConfigError(f"fields must be a (k, n >= 3) array, got shape {cur.shape}")
        self.dx = dx
        r = dt / (dx * dx)
        self._two_r = 2.0 * r
        # ufunc operands as 0-d arrays, which numpy takes faster than Python floats
        self._k = tuple(np.array(v) for v in (2.0, r))
        self.buffers = (cur, np.empty_like(cur))
        self._tmp = np.empty(cur.size - 2)
        n = cur.shape[1]
        # interior, right and left neighbours of each flattened buffer, and its rows
        views = [(flat[1:-1], flat[2:], flat[:-2], tuple(flat.reshape(-1, n)))
                 for flat in (u.reshape(-1) for u in self.buffers)]
        #: per buffer, the plan of a step from it: its interior and neighbours,
        #: the other buffer's interior, each (row, output row) pair and the output rows
        self._plans = tuple(
            (*ins[:3], outs[0], tuple(zip(ins[3], outs[3])), outs[3])
            for ins, outs in (views, views[::-1])
        )
        #: index into ``buffers`` of the current state, and that buffer's rows
        self.index = 0
        self.rows = views[0][3]

    def step(self, *fluxes: float) -> tuple[np.ndarray, ...]:
        """Advance every row one step; return the rows of the new state.

        ``fluxes`` are the left and right fluxes of row 0, then of row 1,
        and so on.  A non-finite flux raises :class:`ConfigError`, as
        :class:`FluxBC` does, before any value is written.
        """
        for f in fluxes:
            if not math.isfinite(f):
                raise ConfigError("boundary fluxes must be finite")
        ui, up, um, oi, pairs, out_rows = self._plans[self.index]
        tmp, (two, r), two_r, dx = self._tmp, self._k, self._two_r, self.dx
        # u[1:-1] + r * (u[2:] - 2.0 * u[1:-1] + u[:-2]), as in step_heat
        np.multiply(two, ui, tmp)
        np.subtract(up, tmp, tmp)
        np.add(tmp, um, tmp)
        np.multiply(r, tmp, tmp)
        np.add(ui, tmp, oi)
        each = iter(fluxes)
        for (u, out), left, right in zip(pairs, each, each):
            u0, u_1 = u.item(0), u.item(-1)
            out[0] = u0 + two_r * (u.item(1) - u0 - dx * left)
            out[-1] = u_1 + two_r * (u.item(-2) - u_1 + dx * right)
        self.index ^= 1
        self.rows = out_rows
        return out_rows


def _trapz(values: np.ndarray, dx: float) -> float:
    return dx * (values.sum() - 0.5 * (values[0] + values[-1]))


def quad(f: GridFunction) -> float:
    """Composite trapezoid value of the integral of f over [0, 1]."""
    return _trapz(f.values, f.grid.dx)


def l2_norm(f: GridFunction) -> float:
    """L2(0,1) norm of f under trapezoid quadrature."""
    v = f.values
    return math.sqrt(max(_trapz(v * v, f.grid.dx), 0.0))


def grad_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order finite-difference derivative of a nodal profile."""
    return np.gradient(values, dx, edge_order=2)


class GradientEnergy:
    """Trapezoid values of the integral of f_x^2, one per row, in planned buffers.

    The rows are the error fields of a runner's block, one per step: the
    error system's field, or ``w - what`` of the observer loop's states.
    ``f_x`` is :func:`grad_values` of ``f``, written with the formulas of
    ``np.gradient(f, dx, edge_order=2)``: central differences inside and
    second-order one-sided differences at the ends.  Each value equals
    that of squaring the row's gradient and integrating it with the
    trapezoid rule, bit for bit: the same operations run elementwise over
    the rows, and ``np.add.reduce`` along the contiguous rows sums each
    one as it sums a single profile.
    """

    __slots__ = ("_k", "_weights", "_rows")

    def __init__(self, n: int, dx: float):
        if n < 3:
            raise ConfigError(f"the gradient needs at least 3 nodes, got {n}")
        # 2 dx, 0.5 and dx as 0-d ufunc operands
        self._k = tuple(np.array(v) for v in (2.0 * dx, 0.5, dx))
        # np.gradient's edge weights on (f[0], f[-3]), (f[1], f[-2]) and (f[2], f[-1])
        left, right = (-1.5 / dx, 2.0 / dx, -0.5 / dx), (0.5 / dx, -2.0 / dx, 1.5 / dx)
        self._weights = tuple(np.array(pair) for pair in zip(left, right))
        #: the array last passed, the buffers of its rows and a plan per row count
        self._rows = None

    def of_rows(self, d: np.ndarray, m: int | None = None) -> np.ndarray:
        """The gradient energy of each of the first m rows of ``d``.

        ``d`` is a C-contiguous ``(rows, n)`` array; m defaults to every row.  The buffers are allocated for ``d`` itself
        and the views planned once per m, so a caller that passes the same
        array every time pays for the m rows it asks for and plans once per
        row count; a new array is planned anew.
        """
        if self._rows is None or self._rows[0] is not d:
            if d.ndim != 2 or d.shape[1] < 3 or not d.flags.c_contiguous:
                raise ConfigError(f"rows must be a C-contiguous (m, n >= 3) array, got {d.shape}")
            self._rows = (d, np.empty(d.shape), np.empty((len(d), 2)), {})
        _, grads, tmps, plans = self._rows
        m = len(d) if m is None else m
        plan = plans.get(m)
        if plan is None:
            plan = plans[m] = self._row_plan(d[:m], grads[:m], tmps[:m])
        grad, flat_diff, inner, ends, (f0, f1, f2), (a, b, c), tmp, first, last = plan
        two_dx, one_half, dx = self._k
        # central differences over the flattened rows; the ones that straddle
        # two rows land on edge nodes, which the edge formulas overwrite
        np.subtract(flat_diff[2:], flat_diff[:-2], inner)
        np.divide(inner, two_dx, inner)
        # both one-sided edge formulas at once, as (a * f0 + b * f1) + c * f2
        np.multiply(a, f0, tmp)
        np.multiply(b, f1, ends)
        np.add(tmp, ends, tmp)
        np.multiply(c, f2, ends)
        np.add(tmp, ends, ends)
        np.multiply(grad, grad, grad)
        total = np.add.reduce(grad, axis=1)
        half = tmp[:, 0]
        np.add(first, last, half)
        np.multiply(one_half, half, half)
        np.subtract(total, half, total)
        np.multiply(dx, total, total)
        return total

    def _row_plan(self, diff: np.ndarray, grad: np.ndarray, tmp: np.ndarray) -> tuple:
        (rows, n), step = diff.shape, diff.strides
        # (f[0], f[-3]), (f[1], f[-2]) and (f[2], f[-1]) of every row
        edges = tuple(
            np.lib.stride_tricks.as_strided(
                diff[:, k:], shape=(rows, 2), strides=(step[0], (n - 3) * step[1]),
                writeable=False,
            )
            for k in range(3)
        )
        # the first and last node of every row
        ends = grad[:, :: n - 1]
        return (grad, diff.reshape(-1), grad.reshape(-1)[1:-1], ends, edges, self._weights, tmp,
                ends[:, 0], ends[:, 1])
