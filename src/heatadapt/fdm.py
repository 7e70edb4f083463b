"""Explicit finite differences for 1-D heat equations with flux boundary data.

The stepper advances u_t = u_xx one forward-Euler step with
second-order central differences.  Boundary nodes use ghost values

    u_{-1} = u_1 - 2 dx left_flux,      u_n = u_{n-2} + 2 dx right_flux,

so callers impose Neumann or Robin conditions by evaluating the flux
from the current boundary values (e.g. left_flux = -q u(0)) and passing
the numbers here.  Quadrature is composite trapezoid, matching the
stepper's O(dx^2) spatial accuracy.

:func:`step_heat` and :func:`grad_values` allocate their results and are
the reference route.  :class:`HeatStepper` and :class:`GradientEnergy`
repeat their arithmetic operation for operation, from one row of a
slab of states into the next or in planned buffers, so a simulation
loop gets bit-identical values without allocating per step.
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


def step_heat(state: GridFunction, bc: FluxBC, dt: float) -> GridFunction:
    """Advance the state by one explicit step of u_t = u_xx.

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
    if not np.isfinite(out).all():
        raise NonFiniteState("heat step produced non-finite values")
    return GridFunction._wrap(state.grid, out)


class HeatStepper:
    """Explicit steps of k fields on one grid, from one row of a slab into the next.

    Row i of the C-contiguous ``slab`` holds the state of an instant, its
    first k n values the k fields; the stepper touches no other value.  The
    initial ``(k, n)`` ``fields`` are copied into the first row.  The views
    of a step from each row are built once, so a step allocates and copies
    nothing.  Each field after a step equals :func:`step_heat` of it with
    the same fluxes, bit for bit: the interior is the same ufunc sequence,
    run once over a row's k n values, and the boundary nodes, which that
    run also writes where two fields meet, the same Python float expressions
    through the row's memoryview, at offset f n for field f.

    A step does not scan for NaN/Inf; callers detect a non-finite state
    from a scalar they compute anyway.
    """

    __slots__ = ("rows", "views", "_plans")

    def __init__(self, slab: np.ndarray, fields, dx: float, dt: float):
        shape = np.shape(fields)
        size = math.prod(shape)
        if (len(shape) != 2 or shape[1] < 3 or slab.ndim != 2 or len(slab) < 2
                or slab.shape[1] < size or not slab.flags.c_contiguous):
            raise ConfigError(f"fields must be a (k, n >= 3) array that fits the rows of a "
                              f"C-contiguous slab, got {shape} and {slab.shape}")
        slab[0, :size] = np.ravel(fields)
        k, n = shape
        r = dt / (dx * dx)
        # per field, the offsets of its end nodes and their neighbours, and its left flux
        ends = tuple((f * n, f * n + 1, f * n + n - 1, f * n + n - 2, 2 * f) for f in range(k))
        # a buffer, the ufunc operands as 0-d arrays, which numpy takes faster
        # than Python floats, the boundary expressions' constants and the ends
        shared = ((np.empty(size - 2), np.array(2.0), np.array(r), 2.0 * r, dx, ends),) * len(slab)
        # the fields of every row, their interiors and neighbours, as views
        cols = slab[:, :size]
        inner, right, left = list(cols[:, 1:-1]), list(cols[:, 2:]), list(cols[:, :-2])
        #: per slab row, views of the fields it holds
        self.rows = rows = tuple(map(tuple, cols.reshape(-1, *shape)))
        #: per slab row, a memoryview of it, which reads and writes single values faster
        self.views = views = tuple(map(memoryview, slab))
        #: per row, the plan of a step from it: its interior and neighbours, the
        #: next row's interior, the row and the next as memoryviews, the next
        #: row's fields and what every step shares
        self._plans = tuple(zip(inner, right, left, inner[1:], views, views[1:], rows[1:], shared))

    def step(self, i: int, *fluxes: float, check: bool = True) -> tuple[np.ndarray, ...]:
        """Advance every field from slab row i into row i + 1; return that row's fields.

        ``fluxes`` are the left and right fluxes of field 0, then of field
        1, and so on.  With ``check`` a non-finite flux raises
        :class:`ConfigError`, as :class:`FluxBC` does, before any value is
        written; without it the flux reaches the boundary node it enters.
        """
        if check:
            for f in fluxes:
                if not math.isfinite(f):
                    raise ConfigError("boundary fluxes must be finite")
        ui, up, um, oi, u, out, out_row, (tmp, two, r, two_r, dx, ends) = self._plans[i]
        # u[1:-1] + r * (u[2:] - 2.0 * u[1:-1] + u[:-2]), as in step_heat
        np.multiply(two, ui, tmp)
        np.subtract(up, tmp, tmp)
        np.add(tmp, um, tmp)
        np.multiply(r, tmp, tmp)
        np.add(ui, tmp, oi)
        for a, a1, z, z1, j in ends:
            u0, u_1 = u[a], u[z]
            out[a] = u0 + two_r * (u[a1] - u0 - dx * fluxes[j])
            out[z] = u_1 + two_r * (u[z1] - u_1 + dx * fluxes[j + 1])
        return out_row


def _trapz(values: np.ndarray, dx: float) -> float:
    return dx * (values.sum() - 0.5 * (values[0] + values[-1]))


def l2_norm(f: GridFunction) -> float:
    """L2(0,1) norm of f under trapezoid quadrature."""
    v = f.values
    return math.sqrt(max(_trapz(v * v, f.grid.dx), 0.0))


def grad_values(values: np.ndarray, dx: float) -> np.ndarray:
    """Second-order finite-difference derivative of a nodal profile."""
    return np.gradient(values, dx, edge_order=2)


class GradientEnergy:
    """Trapezoid values of the integral of f_x^2, one per row, in a planned buffer.

    The rows are the error fields of a runner's steps, one per step: the
    error system's field, or ``w - what`` of the observer loop's states.
    ``f_x`` is :func:`grad_values` of ``f``, written with the formulas of
    ``np.gradient(f, dx, edge_order=2)``: central differences inside and
    second-order one-sided differences at the ends.  Each value equals
    that of squaring the row's gradient and integrating it with the
    trapezoid rule, bit for bit: the same operations run elementwise over
    the rows, and ``np.add.reduce`` along the contiguous rows sums each
    one as it sums a single profile.

    ``buffer`` holds k n + 1 values, and :attr:`rows` are its last k n
    values as k rows of n, for the caller to fill.  :meth:`of_rows`
    writes their gradients one value back in the same buffer, over the
    rows themselves, so it needs no buffer of their size: the central
    differences then read each value ahead of the one they write, which
    numpy runs in place.
    """

    __slots__ = ("_k", "_weights", "_buffers", "_plans", "rows")

    def __init__(self, n: int, dx: float, buffer: np.ndarray):
        if n < 3:
            raise ConfigError(f"the gradient needs at least 3 nodes, got {n}")
        # 2 dx, 0.5 and dx as 0-d ufunc operands
        self._k = tuple(np.array(v) for v in (2.0 * dx, 0.5, dx))
        # np.gradient's edge weights on (f[0], f[-3]), (f[1], f[-2]) and (f[2], f[-1])
        left, right = (-1.5 / dx, 2.0 / dx, -0.5 / dx), (0.5 / dx, -2.0 / dx, 1.5 / dx)
        self._weights = tuple(np.array(pair) for pair in zip(left, right))
        #: the rows of ``buffer`` for the caller to fill
        self.rows = buffer[1:].reshape(-1, n)
        #: the rows' gradients, one value back, and two buffers of edge values
        k = len(self.rows)
        self._buffers = (buffer[:-1].reshape(k, n), np.empty((k, 2)), np.empty((k, 2)))
        #: a plan per row count
        self._plans = {}

    def of_rows(self, m: int) -> np.ndarray:
        """The gradient energy of each of the first m :attr:`rows`, which it overwrites.

        The views are planned once per m, so a caller pays for the m rows
        it asks for and plans once per row count.
        """
        plan = self._plans.get(m)
        if plan is None:
            grads, tmps, edges = self._buffers
            plan = self._plans[m] = self._row_plan(self.rows[:m], grads[:m], tmps[:m], edges[:m])
        grad, flat_diff, inner, ends, (f0, f1, f2), (a, b, c), tmp, edge, first, last = plan
        two_dx, one_half, dx = self._k
        # both one-sided edge formulas at once, as (a * f0 + b * f1) + c * f2,
        # before any gradient overwrites the values they read
        np.multiply(a, f0, tmp)
        np.multiply(b, f1, edge)
        np.add(tmp, edge, tmp)
        np.multiply(c, f2, edge)
        np.add(tmp, edge, edge)
        # central differences over the flattened rows; the ones that straddle
        # two rows land on edge nodes, which the edge values then overwrite
        np.subtract(flat_diff[2:], flat_diff[:-2], inner)
        np.divide(inner, two_dx, inner)
        np.copyto(ends, edge)
        np.multiply(grad, grad, grad)
        total = np.add.reduce(grad, axis=1)
        half = tmp[:, 0]
        np.add(first, last, half)
        np.multiply(one_half, half, half)
        np.subtract(total, half, total)
        np.multiply(dx, total, total)
        return total

    def _row_plan(self, diff: np.ndarray, grad: np.ndarray, tmp: np.ndarray,
                  edge: np.ndarray) -> tuple:
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
                edge, ends[:, 0], ends[:, 1])
