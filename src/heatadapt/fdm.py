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
    """Explicit steps of k fields on one grid, in place.

    The fields are the rows of a ``(k, n)`` array.  Two preallocated
    buffers take turns as input and output, and their slice views are
    built once, so a step allocates nothing.  Each row after
    :meth:`step` equals :func:`step_heat` of that row with the same
    fluxes, bit for bit: the interior is the same ufunc sequence, the
    boundary nodes the same expressions on Python floats.  The interior
    update runs once over the flattened buffer, so it also writes the
    boundary nodes where two rows meet; the boundary expressions then
    overwrite them.

    A step does not scan for NaN/Inf; callers detect a non-finite state
    from a scalar they compute anyway.
    """

    __slots__ = ("dx", "index", "rows", "buffers", "_two_r", "_r", "_tmp", "_plans")

    def __init__(self, fields, dx: float, dt: float):
        cur = np.array(fields, dtype=float)
        if cur.ndim != 2 or cur.shape[1] < 3:
            raise ConfigError(f"fields must be a (k, n >= 3) array, got shape {cur.shape}")
        self.dx = dx
        self._r = dt / (dx * dx)
        self._two_r = 2.0 * self._r
        self.buffers = (cur, np.empty_like(cur))
        self._tmp = np.empty(cur.size - 2)
        plans = []
        for u in self.buffers:
            flat = u.reshape(-1)
            # interior, right and left neighbours of the flattened buffer, and its rows
            plans.append((flat[1:-1], flat[2:], flat[:-2], tuple(u)))
        self._plans = tuple(plans)
        #: index into ``buffers`` of the current state, and that buffer's rows
        self.index = 0
        self.rows = self._plans[0][3]

    def step(self, *fluxes: float) -> tuple[np.ndarray, ...]:
        """Advance every row one step; return the rows of the new state.

        ``fluxes`` are the left and right fluxes of row 0, then of row 1,
        and so on.  A non-finite flux raises :class:`ConfigError`, as
        :class:`FluxBC` does, before any value is written.
        """
        for f in fluxes:
            if not math.isfinite(f):
                raise ConfigError("boundary fluxes must be finite")
        ui, up, um, rows = self._plans[self.index]
        self.index ^= 1
        oi, _, _, out_rows = self._plans[self.index]
        tmp, r, two_r, dx = self._tmp, self._r, self._two_r, self.dx
        # u[1:-1] + r * (u[2:] - 2.0 * u[1:-1] + u[:-2]), as in step_heat
        np.multiply(2.0, ui, out=tmp)
        np.subtract(up, tmp, out=tmp)
        np.add(tmp, um, out=tmp)
        np.multiply(r, tmp, out=tmp)
        np.add(ui, tmp, out=oi)
        for i, (u, out) in enumerate(zip(rows, out_rows)):
            u0, u1, u_2, u_1 = u.item(0), u.item(1), u.item(-2), u.item(-1)
            out[0] = u0 + two_r * (u1 - u0 - dx * fluxes[2 * i])
            out[-1] = u_1 + two_r * (u_2 - u_1 + dx * fluxes[2 * i + 1])
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
    """Trapezoid value of the integral of f_x^2, in preallocated buffers.

    ``f_x`` is :func:`grad_values` of ``f``, written with the formulas of
    ``np.gradient(f, dx, edge_order=2)``: central differences inside and
    second-order one-sided differences at the ends.  Calling an instance
    returns the same float as squaring that gradient and integrating it
    with the trapezoid rule, bit for bit.
    """

    __slots__ = ("dx", "_two_dx", "_left", "_right", "_grad", "_inner", "_diff")

    def __init__(self, n: int, dx: float):
        if n < 3:
            raise ConfigError(f"the gradient needs at least 3 nodes, got {n}")
        self.dx = dx
        self._two_dx = 2.0 * dx
        # np.gradient's edge weights, on f[0], f[1], f[2] and f[-3], f[-2], f[-1]
        self._left = (-1.5 / dx, 2.0 / dx, -0.5 / dx)
        self._right = (0.5 / dx, -2.0 / dx, 1.5 / dx)
        self._grad = np.empty(n)
        self._inner = self._grad[1:-1]
        self._diff = np.empty(n)

    def __call__(self, f: np.ndarray) -> float:
        g, inner, dx = self._grad, self._inner, self.dx
        np.subtract(f[2:], f[:-2], out=inner)
        np.divide(inner, self._two_dx, out=inner)
        a, b, c = self._left
        g[0] = a * f.item(0) + b * f.item(1) + c * f.item(2)
        a, b, c = self._right
        g[-1] = a * f.item(-3) + b * f.item(-2) + c * f.item(-1)
        np.multiply(g, g, out=g)
        return dx * (np.add.reduce(g) - 0.5 * (g.item(0) + g.item(-1)))

    def of_difference(self, f: np.ndarray, h: np.ndarray) -> float:
        """The gradient energy of ``f - h``."""
        np.subtract(f, h, out=self._diff)
        return self(self._diff)
