"""Host-speed references that turn raw times into reference-speed seconds.

The speed of the host this benchmark was written on drifted by about 2x
within minutes, in phases of seconds to a minute, and CPU time drifted
with it, so raw times are not comparable between runs.  Each time is
therefore divided by a reference timed in the same interpreter, next to
it, and multiplied by a fixed constant.

Pass times use :func:`kernel`, which does the same kinds of work as a
closed-loop step (frozen value objects built per step, a three-point
stencil on 51 nodes, a finiteness scan, ``np.gradient``, a cached
weight vector and trapezoid sums) but shares no code with heatadapt, so
a change to the program does not move it.  Each pass interpreter times
it before and after its pass.  Raw per-pass times on that host spread
0.29-0.43 (IQR over median); normalised ones spread 0.09-0.17.

Set-up times use the interpreter's own ``import numpy``, the first step
of set-up (heatadapt imports numpy at module level, so timing it
separately adds no work).  Set-up is process start and imports, which
the compute kernel tracks poorly: over 200 s of set-up samples, medians
of 12 spread (IQR over median) 0.18 raw, 0.055 scaled by the kernel and
0.012 scaled by the numpy import.

A reported second is a second on a host where the kernel takes exactly
``REFERENCE_S`` and ``import numpy`` exactly ``IMPORT_REFERENCE_S``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: kernel time that defines a reference-speed second for pass times
REFERENCE_S = 0.1
#: numpy import time that defines a reference-speed second for set-up
IMPORT_REFERENCE_S = 0.07
#: about REFERENCE_S of CPU on the reference host in its fast phase
STEPS = 2700


@dataclass(frozen=True)
class _Grid:
    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("grid needs 3 nodes")

    @property
    def dx(self) -> float:
        return 1.0 / (self.n - 1)


@dataclass(frozen=True)
class _Flux:
    left: float
    right: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise ValueError("flux must be finite")


class _Field:
    __slots__ = ("grid", "values")

    def __init__(self, grid: _Grid, values: np.ndarray) -> None:
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@lru_cache(maxsize=8)
def _weights(grid: _Grid, q: float) -> np.ndarray:
    w = np.exp(q * (1.0 - np.linspace(0.0, 1.0, grid.n)))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w * grid.dx


def _sq_norm(v: np.ndarray, dx: float) -> float:
    v2 = v * v
    return dx * (v2.sum() - 0.5 * (v2[0] + v2[-1]))


def _step(f: _Field, bc: _Flux, dt: float) -> _Field:
    u = f.values
    dx = f.grid.dx
    r = dt / (dx * dx)
    out = np.empty_like(u)
    out[1:-1] = u[1:-1] + r * (u[2:] - 2.0 * u[1:-1] + u[:-2])
    out[0] = u[0] + 2.0 * r * (u[1] - u[0] - dx * bc.left)
    out[-1] = u[-1] + 2.0 * r * (u[-2] - u[-1] + dx * bc.right)
    if not np.isfinite(out).all():
        raise ArithmeticError("calibration kernel diverged")
    return _Field(f.grid, out)


def kernel() -> float:
    """A plant/observer pair stepped like the closed loop, with fresh objects per step.

    Over four minutes next to stabilize and tracking passes, it tracked
    the host's speed better than a bare stencil loop: medians of 8
    normalised passes spread 0.014-0.031 (stabilize) and 0.020-0.046
    (tracking), against 0.034-0.049 and 0.045-0.054.
    """
    grid = _Grid(51)
    dx, dt, q = grid.dx, 1e-4, 2.0
    w = _Field(grid, q * np.linspace(0.0, 1.0, grid.n) - 1.0)
    what = _Field(grid, np.zeros(grid.n))
    zeta = acc = 0.0
    for _ in range(STEPS):
        u0 = -7.0 * float(what.values[-1] + q * (_weights(grid, q) @ what.values))
        innov = w.values[-1] - what.values[-1]
        grad = np.gradient(w.values - what.values, dx, edge_order=2)
        acc += dt * (_sq_norm(grad, dx) + 5.0 * innov * innov)
        zeta_new = zeta + innov * u0 * dt
        left = -q * w.values[0]
        w = _step(w, _Flux(left, -10.0 * zeta * u0), dt)
        what = _step(what, _Flux(left, u0 + 5.0 * innov), dt)
        zeta = zeta_new
        if math.sqrt(_sq_norm(w.values, dx)) > 1e12:
            raise ArithmeticError("calibration kernel diverged")
    return acc + zeta


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0
