"""Control laws and servo reference machinery.

Three boundary feedback laws share one spatial functional of a profile f,

    K[f] = f(1) + q * integral_0^1 exp(q (1 - x)) f(x) dx,

evaluated by trapezoid quadrature on the profile's own grid:

  * the full-information law  u = -((q + c0)/b) K[w]  (needs b),
  * the adaptive law          u0 = -(q + c0) K[what] (+ servo slope),
  * the reciprocal-estimate update  zeta <- zeta - sign_b * innovation * u0 * dt.

The adaptive law accepts only :class:`~heatadapt.domain.EstimatorParams`,
so it cannot read b even by accident.

Tracking runs need boundary data of the auxiliary heat solution built
from the reference's derivative series,

    v(x,t) = sum_j r^(j)(t) [ x^(2j)/(2j)! - q x^(2j+1)/(2j+1)! ],

which satisfies v_t = v_xx with v(0,t) = r(t) and v_x(0,t) = -q r(t).
The series is truncated at a configurable J; factorial decay makes the
first omitted term a usable adequacy estimate, and truncation is
rejected via :class:`TruncationInsufficient` when that term is too
large.  For constant references every j >= 1 term vanishes, so any
J >= 0 is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import EstimatorParams, Grid, GridFunction, Params, ReferenceSignal

__all__ = [
    "ServoTerms",
    "TruncationInsufficient",
    "backstepping_known_b",
    "adaptive_u0",
    "zeta_step",
    "servo_eval",
    "servo_boundary",
]

#: default magnitude allowed for the first omitted servo-series term
DEFAULT_TAIL_TOL = 1e-6


class TruncationInsufficient(ValueError):
    """The servo series truncation J is too small for this reference."""


@dataclass(frozen=True)
class ServoTerms:
    """Boundary data of the servo solution at x = 1.

    tail_bound estimates the truncation error as the magnitude of the
    first omitted term (max over the value and slope series); it is
    exactly 0 for constant references.
    """

    v1: float
    vx1: float
    truncation_J: int
    tail_bound: float


@lru_cache(maxsize=32)
def _exp_kernel(grid: Grid, q: float) -> np.ndarray:
    """Trapezoid weights for integral of exp(q (1 - x)) f(x) dx on the grid."""
    w = np.exp(q * (1.0 - grid.nodes))
    w[0] *= 0.5
    w[-1] *= 0.5
    w *= grid.dx
    w.flags.writeable = False
    return w


def _boundary_functional(f: GridFunction, q: float) -> float:
    """f(1) + q * integral exp(q(1-x)) f dx, the shared feedback kernel."""
    w = _exp_kernel(f.grid, q)
    return float(f.values[-1] + q * (w @ f.values))


def backstepping_known_b(w: GridFunction, p: Params) -> float:
    """Full-information stabilizing feedback; requires the plant view of b."""
    return -(p.q + p.c0) / p.b * _boundary_functional(w, p.q)


def adaptive_u0(
    what: GridFunction,
    p: EstimatorParams,
    servo: ServoTerms | None = None,
) -> float:
    """Feedback computed from the observer field alone; never reads b or zeta.

    what is the current observer profile (state estimate for
    stabilization, shifted estimate for tracking).  When servo terms are
    supplied, their boundary slope is added, which turns the stabilizer
    into the tracking law.
    """
    u0 = -(p.q + p.c0) * _boundary_functional(what, p.q)
    if servo is not None:
        u0 += servo.vx1
    return u0


def zeta_step(zeta: float, sign_b: int, innovation: float, u0: float, dt: float) -> float:
    """One explicit Euler step of the reciprocal-coefficient update law.

    innovation is the measured boundary mismatch driving the update;
    flipping sign_b exactly negates the increment, and the state is
    unchanged whenever innovation or u0 vanishes.
    """
    return zeta - sign_b * innovation * u0 * dt


class _ServoSeries:
    """Precomputed truncated servo series for one (reference, q, J) triple.

    Holds the factorial coefficient tables, and for sinusoids the
    amplitudes ``A omega**j`` and phases ``j pi / 2`` of the derivative
    series, so per-step evaluation inside simulation loops reduces to a
    handful of vector operations.
    """

    def __init__(self, ref: ReferenceSignal, q: float, J: int):
        if J < 0:
            raise ValueError("J must be >= 0")
        self.ref = ref
        self.q = q
        self.J = J
        j = np.arange(J + 2)  # one slot past J for the tail estimate
        fact_2j = np.array([math.factorial(2 * jj) for jj in j], dtype=float)
        fact_2j1 = np.array([math.factorial(2 * jj + 1) for jj in j], dtype=float)
        self._inv_2j = 1.0 / fact_2j
        self._inv_2j1 = 1.0 / fact_2j1
        # coefficients of the two boundary series, index j
        self._c_v1 = self._inv_2j - q * self._inv_2j1
        self._c_vx1 = np.zeros(J + 2)
        self._c_vx1[1:] = q * self._inv_2j[1:] - 1.0 / np.array(
            [math.factorial(2 * jj - 1) for jj in j[1:]], dtype=float
        )
        # the slices boundary() reads each step
        self._c_v1_terms = self._c_v1[:-1]
        self._c_vx1_terms = self._c_vx1[1:-1]
        self._c_tails = (self._c_v1[-1], self._c_vx1[-1])
        if ref.kind == "sinusoid":
            self._amplitudes = ref.amplitude * ref.omega**j
            self._phases = j * math.pi / 2.0

    def derivatives(self, t: float) -> np.ndarray:
        """r^(j)(t) for j = 0 .. J+1."""
        ref = self.ref
        n = self.J + 2
        if ref.kind == "zero":
            return np.zeros(n)
        if ref.kind == "constant":
            out = np.zeros(n)
            out[0] = ref.value
            return out
        return self._amplitudes * np.sin(ref.omega * t + self._phases)

    def profile(self, x, t: float, tail_tol: float):
        """Series value at position(s) x; x may be a scalar or an array."""
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0.0) or np.any(xa > 1.0):
            raise ValueError("x outside [0, 1]")
        r = self.derivatives(t)
        powers = xa[..., None] ** (2 * np.arange(self.J + 2))
        terms = r * (self._inv_2j * powers - self.q * self._inv_2j1 * powers * xa[..., None])
        tail = float(np.max(np.abs(terms[..., -1])))
        if tail > tail_tol:
            raise TruncationInsufficient(
                f"servo series tail {tail:.3e} exceeds {tail_tol:.3e} at J={self.J}"
            )
        total = terms[..., :-1].sum(axis=-1)
        return float(total) if np.isscalar(x) or xa.ndim == 0 else total

    def boundary(self, t: float, tail_tol: float) -> ServoTerms:
        r = self.derivatives(t)
        v1 = float(r[:-1] @ self._c_v1_terms)
        vx1 = float(-self.q * r[0] - r[1:-1] @ self._c_vx1_terms)
        c_v1_tail, c_vx1_tail = self._c_tails
        tail = max(abs(r[-1] * c_v1_tail), abs(r[-1] * c_vx1_tail))
        if tail > tail_tol:
            raise TruncationInsufficient(
                f"servo boundary tail {tail:.3e} exceeds {tail_tol:.3e} at J={self.J}"
            )
        return ServoTerms(v1=v1, vx1=vx1, truncation_J=self.J, tail_bound=tail)


@lru_cache(maxsize=64)
def _servo_series(ref: ReferenceSignal, q: float, J: int) -> _ServoSeries:
    return _ServoSeries(ref, q, J)


def servo_eval(
    ref: ReferenceSignal,
    q: float,
    x,
    t: float,
    J: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> float:
    """Partial sum of the servo series at position x (scalar or array) and time t.

    Exactly r(t) at x = 0 for every J, and exactly r* (1 - q x) for
    constant references.  Raises :class:`TruncationInsufficient` when
    the first omitted term exceeds tail_tol.
    """
    return _servo_series(ref, q, J).profile(x, t, tail_tol)


def servo_boundary(
    ref: ReferenceSignal,
    q: float,
    t: float,
    J: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ServoTerms:
    """Truncated boundary value v(1,t) and slope v_x(1,t) of the servo solution.

    v(1,t)   = sum_{j>=0} r^(j)(t) [ 1/(2j)! - q/(2j+1)! ]
    v_x(1,t) = -q r(t) - sum_{j>=1} r^(j)(t) [ q/(2j)! - 1/(2j-1)! ]

    tail_bound is the larger first-omitted-term magnitude of the two
    series; exceeding tail_tol raises :class:`TruncationInsufficient`.
    """
    return _servo_series(ref, q, J).boundary(t, tail_tol)
