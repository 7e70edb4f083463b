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
The series is truncated at a configurable J, from 0 to
:data:`~heatadapt.domain.MAX_SERVO_J`; factorial decay makes the
first omitted term a usable adequacy estimate, and truncation is
rejected via :class:`TruncationInsufficient` when that term is too
large.  For constant references every j >= 1 term vanishes, so any
J >= 0 is exact.

Every reference is value + A sin(omega t), so v = C(x) + S(x) sin(omega t)
+ K(x) cos(omega t): one table of (1, sin, cos) weights per (reference, q, J)
leaves a step one sin, one cos and a few float products.  Sinusoid outputs
differ from the term-by-term sum of earlier versions in the last digits (at
most 4.5e-15 of a trace column's scale); constant and zero references do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .domain import MAX_SERVO_J, EstimatorParams, Grid, GridFunction, Params, ReferenceSignal

__all__ = [
    "ServoTerms",
    "TruncationInsufficient",
    "backstepping_known_b",
    "adaptive_u0",
    "feedback_row",
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
    tail_bound: float


@lru_cache(maxsize=32)
def _exp_kernel(n: int, q: float) -> np.ndarray:
    """Trapezoid weights for integral of exp(q (1 - x)) f(x) dx on the n-node grid.

    Keyed on n rather than on the Grid, whose dataclass hash and equality
    run in Python on every lookup.
    """
    grid = Grid(n)
    w = np.exp(q * (1.0 - grid.nodes))
    w[0] *= 0.5
    w[-1] *= 0.5
    w *= grid.dx
    w.flags.writeable = False
    return w


def _adaptive_law(n: int, p: EstimatorParams) -> Callable[[np.ndarray], float]:
    """The law u0 = -(q + c0) K[what] on the n-node grid, as a function of what's values.

    u0 is a Python float.  Built from the estimator view, so it cannot read b.
    """
    gain, q, dot = -(p.q + p.c0), p.q, _exp_kernel(n, p.q).dot
    return lambda v: gain * (v.item(-1) + q * float(dot(v)))


def backstepping_known_b(w: GridFunction, p: Params) -> float:
    """Full-information stabilizing feedback, the adaptive law's u0 of w over b; needs b."""
    return _adaptive_law(w.grid.n, p.estimator_view())(w.values) / p.b


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
    u0 = _adaptive_law(what.grid.n, p)(what.values)
    if servo is not None:
        u0 += servo.vx1
    return u0


def feedback_row(n: int, p: EstimatorParams) -> np.ndarray:
    """The row g of :func:`adaptive_u0` without servo terms, on the n-node grid.

    ``g = -(q + c0) (e_n + q K)``, with e_n the last node's unit vector and
    K the trapezoid weights of the kernel, so ``g . what`` is
    ``adaptive_u0(what, p)`` up to the order of its roundings.  Built from
    the estimator view alone, so it cannot hold b.
    """
    gain = -(p.q + p.c0)
    g = (gain * p.q) * _exp_kernel(n, p.q)
    g[-1] += gain
    return g


def _feedback_kernel(n: int, q: float) -> np.ndarray:
    """The row ``h = e_n + q K`` on the n-node grid, which no c0 enters.

    ``-(q + c0) (h . what)`` is the law's u0 for every c0, up to the order
    of its roundings, so one row serves runs that differ only in c0.
    """
    h = q * _exp_kernel(n, q)
    h[-1] += 1.0
    return h


def zeta_step(zeta: float, sign_b: int, innovation: float, u0: float, dt: float) -> float:
    """One explicit Euler step of the reciprocal-coefficient update law.

    innovation is the measured boundary mismatch driving the update;
    flipping sign_b exactly negates the increment, and the state is
    unchanged whenever innovation or u0 vanishes.
    """
    return zeta - sign_b * innovation * u0 * dt


def _zeta_steps(zeta: np.ndarray, sign_b: np.ndarray, innovation: np.ndarray, u0: np.ndarray,
                dt: np.ndarray, out: np.ndarray) -> None:
    """:func:`zeta_step` of arrays of runs, into ``out``; ``innovation`` is overwritten.

    The same operations in the same order, elementwise, so every value
    equals that of :func:`zeta_step` bit for bit.  ``sign_b`` (as a float)
    and ``dt`` are 0-d arrays, which numpy takes faster than Python scalars.
    """
    np.multiply(sign_b, innovation, innovation)
    np.multiply(innovation, u0, innovation)
    np.multiply(innovation, dt, innovation)
    np.subtract(zeta, innovation, out)


class _ServoSeries:
    """The truncated servo series of one (reference, q, J) triple in closed form.

    Every reference is ``value + A sin(omega t)``, so r^(j)(t) is
    ``T[:, j] . (1, sin omega t, cos omega t)`` for one (3, J + 2) table T:
    ``value`` at T[0, 0], ``A omega**j`` in the sin, cos, -sin, -cos slots
    over j, and column J + 1 the first omitted term.  T times the series
    coefficients at x = 1, taken once, gives the (1, sin, cos) weights of
    v(1,t), v_x(1,t) and the tail.
    """

    def __init__(self, ref: ReferenceSignal, q: float, J: int):
        if not 0 <= J <= MAX_SERVO_J:
            raise ValueError(f"J must be in [0, {MAX_SERVO_J}], got {J}")
        self.q, self.J = q, J
        # 1/k! for k = 0 .. 2J+3: one slot past J for the tail estimate
        self._inv_fact = 1.0 / np.array([math.factorial(k) for k in range(2 * J + 4)], dtype=float)
        table = np.zeros((3, J + 2))
        #: the reference's frequency, 0 for a constant or zero reference
        self.omega = 0.0
        if ref.kind == "constant":
            table[0, 0] = ref.value
        elif ref.kind == "sinusoid":
            amplitudes = ref.amplitude * ref.omega ** np.arange(J + 2)
            table[1, 0::4], table[2, 1::4] = amplitudes[0::4], amplitudes[1::4]
            table[1, 2::4], table[2, 3::4] = -amplitudes[2::4], -amplitudes[3::4]
            self.omega = ref.omega
        self._table = table
        # coefficients of r^(j) in v(1,t) and, for j >= 1, in -(v_x(1,t) + q r(t))
        inv_2j, inv_2j1 = self._inv_fact[0::2], self._inv_fact[1::2]
        c_v1 = inv_2j - q * inv_2j1
        c_vx1 = q * inv_2j[1:] - inv_2j1[:-1]
        c_tail = max(abs(c_v1[-1]), abs(c_vx1[-1]))
        v1, vx1 = table[:, :-1] @ c_v1[:-1], -q * table[:, 0] - table[:, 1:-1] @ c_vx1[:-1]
        #: rows r(t), v(1,t), v_x(1,t) and the tail; columns the weights of 1, sin, cos
        self.weights = np.array([table[:, 0], v1, vx1, table[:, -1] * c_tail])
        self._boundary_weights = self.weights[1:].tolist()

    def kernel(self, x: np.ndarray) -> np.ndarray:
        """The series at positions x as a (len(x), J + 2) table.

        Term j of v(x,t) is r^(j)(t) times column j.
        """
        powers = x[..., None] ** (2 * np.arange(self.J + 2))
        odd = self.q * self._inv_fact[1::2] * powers * x[..., None]
        return self._inv_fact[0::2] * powers - odd

    def profiles(self, kernel: np.ndarray, s: np.ndarray, c: np.ndarray) -> np.ndarray:
        """v(x,t) at the positions of ``kernel``, one row per instant.

        ``s`` and ``c`` are the instants' sin and cos of omega t.  Each row
        equals :meth:`profile` at that instant bit for bit: the same
        products, and each row's terms summed alike.
        """
        level, sines, cosines = self._table
        r = level + sines * s[:, None] + cosines * c[:, None]
        return (r[:, None, :] * kernel)[..., :-1].sum(axis=-1)

    def ahead(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """The rotation R that takes (1, sin wt, cos wt) on to t + dt, and ``weights @ R``.

        A row of ``weights @ R`` gives its term at t + dt from the entries at t.
        """
        c, s = math.cos(self.omega * dt), math.sin(self.omega * dt)
        rotation = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
        # written out: a first matrix-matrix product would fault in BLAS's work buffers
        level, sines, cosines = self.weights.T
        return rotation, np.stack([level, c * sines - s * cosines, s * sines + c * cosines], 1)

    def tails_below(self, s: np.ndarray, c: np.ndarray, tail_tol: float) -> bool:
        """Whether the tail is under tail_tol at every instant whose sin and cos of omega t are s, c.

        s and c may stray from math's by a few dozen ulps: a tail within
        1e-12 of its weights of tail_tol, or NaN, does not count as under it.
        """
        e0, es, ec = self._boundary_weights[2]
        limit = tail_tol - 1e-12 * (abs(e0) + abs(es) + abs(ec))
        return bool(np.abs(e0 + es * s + ec * c).max() <= limit)

    def profile(self, x, t: float, tail_tol: float):
        """Series value at position(s) x; x may be a scalar or an array."""
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0.0) or np.any(xa > 1.0):
            raise ValueError("x outside [0, 1]")
        wt, (level, sines, cosines) = self.omega * t, self._table
        r = level + sines * math.sin(wt) + cosines * math.cos(wt)  # r^(j)(t), j = 0 .. J+1
        terms = r * self.kernel(xa)
        tail = float(np.max(np.abs(terms[..., -1])))
        if tail > tail_tol:
            raise TruncationInsufficient(
                f"servo series tail {tail:.3e} exceeds {tail_tol:.3e} at J={self.J}"
            )
        total = terms[..., :-1].sum(axis=-1)
        return float(total) if np.isscalar(x) or xa.ndim == 0 else total

    def at(self, t: float, tail_tol: float) -> tuple[float, float, float, float, float]:
        """(sin wt, cos wt, v(1,t), v_x(1,t), tail) at t; a tail past tail_tol raises."""
        wt = self.omega * t
        s, c = math.sin(wt), math.cos(wt)
        (v0, vs, vc), (x0, xs, xc), (e0, es, ec) = self._boundary_weights
        tail = abs(e0 + es * s + ec * c)
        if tail > tail_tol:
            raise TruncationInsufficient(
                f"servo boundary tail {tail:.3e} exceeds {tail_tol:.3e} at J={self.J}"
            )
        return s, c, v0 + vs * s + vc * c, x0 + xs * s + xc * c, tail


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
    _, _, v1, vx1, tail = _servo_series(ref, q, J).at(t, tail_tol)
    return ServoTerms(v1=v1, vx1=vx1, tail_bound=tail)
