"""Verification instruments for the adaptive loop.

Energy/Lyapunov functionals of the estimation error, a finite-horizon
persistent-excitation detector, the Volterra kernel transform pair and
the reciprocal-offset involution, a spectral Galerkin solver for the
error dynamics (used as an independent cross-check of the finite
difference route), and convergence diagnostics for trace records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .domain import ConfigError, GridFunction, Params, Trace, ZeroCoefficient, _Recorder
from .fdm import quad

__all__ = [
    "PEVerdict",
    "Energies",
    "InsufficientDuration",
    "UnresolvableMode",
    "energies",
    "pe_check",
    "pi_transform",
    "pi_inverse",
    "upsilon_b",
    "galerkin_error_system",
    "limit_diagnostics",
    "LimitSummary",
    "QuantityDiag",
]


class InsufficientDuration(ValueError):
    """The trace is too short for the requested windowed diagnostic."""


class UnresolvableMode(ValueError):
    """The requested mode count cannot be represented on the given grid."""


class Energies(NamedTuple):
    E: float
    F: float


def energies(wtilde: GridFunction, zetatilde: float, b: float) -> Energies:
    """Error energy E and total functional F, also the Lyapunov functional.

    E = (1/2) ||wtilde||^2,  F = E + (|b|/2) zetatilde^2.
    """
    v = wtilde.values
    e = 0.5 * quad(GridFunction._wrap(wtilde.grid, v * v))
    f = e + 0.5 * abs(b) * zetatilde * zetatilde
    return Energies(E=e, F=f)


@dataclass(frozen=True)
class PEVerdict:
    """Outcome of the trailing-window persistent-excitation test.

    is_pe is True exactly when every one of the trailing window
    integrals exceeds the threshold in magnitude.
    """

    is_pe: bool
    window_integrals: tuple[float, ...]
    threshold: float
    tau: float

    def to_dict(self) -> dict:
        return {
            "is_pe": self.is_pe,
            "window_integrals": list(self.window_integrals),
            "threshold": self.threshold,
            "tau": self.tau,
        }


def pe_check(
    times: np.ndarray,
    values: np.ndarray,
    tau: float,
    threshold: float | None = None,
    windows: int = 5,
) -> PEVerdict:
    """Classify a sampled signal as persistently exciting or not.

    Computes the integral of the signal over the trailing ``windows``
    consecutive windows of length tau (ending at the final sample) by
    trapezoid quadrature of the piecewise-linear interpolant.  This is
    the finite-horizon surrogate for the limiting sliding-window
    condition: the verdict is PE iff the smallest window integral in
    magnitude stays above the threshold (default 1e-3 * tau).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or times.size < 2:
        raise ConfigError("pe_check needs matching 1-D times and values")
    if tau <= 0:
        raise ConfigError("tau must be > 0")
    if windows < 1:
        raise ConfigError("window count must be >= 1")
    duration = times[-1] - times[0]
    if duration + 1e-12 < windows * tau:
        raise InsufficientDuration(
            f"trace of length {duration} cannot hold {windows} windows of {tau}"
        )
    if threshold is None:
        threshold = 1e-3 * tau
    seg = 0.5 * (values[1:] + values[:-1]) * np.diff(times)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    t_end = times[-1]
    integrals = []
    for k in range(1, windows + 1):
        a = t_end - k * tau
        b = a + tau
        qa, qb = np.interp([a, b], times, cum)
        integrals.append(float(qb - qa))
    is_pe = min(abs(v) for v in integrals) > threshold
    return PEVerdict(
        is_pe=is_pe,
        window_integrals=tuple(integrals),
        threshold=float(threshold),
        tau=float(tau),
    )


def _cumtrapz(values: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * dx * (values[1:] + values[:-1]), out=out[1:])
    return out


def pi_transform(f: GridFunction, q: float) -> GridFunction:
    """Volterra kernel transform (Pi f)(x) = f(x) + q int_0^x e^{q(x-s)} f(s) ds.

    Evaluated as q e^{qx} times the cumulative trapezoid of e^{-qs} f(s),
    which keeps the cost linear in the node count.
    """
    x = f.grid.nodes
    g = np.exp(-q * x) * f.values
    inner = _cumtrapz(g, f.grid.dx)
    return GridFunction._wrap(f.grid, f.values + q * np.exp(q * x) * inner)


def pi_inverse(g: GridFunction, q: float) -> GridFunction:
    """Inverse kernel transform (Pi^-1 g)(x) = g(x) - q int_0^x g(s) ds."""
    inner = _cumtrapz(g.values, g.grid.dx)
    return GridFunction._wrap(g.grid, g.values - q * inner)


def upsilon_b(s: float, b: float) -> float:
    """Reciprocal-offset involution s -> 1/b - s (its own inverse)."""
    if b == 0:
        raise ZeroCoefficient("b must be nonzero")
    return 1.0 / b - s


#: real-axis absolute-stability bound of the classical 4th-order scheme
_RK4_REAL_STABILITY = 2.785


def galerkin_error_system(
    N: int,
    p: Params,
    u0_signal: Callable[[float], float],
    wtilde0: GridFunction,
    zetatilde0: float,
    t_final: float,
    dt_ode: float,
    sample_stride: int = 100,
) -> Trace:
    """Integrate the error dynamics spectrally, as an oracle for the FD route.

    The error field carries flux conditions at both ends (zero slope at
    x = 0, feedback flux at x = 1), so it is expanded over the modal
    family adapted to free boundary values,

        psi_0 = 1,  psi_j(x) = sqrt(2) cos(j pi x),  lambda_j = (j pi)^2,

    which is orthonormal in L2(0,1) and dense in H1 without pinning
    either endpoint.  (A family that vanishes at x = 0, such as the
    half-integer sines sqrt(2) sin((j - 1/2) pi x), has an H1 closure that
    forces a zero left-end value and therefore converges to the wrong
    boundary problem.)  Testing the dynamics against each psi_j gives
    the (N+1)-dimensional system

        a_j' = -lambda_j a_j - psi_j(1) [ b ztilde u0(t) + c1 wtilde_N(1,t) ]
        ztilde' = sign(b) u0(t) wtilde_N(1,t),   wtilde_N(1,t) = sum_j a_j psi_j(1)

    started from the quadrature projection of wtilde0 and advanced with
    the classical 4th-order one-step method.  The returned trace mirrors
    the finite-difference error-system schema: the ``zeta`` column holds
    the parameter error and ``wnorm``/``obs_err_norm`` both hold
    ||wtilde_N||, computed exactly from the coefficients.
    """
    if N < 1:
        raise ConfigError("need at least one mode")
    grid = wtilde0.grid
    lam = np.array([(j * math.pi) ** 2 for j in range(N)])
    if math.sqrt(lam[-1]) * grid.dx >= 1.0:
        raise UnresolvableMode(
            f"mode {N} needs dx < {1.0 / math.sqrt(lam[-1]):.4g}, grid has dx={grid.dx:.4g}"
        )
    if lam[-1] * dt_ode > _RK4_REAL_STABILITY:
        raise ConfigError(
            f"dt_ode={dt_ode} unstable for mode {N}; need dt_ode <= "
            f"{_RK4_REAL_STABILITY / lam[-1]:.3g}"
        )
    x = grid.nodes
    phi = np.ones((N, grid.n))
    phi[1:] = math.sqrt(2.0) * np.cos(np.sqrt(lam[1:, None]) * x[None, :])
    phi1 = np.ones(N)
    phi1[1:] = math.sqrt(2.0) * np.array([(-1.0) ** j for j in range(1, N)])
    # trapezoid projection of the initial error field onto the basis
    wts = np.full(grid.n, grid.dx)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    a = phi @ (wts * wtilde0.values)

    phi0 = np.full(N, math.sqrt(2.0))
    phi0[0] = 1.0
    b = p.b
    sgn = float(p.sign_b)
    c1 = p.c1
    half_b = 0.5 * abs(b)

    def rhs(t: float, a: np.ndarray, z: float) -> tuple[np.ndarray, float]:
        u0 = u0_signal(t)
        w1 = float(phi1 @ a)
        da = -lam * a - phi1 * (b * z * u0 + c1 * w1)
        dz = sgn * u0 * w1
        return da, dz

    n_steps = int(round(t_final / dt_ode))
    names = ("u0", "zeta", "w0", "w1", "wnorm", "obs_err_norm", "E", "F")
    rec = _Recorder(names, n_steps, sample_stride)

    def record(t: float, a: np.ndarray, z: float) -> None:
        e = 0.5 * float(a @ a)
        nrm = math.sqrt(2.0 * e)
        rec.row(t, (u0_signal(t), z, float(phi0 @ a), float(phi1 @ a),
                    nrm, nrm, e, e + half_b * z * z))

    z = float(zetatilde0)
    t = 0.0
    record(t, a, z)
    h = dt_ode
    for k in range(n_steps):
        k1a, k1z = rhs(t, a, z)
        k2a, k2z = rhs(t + h / 2, a + h / 2 * k1a, z + h / 2 * k1z)
        k3a, k3z = rhs(t + h / 2, a + h / 2 * k2a, z + h / 2 * k2z)
        k4a, k4z = rhs(t + h, a + h * k3a, z + h * k3z)
        a = a + h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
        z = z + h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
        t = (k + 1) * h
        if (k + 1) % sample_stride == 0 or k + 1 == n_steps:
            record(t, a, z)

    return rec.build(final_state=None)


@dataclass(frozen=True)
class QuantityDiag:
    terminal: float
    gap: float
    converged: bool


@dataclass(frozen=True)
class LimitSummary:
    """Terminal values and settle-window Cauchy gaps of trace quantities."""

    settle_window: float
    gap_tol: float
    quantities: dict[str, QuantityDiag]

    @property
    def all_converged(self) -> bool:
        return all(d.converged for d in self.quantities.values())

    def to_dict(self) -> dict:
        return {
            "settle_window": self.settle_window,
            "gap_tol": self.gap_tol,
            "all_converged": self.all_converged,
            "quantities": {
                k: {"terminal": d.terminal, "gap": d.gap, "converged": d.converged}
                for k, d in self.quantities.items()
            },
        }


def limit_diagnostics(
    trace: Trace,
    settle_window: float,
    gap_tol: float = 1e-3,
    quantities: Sequence[str] = ("zeta", "wnorm", "obs_err_norm"),
) -> LimitSummary:
    """Quantify apparent convergence of trace quantities.

    For each named quantity the Cauchy gap is max |x(t) - x(t_final)|
    over the trailing settle window; the quantity counts as converged
    when the gap is within gap_tol.  A blown-up trace is never
    converged.  Raises :class:`InsufficientDuration` when the trace is
    shorter than twice the settle window.
    """
    if settle_window <= 0:
        raise ConfigError("settle_window must be > 0")
    if trace.duration < 2.0 * settle_window:
        raise InsufficientDuration(
            f"trace duration {trace.duration} < 2 * settle window {settle_window}"
        )
    t = trace.times
    mask = t >= t[-1] - settle_window
    out: dict[str, QuantityDiag] = {}
    for name in quantities:
        series = trace[name]
        gap = float(np.abs(series[mask] - series[-1]).max())
        converged = gap <= gap_tol and not trace.blown_up
        out[name] = QuantityDiag(terminal=float(series[-1]), gap=gap, converged=converged)
    return LimitSummary(settle_window=settle_window, gap_tol=gap_tol, quantities=out)
