"""Verification instruments for the adaptive loop.

A finite-horizon persistent-excitation detector, the Volterra kernel
transform pair, a spectral Galerkin solver for the error dynamics (used
as an independent cross-check of the finite difference route), and
convergence diagnostics for trace records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import ConfigError, GridFunction, Params, Trace, _Recorder, _step_count
from .fdm import NonFiniteState
from .scenarios import _errors, _quiet

__all__ = [
    "PEVerdict", "InsufficientDuration", "UnresolvableMode", "pe_check", "pi_transform",
    "pi_inverse", "galerkin_error_system", "limit_diagnostics", "LimitSummary", "QuantityDiag",
]


class InsufficientDuration(ValueError):
    """The trace is too short for the requested windowed diagnostic."""


class UnresolvableMode(ValueError):
    """The requested mode count cannot be represented on the given grid."""


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
    if not tau > 0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    if threshold is not None and not 0 < threshold < math.inf:
        raise ConfigError(f"threshold must be finite and > 0, got {threshold}")
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


#: real-axis absolute-stability bound of the classical 4th-order scheme
_RK4_REAL_STABILITY = 2.785

#: the most samples that :func:`galerkin_error_system` keeps before it records them
_SAMPLE_CHUNK = 512
#: the columns of a :func:`galerkin_error_system` run's rows
_GALERKIN_COLUMNS = ("u0", "zeta", "w0", "w1", "wnorm", "obs_err_norm", "E", "F")


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

        a' = -lambda a - psi(1) s,   s = b ztilde u0(t) + c1 wtilde_N(1,t)
        ztilde' = sign(b) u0(t) wtilde_N(1,t),   wtilde_N(1,t) = psi(1) . a,

    started from the quadrature projection of wtilde0 and advanced by
    classical RK4 with step h.  As -lambda is diagonal, each stage value
    is alpha_i * a plus multiples of psi(1) s_j (j < i), with coefficients
    found once by running the stage recursion on coefficient vectors.  A
    step is one (5, N) matvec for wtilde_N(0) and the stage values of
    wtilde_N(1) (less P_ij s_j), Python-float fluxes and ztilde stages,
    and a <- R * a + V s (R: the RK4 amplification of -h lambda); u0 is
    evaluated at t + h/2 and t + h.  As in the FD error system, ``zeta``
    is the parameter error and ``wnorm`` = ``obs_err_norm`` = ||wtilde_N||.
    A non-finite flux raises ConfigError, a NaN/Inf state NonFiniteState.
    """
    if N < 1:
        raise ConfigError("need at least one mode")
    n_steps = _step_count(dt_ode, t_final)
    grid = wtilde0.grid
    # the top eigenvalue, checked before any array of N values is built
    lam_top = ((N - 1) * math.pi) ** 2
    if math.sqrt(lam_top) * grid.dx >= 1.0:
        raise UnresolvableMode(
            f"mode {N} needs dx < {1.0 / math.sqrt(lam_top):.4g}, grid has dx={grid.dx:.4g}"
        )
    if lam_top * dt_ode > _RK4_REAL_STABILITY:
        bound = _RK4_REAL_STABILITY / lam_top
        raise ConfigError(f"dt_ode={dt_ode} unstable for mode {N}; need dt_ode <= {bound:.3g}")
    lam = np.array([(j * math.pi) ** 2 for j in range(N)])
    phi = np.ones((N, grid.n))
    phi[1:] = math.sqrt(2.0) * np.cos(np.sqrt(lam[1:, None]) * grid.nodes[None, :])
    phi1 = phi[:, 0] * np.sign(phi[:, -1])  # psi_j(1) = (-1)^j psi_j(0)
    # trapezoid projection of the initial error field onto the basis
    wts = np.full(grid.n, grid.dx)
    wts[[0, -1]] *= 0.5
    a = phi @ (wts * wtilde0.values)

    h = dt_ode
    # each mode's stage values and step, as coefficients of (a, s_1..s_4)
    ident = np.eye(1, 5).repeat(N, axis=0)
    stage, acc, rows, pairs = ident, np.zeros((N, 5)), [phi[:, 0]], []
    for i, (c, w) in enumerate(((h / 2, 1.0), (h / 2, 2.0), (h, 2.0), (0.0, 1.0))):
        rows.append(phi1 * stage[:, 0])
        pairs.extend((phi1 @ stage[:, 1 : i + 1]).tolist())
        slope = -lam[:, None] * stage
        slope[:, i + 1] -= phi1
        acc += w * slope
        stage = ident + c * slope
    step = ident + h / 6 * acc
    R, V, M = step[:, 0].copy(), np.ascontiguousarray(step[:, 1:]), np.array(rows)
    p21, p31, p32, p41, p42, p43 = pairs

    b, sgn, c1, half_b = p.b, float(p.sign_b), p.c1, 0.5 * abs(p.b)
    rec = _Recorder(_GALERKIN_COLUMNS, n_steps, sample_stride, mapped=True)
    z, u, hh, h6 = float(zetatilde0), u0_signal(0.0), h / 2, h / 6
    # the fluxes s_1..s_4 of a step and V s, and the samples not yet recorded:
    # each is t, u0, ztilde, wtilde_N(0), wtilde_N(1) and ||a||^2
    s, vs, kept = np.empty(4), np.empty(N), []
    keep, v_dot, multiply, add = kept.append, V.dot, np.multiply, np.add

    def flush() -> None:
        chunk = np.array(kept)
        out = rec.rows(len(kept))
        out[:, :5] = chunk[:, :5]
        _errors(out[:, 6:9], chunk[:, 5], chunk[:, 2], half_b)
        out[:, 5] = out[:, 6]
        kept.clear()

    with _quiet():
        m = M.dot(a).tolist()
        for k in range(n_steps + 1):
            if k % sample_stride == 0 or k == n_steps:
                keep((k * h, u, z, m[0], m[1], a.dot(a)))
                if len(kept) == _SAMPLE_CHUNK or k == n_steps:
                    flush()
            if k == n_steps:
                break
            _, w1, w2, w3, w4 = m
            um = u0_signal(k * h + hh)
            s1, k1 = b * z * u + c1 * w1, sgn * u * w1
            w2 += p21 * s1
            s2, k2 = b * (z + hh * k1) * um + c1 * w2, sgn * um * w2
            w3 += p31 * s1 + p32 * s2
            s3, k3 = b * (z + hh * k2) * um + c1 * w3, sgn * um * w3
            u = u0_signal((k + 1) * h)
            w4 += p41 * s1 + p42 * s2 + p43 * s3
            s4 = b * (z + h * k3) * u + c1 * w4
            if not (math.isfinite(s1) and math.isfinite(s2)
                    and math.isfinite(s3) and math.isfinite(s4)):
                raise ConfigError("boundary fluxes must be finite")
            s[0], s[1], s[2], s[3] = s1, s2, s3, s4
            # a = R * a + V s, in place
            v_dot(s, vs)
            multiply(R, a, a)
            add(a, vs, a)
            z = z + h6 * (k1 + 2 * k2 + 2 * k3 + sgn * u * w4)
            m = M.dot(a).tolist()
            if not (math.isfinite(m[0]) and math.isfinite(z)):
                raise NonFiniteState("heat step produced non-finite values")
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
    if not settle_window > 0:
        raise ConfigError(f"settle_window must be > 0, got {settle_window}")
    if not 0 <= gap_tol < math.inf:
        raise ConfigError(f"gap_tol must be finite and >= 0, got {gap_tol}")
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
