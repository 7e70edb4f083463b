"""Core value types shared by every other module.

Physical/controller constants, grid geometry, spatial profiles, run
configuration, reference signals and the time-indexed trace record,
with the trace.csv format that writes and reads it.  All types are
immutable after construction and validate their own invariants, so no
partially valid value can escape this module.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .csvformat import write_csv

__all__ = [
    "ConfigError",
    "CflViolation",
    "Params",
    "EstimatorParams",
    "Grid",
    "GridFunction",
    "SimConfig",
    "ReferenceSignal",
    "Trace",
    "validate_config",
    "write_trace_csv",
    "read_trace_csv",
]


class ConfigError(ValueError):
    """A constructed value violates one of the documented invariants."""


class CflViolation(ConfigError):
    """Time step above dx^2/2, where the explicit step is unstable.

    The bound dt <= dx^2/2 is necessary but not sufficient: where a
    field's own boundary value enters its flux (the observer's ``c1`` term
    and the feedback), the step turns unstable below it, so a run inside
    the bound can still blow up numerically and end as a blow-up (README,
    CLI).
    """


#: the largest servo series truncation: the series needs (2J + 3)! as a float
MAX_SERVO_J = 83


def _check_gains(p: Params | EstimatorParams) -> None:
    """Raise :class:`ConfigError` unless q, c0 and c1 are finite and > 0."""
    for name in ("q", "c0", "c1"):
        value = getattr(p, name)
        if not value > 0:
            raise ConfigError(f"{name} must be > 0, got {value}")
        if value == math.inf:
            raise ConfigError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class EstimatorParams:
    """Constants visible to the observer and the adaptive controller.

    Deliberately does not carry the control coefficient b.  Only its
    sign is assumed known on this side of the loop; everything built
    from an EstimatorParams is guaranteed by construction never to
    read b itself.
    """

    q: float
    sign_b: int
    c0: float
    c1: float

    def __post_init__(self) -> None:
        _check_gains(self)
        if self.sign_b not in (-1, 1):
            raise ConfigError(f"sign_b must be +1 or -1, got {self.sign_b}")


@dataclass(frozen=True)
class Params:
    """Full parameter set of the plant: the "plant view".

    q : boundary convection gain (> 0), the destabilizing term
    b : true control coefficient (!= 0); hidden from estimator paths
    c0 : controller gain (> 0)
    c1 : observer injection gain (> 0)

    Simulation code that plays the role of the physical plant receives
    this type.  Observer and controller code must go through
    :meth:`estimator_view`, which strips b.
    """

    q: float
    b: float
    c0: float
    c1: float

    def __post_init__(self) -> None:
        _check_gains(self)
        if self.b == 0 or not math.isfinite(self.b):
            raise ConfigError(f"b must be nonzero and finite, got {self.b}")
        if not math.isfinite(1.0 / self.b):
            raise ConfigError(f"b={self.b} has no finite reciprocal 1/b, which zeta estimates")

    @property
    def sign_b(self) -> int:
        """The sign of b, +1 or -1: all that the estimator knows of b."""
        return 1 if self.b > 0 else -1

    def estimator_view(self) -> EstimatorParams:
        """Parameters with b redacted; all that the estimator may see."""
        return EstimatorParams(q=self.q, sign_b=self.sign_b, c0=self.c0, c1=self.c1)


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with n nodes, x_i = i/(n-1)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ConfigError(f"grid needs at least 3 nodes, got {self.n}")

    @property
    def dx(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        # linspace pins both endpoints exactly and matches i*dx to <= 2 ulp
        x = np.linspace(0.0, 1.0, self.n)
        x.flags.writeable = False
        return x

    @classmethod
    def from_dx(cls, dx: float) -> "Grid":
        if not dx > 0:
            raise ConfigError(f"dx must be > 0, got {dx}")
        n_float = 1.0 / dx + 1.0
        if not math.isfinite(n_float):
            raise ConfigError(f"dx={dx} gives more grid nodes than a float can count")
        n = int(round(n_float))
        if abs(n_float - n) > 1e-9:
            raise ConfigError(f"dx={dx} does not divide [0,1] into whole cells")
        return cls(n)


class GridFunction:
    """A real-valued spatial profile sampled on a :class:`Grid`.

    Values are copied on construction, checked finite, and frozen.
    Instances are safe to share between runs and threads.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values) -> None:
        arr = np.array(values, dtype=float)
        if arr.shape != (grid.n,):
            raise ConfigError(
                f"values shape {arr.shape} does not match grid with {grid.n} nodes"
            )
        if not np.isfinite(arr).all():
            raise ConfigError("GridFunction values must all be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    @classmethod
    def _wrap(cls, grid: Grid, arr: np.ndarray) -> "GridFunction":
        # internal fast path: arr is freshly allocated, finite by caller's check
        obj = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(obj, "grid", grid)
        object.__setattr__(obj, "values", arr)
        return obj

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float))

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls._wrap(grid, np.zeros(grid.n))

    def __repr__(self) -> str:
        return f"GridFunction(n={self.grid.n}, range=[{self.values.min():.3g}, {self.values.max():.3g}])"


@dataclass(frozen=True)
class SimConfig:
    """Discretization, horizon and diagnostic settings for one run.

    dt must satisfy dt <= dx^2/2, which the explicit scheme's stability
    needs but which does not ensure it where a Robin or feedback term
    enters a flux (see :class:`CflViolation`), and divide t_final into a
    whole number of steps (to a relative 1e-9).
    snapshot_stride == 0 disables field snapshots entirely.
    """

    dt: float
    t_final: float
    grid: Grid
    servo_truncation_J: int = 12
    pe_window_tau: float = 1.0
    pe_threshold: float = 1e-3
    sample_stride: int = 100
    snapshot_stride: int = 0

    def __post_init__(self) -> None:
        dx = self.grid.dx
        if self.dt > dx * dx / 2.0:
            raise CflViolation(
                f"dt={self.dt} violates dt <= dx^2/2 = {dx * dx / 2.0}"
            )
        _step_count(self.dt, self.t_final)
        if not (self.pe_window_tau > 0):
            raise ConfigError(f"pe_window_tau must be > 0, got {self.pe_window_tau}")
        if self.pe_window_tau > self.t_final:
            raise ConfigError(
                f"pe_window_tau={self.pe_window_tau} exceeds t_final={self.t_final}"
            )
        if not (self.pe_threshold > 0):
            raise ConfigError(f"pe_threshold must be > 0, got {self.pe_threshold}")
        if self.pe_threshold == math.inf:
            raise ConfigError(f"pe_threshold must be finite, got {self.pe_threshold}")
        if self.servo_truncation_J < 0:
            raise ConfigError("servo_truncation_J must be >= 0")
        if self.servo_truncation_J > MAX_SERVO_J:
            raise ConfigError(
                f"servo_truncation_J must be <= {MAX_SERVO_J}, got {self.servo_truncation_J}"
            )
        if self.sample_stride < 1:
            raise ConfigError("sample_stride must be >= 1")
        if self.snapshot_stride < 0:
            raise ConfigError("snapshot_stride must be >= 0")

    @property
    def n_steps(self) -> int:
        return _step_count(self.dt, self.t_final)


def _step_count(dt: float, t_final: float) -> int:
    """The number of steps of dt in t_final.

    Raises ConfigError unless dt > 0 and t_final is finite and holds at
    least one step and a whole number of them (to a relative 1e-9), a
    number that ``t_final / dt`` gives as a finite float.
    """
    if not (dt > 0):
        raise ConfigError(f"dt must be > 0, got {dt}")
    if not math.isfinite(t_final):
        raise ConfigError(f"t_final must be finite, got {t_final}")
    if t_final < dt:
        raise ConfigError(f"t_final={t_final} shorter than one step")
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ConfigError(f"t_final={t_final} holds more steps of dt={dt} than a float can count")
    n = int(round(ratio))
    if abs(n * dt - t_final) > 1e-9 * t_final:
        raise ConfigError(f"t_final={t_final} is not a whole number of steps of dt={dt}")
    return n


def validate_config(p: Params, c: SimConfig) -> None:
    """Re-check every Params/SimConfig invariant, raising on the first violation.

    Construction already enforces these; this entry point exists so
    callers holding possibly stale or externally deserialized values can
    re-validate explicitly.  Raises CflViolation or ConfigError
    accordingly; returns None when valid.
    """
    Params(q=p.q, b=p.b, c0=p.c0, c1=p.c1)
    SimConfig(
        dt=c.dt,
        t_final=c.t_final,
        grid=c.grid,
        servo_truncation_J=c.servo_truncation_J,
        pe_window_tau=c.pe_window_tau,
        pe_threshold=c.pe_threshold,
        sample_stride=c.sample_stride,
        snapshot_stride=c.snapshot_stride,
    )


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference r(t) with all time derivatives available in closed form.

    kinds:
      zero                 r(t) = 0
      constant             r(t) = value
      sinusoid             r(t) = amplitude * sin(omega * t)

    derivative(j, t) returns r^(j)(t); the built-ins keep every
    derivative uniformly bounded in t.  For sinusoids with omega > 1 the
    supremum over all derivative orders is unbounded; that case is still
    computable for any finite truncation and is flagged by
    :attr:`uniformly_bounded` so callers can surface the caveat.
    """

    kind: str
    value: float = 0.0
    amplitude: float = 0.0
    omega: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "constant", "sinusoid"):
            raise ConfigError(f"unknown reference kind {self.kind!r}")
        if self.kind == "sinusoid" and not (
            math.isfinite(self.amplitude) and math.isfinite(self.omega)
        ):
            raise ConfigError("sinusoid parameters must be finite")
        if self.kind == "constant" and not math.isfinite(self.value):
            raise ConfigError("constant reference value must be finite")

    @classmethod
    def zero(cls) -> "ReferenceSignal":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value: float) -> "ReferenceSignal":
        return cls(kind="constant", value=value)

    @classmethod
    def sinusoid(cls, amplitude: float, omega: float) -> "ReferenceSignal":
        return cls(kind="sinusoid", amplitude=amplitude, omega=omega)

    def derivative(self, j: int, t: float) -> float:
        """j-th time derivative of the reference at time t (j = 0 is r itself)."""
        if j < 0:
            raise ValueError("derivative order must be >= 0")
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value if j == 0 else 0.0
        return self.amplitude * self.omega**j * math.sin(self.omega * t + j * math.pi / 2.0)

    @property
    def uniformly_bounded(self) -> bool:
        """True when sup over t and over all derivative orders is finite."""
        if self.kind == "sinusoid":
            return abs(self.omega) <= 1.0 or self.amplitude == 0.0
        return True

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "constant":
            d["value"] = self.value
        elif self.kind == "sinusoid":
            d["amplitude"] = self.amplitude
            d["omega"] = self.omega
        return d


#: scalar columns recorded at every sample instant, in CSV order
TRACE_COLUMNS = ("u0", "u", "zeta", "w0", "w1", "wnorm", "obs_err_norm", "E", "F")


@dataclass(frozen=True)
class Trace:
    """Time-indexed record of one simulation run.

    times are strictly increasing and every recorded scalar is finite.
    ``scalars`` holds one array per name in :data:`TRACE_COLUMNS`;
    ``extras`` carries scenario-specific series (e.g. tracking error,
    servo boundary slope) that are not part of the CSV contract.
    ``snapshots`` is a list of (t, {field_name: values}) pairs.
    ``times`` and every column are read-only views of the arrays given,
    and ``scalars`` and ``extras`` read-only mappings, so the checks made
    here hold for the Trace's lifetime without a copy.
    """

    times: np.ndarray
    scalars: Mapping[str, np.ndarray]
    extras: Mapping[str, np.ndarray] = field(default_factory=dict)
    snapshots: list[tuple[float, dict[str, np.ndarray]]] = field(default_factory=list)
    final_state: object | None = None
    blow_up_time: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _read_only(self.times))
        if self.times.size == 0:
            raise ConfigError("Trace needs at least one sample")
        if self.times.size > 1 and not (np.diff(self.times) > 0).all():
            raise ConfigError("Trace times must be strictly increasing")
        for name in TRACE_COLUMNS:
            if name not in self.scalars:
                raise ConfigError(f"Trace missing scalar column {name!r}")
        for key in ("scalars", "extras"):
            columns = {name: _read_only(arr) for name, arr in getattr(self, key).items()}
            for name, arr in columns.items():
                if arr.shape != self.times.shape:
                    raise ConfigError(f"column {name!r} length mismatch")
                if not np.isfinite(arr).all():
                    raise ConfigError(f"column {name!r} contains non-finite samples")
            object.__setattr__(self, key, MappingProxyType(columns))

    @property
    def blown_up(self) -> bool:
        """Whether the run ended at a blow-up, at :attr:`blow_up_time`."""
        return self.blow_up_time is not None

    def __getitem__(self, name: str) -> np.ndarray:
        if name in self.scalars:
            return self.scalars[name]
        return self.extras[name]

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def terminal(self, name: str) -> float:
        return float(self[name][-1])


def _read_only(values) -> np.ndarray:
    """A read-only float view of ``values``, which stay writeable where they were."""
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


@contextmanager
def _allocating(shape: tuple[int, ...], what: str, remedy: str):
    """Turn a refused allocation of ``shape`` floats, made within, into a ConfigError."""
    try:
        yield
    except (MemoryError, OSError) as exc:
        raise ConfigError(
            f"cannot allocate {8 * math.prod(shape) / 2**30:.3g} GiB for the run's "
            f"{what}: {remedy}"
        ) from exc


class _Recorder:
    """Writes per-sample rows and snapshots into arrays preallocated for the run.

    Every row holds the sample time and then the values of ``names``, in
    that order.  The array has room for a sample every ``stride`` of
    ``n_steps`` steps plus the first and the last; no page that no row
    reaches is touched, so a run that ends early costs nothing more.  It
    is column-major, so each column of the built Trace is a contiguous
    view of it.  With ``mapped`` the array is an anonymous memory mapping,
    so its pages go back to the system when the trace is dropped; malloc
    can instead leave a large freed array behind as a heap hole that a
    later, larger buffer cannot use.  With a ``snapshot_stride``, a second
    array has room for a snapshot every ``snapshot_stride`` steps plus the
    last, each of ``fields`` fields of ``n`` values, and each snapshot's
    fields are views of it.  An array that the system refuses, under a
    memory limit, raises :class:`ConfigError` naming its size, before the
    run takes its first step.
    """

    def __init__(self, names: tuple[str, ...], n_steps: int, stride: int, mapped: bool = False,
                 snapshot_stride: int = 0, fields: int = 0, n: int = 0):
        self.names = names
        shape = (n_steps // stride + 2, 1 + len(names))
        with _allocating(shape, "samples", "raise --sample-stride or shorten --t-final"):
            buf = None
            if mapped:
                import mmap  # loaded only by the runs that map their samples

                buf = mmap.mmap(-1, 8 * shape[0] * shape[1])
            self.data = np.ndarray(shape, order="F", buffer=buf)
        self.size = 0
        self.snapshots: list[tuple[float, dict[str, np.ndarray]]] = []
        self._snaps = None
        if snapshot_stride:
            shape = (n_steps // snapshot_stride + 2, fields, n)
            with _allocating(shape, "snapshots", "raise --snapshot-stride or shorten --t-final"):
                self._snaps = np.empty(shape)

    def rows(self, m: int) -> np.ndarray:
        """The next m rows, recorded as samples: the caller fills in t and the values."""
        i = self.size
        self.size = i + m
        return self.data[i : i + m]

    def snap(self, t: float, fields: dict[str, np.ndarray]) -> None:
        """Record a snapshot: copies of ``fields`` at time t, in the next slot."""
        slot = self._snaps[len(self.snapshots)]
        slot[:] = tuple(fields.values())
        self.snapshots.append((t, dict(zip(fields, slot))))

    def build(self, final_state, blow_up_time=None) -> Trace:
        """The Trace of the rows recorded.

        A TRACE_COLUMNS entry missing from ``names`` is zero; the other
        names become the extras.
        """
        data = self.data[: self.size]
        cols = dict(zip(self.names, data.T[1:]))
        scalars = {k: cols.pop(k) if k in cols else np.zeros(self.size) for k in TRACE_COLUMNS}
        return Trace(
            times=data[:, 0],
            scalars=scalars,
            extras=cols,
            snapshots=self.snapshots,
            final_state=final_state,
            blow_up_time=blow_up_time,
        )


def write_trace_csv(trace: Trace, out: Path) -> dict[str, str]:
    """Write trace.csv, and snapshots.csv if the trace has snapshots, into out.

    trace.csv holds the header ``t`` + TRACE_COLUMNS and one row per
    sample; snapshots.csv holds ``t,x,w,what`` rows, one per node of each
    snapshot.  Values print as ``"%.17g" % v`` does: 17 significant digits,
    which round-trips float64 bit-exactly.  Lines end in LF.  Returns the
    paths by key.
    """
    trace_path = out / "trace.csv"
    columns = [trace.times, *(trace.scalars[c] for c in TRACE_COLUMNS)]
    write_csv(trace_path, "t," + ",".join(TRACE_COLUMNS), [columns])
    paths = {"trace_csv": str(trace_path)}
    if trace.snapshots:
        snap_path = out / "snapshots.csv"
        # the fields are w and what, in that order; runs without an observer
        # leave the what column empty
        blocks = ([t, np.linspace(0.0, 1.0, f["w"].size), *f.values()]
                  for t, f in trace.snapshots)
        write_csv(snap_path, "t,x,w,what", blocks, "what" not in trace.snapshots[0][1])
        paths["snapshots_csv"] = str(snap_path)
    return paths


def read_trace_csv(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Parse an emitted trace.csv back into (times, column arrays).

    The body is parsed by numpy's C reader, which holds no Python object
    per value.  Raises ConfigError when the file is not text, lacks a
    column of the trace.csv header, has no samples, or has a row of the
    wrong length or with a non-numeric value, which it names by line.
    """
    try:
        with open(path) as fh:
            first = fh.readline().rstrip("\n")
            header = first.split(",")
            missing = [c for c in ("t", *TRACE_COLUMNS) if c not in header]
            if header[0] != "t" or missing:
                raise ConfigError(f"{path}: unexpected header {first!r}, missing {missing}")
            # the number of lines lets numpy allocate the array once instead of
            # growing it a quarter at a time to up to 1.25x its size; one too
            # many would make it shrink the array afterwards, and the freed
            # block then falls short of the next read of as many rows
            body, rows, last = fh.tell(), 0, "\n"
            for block in iter(lambda: fh.read(1 << 16), ""):
                rows, last = rows + block.count("\n"), block[-1]
            fh.seek(body)
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    warnings.filterwarnings("ignore", "Input line .* contained no data")
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                                      max_rows=max(rows + (last != "\n"), 1))
                # an empty body parses as shape (0, 1); a row of any other
                # width is one that _bad_trace_row names
                if data.shape[1] != len(header):
                    raise ValueError("no samples")
            except ValueError as exc:
                fh.seek(0)
                raise _bad_trace_row(path, fh, len(header), exc) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file: {exc}") from exc
    cols = dict(zip(header, data.T))
    return cols.pop("t"), cols


def _bad_trace_row(path, lines, width: int, exc: ValueError) -> ConfigError:
    """Name the first row after the header that is not ``width`` numbers, else ``exc``."""
    for lineno, line in enumerate(lines, start=1):
        fields = line.rstrip("\n").split(",")
        if lineno == 1 or fields == [""]:
            continue
        try:
            if len(fields) != width:
                raise ValueError(f"{len(fields)} values, header has {width}")
            [float(v) for v in fields]
        except ValueError as err:
            return ConfigError(f"{path}:{lineno}: {err}")
    return ConfigError(f"{path}: {exc}")
