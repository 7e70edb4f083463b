"""Command-line front end: run scenarios, emit CSV traces and JSON manifests.

Commands:
  simulate   run one scenario, write trace.csv (+ snapshots.csv) and manifest.json
  analyze    post-process an emitted trace.csv (PE verdict, convergence gaps)
  sweep      run simulate over a list of values of one parameter

Exit codes: 0 success, 2 CFL violation, 3 blow-up (also a state that
turned NaN/Inf, and a numerical blow-up of a dt that passes the CFL
check, which is necessary but not sufficient for stability), 4 requested
verdict gate failed, 64 usage or other configuration error.

trace.csv carries the fixed header t,u0,u,zeta,w0,w1,wnorm,obs_err_norm,E,F,
one row per sample, decimal values with 17 significant digits, LF newlines;
that format round-trips float64 bit-exactly.  Config files are flat
``key = value`` lines whose keys equal the long flag names, checked
against the same types and choices as the flags; explicit flags
override file values.  The environment variable HEATADAPT_OUT
supplies the default output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, scenarios
from .analysis import (
    InsufficientDuration,
    UnresolvableMode,
    galerkin_error_system,
    limit_diagnostics,
    pe_check,
)
from .control import TruncationInsufficient
from .domain import (
    CflViolation,
    ConfigError,
    Grid,
    GridFunction,
    Params,
    ReferenceSignal,
    SimConfig,
    Trace,
    TRACE_COLUMNS,
    read_trace_csv,
    validate_config,
    write_trace_csv,
)
from .fdm import NonFiniteState
from .scenarios import (
    benchmark_initial_state,
    check_record_size,
    run_error_system,
    run_observer,
    run_open_loop,
    run_stabilization,
    run_tracking,
)

__all__ = ["RunManifest", "parse_args", "emit_trace", "read_trace_csv", "main", "UsageError"]


class _Setup(NamedTuple):
    """One simulate run, resolved and checked, that has not run yet."""

    resolved: dict
    scenario: _Scenario
    params: Params
    config: SimConfig
    ref: ReferenceSignal
    u0_signal: Callable[[float], float]
    w0: GridFunction
    #: the observer's initial field, zero
    what0: GridFunction
    #: the output directory and its parents that the set-up made, deepest first
    made: list[Path]


class _Scenario(NamedTuple):
    """What the CLI knows of one scenario."""

    #: runs the set-up and returns its trace
    run: Callable[[_Setup], Trace]
    #: the runner's columns past t, and the fields of each of its snapshots
    columns: tuple[str, ...]
    snapshot_fields: int
    #: which of "ref", "u0" and "modes" the run takes, and so the manifest records
    inputs: tuple[str, ...] = ()
    #: the verdicts the run adds to the common ones, and its frozen tolerances
    verdicts: Callable[[_Setup, Trace], dict] | None = None
    tolerances: dict | None = None


def _pe_verdict(trace: Trace, column: str, config: SimConfig) -> dict | None:
    """The PE check of one column over the run's window; None if the run is shorter."""
    try:
        return pe_check(trace.times, trace[column], tau=config.pe_window_tau,
                        threshold=config.pe_threshold).to_dict()
    except InsufficientDuration:
        return None


#: every scenario, in --scenario's order; each runner looks its function up in
#: this module when it runs, so a wrapper set here (bench/tracer.py) is what runs.
#: No CLI output holds diss_cum, so no run records it; ``columns`` are the
#: columns each run records, which check_record_size counts
_SCENARIOS = {
    "open-loop": _Scenario(lambda r: run_open_loop(r.params, r.config, r.w0),
                           scenarios._OPEN_LOOP_COLUMNS, 1),
    "observer": _Scenario(
        lambda r: run_observer(r.params, r.config, r.w0, r.what0, r.resolved["zeta0"],
                               r.u0_signal, diss_cum=False),
        TRACE_COLUMNS, 2, ("u0",)),
    "stabilize": _Scenario(
        lambda r: run_stabilization(r.params, r.config, r.w0, r.what0, r.resolved["zeta0"],
                                    diss_cum=False),
        TRACE_COLUMNS, 2, tolerances={
            "wnorm_final": 1e-2,
            "obs_err_norm_final": 1e-3,
            "zeta_settle_gap": 1e-4,
            # |zeta(t_final) - 1/b| over the settle gap: without PE, zeta settles
            # at a value distinct from 1/b by this multiple of its own drift
            "zeta_offset_over_settle_gap_min": 1e3}),
    "track": _Scenario(
        lambda r: run_tracking(r.params, r.config, r.w0, r.what0, r.resolved["zeta0"], r.ref),
        scenarios._TRACKING_COLUMNS, 2, ("ref",),
        lambda r, trace: {"tracking_err_final": trace.terminal("tracking_err"),
                          "pe_vx1": _pe_verdict(trace, "vx1", r.config),
                          "reference_uniformly_bounded": r.ref.uniformly_bounded},
        {"tracking_err_final": 0.03, "zeta_reciprocal_final": 0.005}),
    "error-system": _Scenario(
        lambda r: run_error_system(r.params, r.config, r.w0, r.resolved["zeta0"], r.u0_signal,
                                   diss_cum=False),
        scenarios._ERROR_SYSTEM_COLUMNS, 1, ("u0",)),
    "galerkin": _Scenario(
        lambda r: galerkin_error_system(
            N=r.resolved["modes"], p=r.params, u0_signal=r.u0_signal, wtilde0=r.w0,
            zetatilde0=r.resolved["zeta0"], t_final=r.config.t_final, dt_ode=r.config.dt,
            sample_stride=r.config.sample_stride),
        analysis._GALERKIN_COLUMNS, 0, ("u0", "modes")),
}

SCENARIOS = tuple(_SCENARIOS)

#: frozen per-scenario verdict tolerances, recorded in every manifest
ACCEPTANCE_TOLERANCES = {name: s.tolerances for name, s in _SCENARIOS.items() if s.tolerances}


class UsageError(Exception):
    """Bad command line or config file; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


@dataclass
class RunManifest:
    """Everything needed to reproduce and gate one run."""

    scenario: str
    params: dict
    config: dict
    reference: dict | None
    u0_signal: str | None
    init: str
    zeta0: float
    tool_version: str
    duration_s: float
    #: rows written to trace.csv; None in manifests written before the field
    samples: int | None = None
    #: "operator", "operator-batch" or "stencil", what stepped the run (None
    #: for galerkin), and the step from which an operator run went on on the
    #: stencil, if it did
    route: str | None = None
    handover_step: int | None = None
    outputs: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(**d)

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


class _Flag(NamedTuple):
    """One simulate/sweep flag; its name is also its config-file key."""

    name: str
    type: type
    default: object
    help: str | None = None
    choices: tuple | None = None


#: the only declaration of the simulate/sweep flags: it builds the parser,
#: the config-file reader, the resolved defaults and the sweep's --param choices
_SIM_FLAGS = (
    _Flag("scenario", str, "stabilize", None, SCENARIOS),
    _Flag("q", float, 2.0, "boundary convection gain (> 0)"),
    _Flag("b", float, -10.0, "true control coefficient (nonzero)"),
    _Flag("c0", float, 5.0, "controller gain (> 0)"),
    _Flag("c1", float, 5.0, "observer injection gain (> 0)"),
    _Flag("dx", float, 0.02, "grid spacing, must divide [0,1]"),
    _Flag("dt", float, 1e-4, "time step, needs dt <= dx^2/2; that is necessary but not "
          "sufficient for stability, and a dt close to it can blow up numerically (exit 3)"),
    _Flag("t-final", float, 5.0),
    _Flag("ref", str, "zero", "zero | const:R | sin:A,W"),
    _Flag("zeta0", float, 0.0, "initial estimate (error scenarios: initial error)"),
    _Flag("init", str, "paper", "paper (q x - 1) | zero | file:PATH"),
    _Flag("u0", str, "zero", "zero | const:C | exp-decay (observer/error scenarios)"),
    _Flag("pe-tau", float, None, "PE window length (default min(1, t-final))"),
    _Flag("pe-threshold", float, 1e-3),
    _Flag("modes", int, 16, "mode count for the galerkin scenario"),
    _Flag("servo-j", int, 12, "servo series truncation"),
    _Flag("sample-stride", int, 100),
    _Flag("snapshot-stride", int, 0),
    _Flag("out", str, None, "output directory (default $HEATADAPT_OUT or ./runs)"),
)


def _add_sim_flags(sp: argparse.ArgumentParser) -> None:
    for flag in _SIM_FLAGS:
        sp.add_argument(f"--{flag.name}", type=flag.type, choices=flag.choices, help=flag.help)
    sp.add_argument("--config", help="flat key = value file; flags override it")
    sp.add_argument("--require-converged", action="store_true",
                    help="exit 4 unless all tracked quantities converged")


def _build_parser() -> _Parser:
    parser = _Parser(prog="heatadapt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"heatadapt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and emit its trace")
    _add_sim_flags(sim)

    an = sub.add_parser("analyze", help="post-process an emitted trace.csv")
    an.add_argument("--trace", required=True, help="path to trace.csv")
    an.add_argument("--pe-tau", type=float, dest="pe_tau", default=1.0)
    an.add_argument("--pe-threshold", type=float, dest="pe_threshold", default=None)
    an.add_argument("--pe-windows", type=int, dest="pe_windows", default=5)
    an.add_argument("--settle-window", type=float, dest="settle_window", default=1.0)
    an.add_argument("--gap-tol", type=float, dest="gap_tol", default=1e-3)
    an.add_argument("--out", help="directory for analysis.json (default: stdout only)")
    an.add_argument("--require-converged", action="store_true", dest="require_converged")

    sw = sub.add_parser("sweep", help="run simulate over a list of parameter values")
    _add_sim_flags(sw)
    floats = sorted(flag.name for flag in _SIM_FLAGS if flag.type is float)
    sw.add_argument("--param", required=True, choices=floats)
    sw.add_argument("--values", required=True, help="comma-separated values of --param")
    return parser


def _read_config_file(path: str) -> dict:
    """Read ``key = value`` lines, cast and checked like the flag of that name."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    flags = {flag.name: flag for flag in _SIM_FLAGS}
    resolved = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in flags:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        flag = flags[key]
        try:
            resolved[key] = flag.type(value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        if flag.choices is not None and resolved[key] not in flag.choices:
            allowed = ", ".join(map(repr, flag.choices))
            raise UsageError(f"{path}:{lineno}: invalid {key} {value!r} (choose from {allowed})")
    return resolved


def _resolve_sim(args: argparse.Namespace) -> dict:
    """Layer defaults, config file and explicit flags into one dict."""
    resolved = {flag.name: flag.default for flag in _SIM_FLAGS}
    if args.config:
        resolved.update(_read_config_file(args.config))
    for flag in _SIM_FLAGS:
        val = getattr(args, flag.name.replace("-", "_"))
        if val is not None:
            resolved[flag.name] = val
    if resolved["out"] is None:
        resolved["out"] = os.environ.get("HEATADAPT_OUT", "runs")
    resolved["require-converged"] = args.require_converged
    return resolved


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """Parse argv into (command, fully resolved configuration dict)."""
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return "simulate", _resolve_sim(args)
    if args.command == "sweep":
        resolved = _resolve_sim(args)
        resolved["param"] = args.param
        try:
            resolved["values"] = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --values: {exc}") from exc
        if not resolved["values"]:
            raise UsageError("--values is empty")
        for v in resolved["values"]:
            if not math.isfinite(v):
                raise UsageError(f"--values holds {v!r}: every value must be finite")
        if len(set(resolved["values"])) != len(resolved["values"]):
            raise UsageError(f"--values repeats a value: {args.values}")
        return "sweep", resolved
    return "analyze", vars(args)


def _parse_ref(spec: str) -> ReferenceSignal:
    if spec == "zero":
        return ReferenceSignal.zero()
    if spec.startswith("sin:") and spec.count(",") != 1:
        raise UsageError(f"bad reference {spec!r}: expected sin:A,W")
    try:
        if spec.startswith("const:"):
            return ReferenceSignal.constant(float(spec[6:]))
        if spec.startswith("sin:"):
            amplitude, omega = spec[4:].split(",")
            return ReferenceSignal.sinusoid(float(amplitude), float(omega))
    except ValueError as exc:
        raise UsageError(f"bad reference {spec!r}: {exc}") from exc
    raise UsageError(f"bad reference {spec!r}")


def _parse_u0(spec: str):
    if spec == "zero":
        return lambda t: 0.0
    if spec == "exp-decay":
        return lambda t: math.exp(-t)
    if spec.startswith("const:"):
        try:
            c = float(spec[6:])
        except ValueError as exc:
            raise UsageError(f"bad u0 {spec!r}: {exc}") from exc
        return lambda t: c
    raise UsageError(f"bad u0 {spec!r}")


def _parse_init(spec: str, grid: Grid, q: float) -> GridFunction:
    if spec == "paper":
        return benchmark_initial_state(grid, q)
    if spec == "zero":
        return GridFunction.zeros(grid)
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with warnings.catch_warnings():
                # an empty file is reported below as having 0 values
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(path, dtype=float).ravel()
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read init file {path!r}: {exc}") from exc
        if values.size != grid.n:
            raise UsageError(
                f"init file {path!r} has {values.size} values, grid needs {grid.n}"
            )
        return GridFunction(grid, values)
    raise UsageError(f"bad init {spec!r}")


def _make_out_dir(path) -> Path:
    """Create an output directory before any work; a path that cannot be one exits 64."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {str(path)!r}: {exc}") from exc
    return out


def emit_trace(trace: Trace, manifest: RunManifest, out_dir) -> dict:
    """Write trace.csv, optional snapshots.csv and manifest.json; return paths.

    A file that cannot be written (a directory in its place, a full disk)
    raises UsageError.
    """
    out = _make_out_dir(out_dir)
    try:
        paths = write_trace_csv(trace, out)
        paths["manifest_json"] = str(out / "manifest.json")
        manifest.outputs = dict(paths)
        manifest.save(out / "manifest.json")
    except OSError as exc:
        raise UsageError(f"cannot write the run's outputs: {exc}") from exc
    return paths


def _tolerance_checks(tolerances: dict, verdicts: dict, b: float) -> dict:
    """Compare a run's verdicts against its scenario's tolerances.

    Names ending in ``_min`` are lower bounds, the others upper bounds.
    ``value`` and ``ok`` are None where the settle window did not fit the
    run, so no limit verdicts exist, and for the offset-over-gap ratio
    when the zeta gap is 0.
    """
    values: dict[str, float | None] = {}
    if verdicts["limits"] is not None:
        quantities = verdicts["limits"]["quantities"]
        offset = abs(quantities["zeta"]["terminal"] - 1.0 / b)
        gap = quantities["zeta"]["gap"]
        values = {
            "wnorm_final": quantities["wnorm"]["terminal"],
            "obs_err_norm_final": quantities["obs_err_norm"]["terminal"],
            "zeta_settle_gap": gap,
            "zeta_offset_over_settle_gap_min": offset / gap if gap > 0 else None,
            "zeta_reciprocal_final": offset,
        }
    if "tracking_err_final" in verdicts:
        values["tracking_err_final"] = abs(verdicts["tracking_err_final"])
    checks = {}
    for name, bound in tolerances.items():
        value = values.get(name)
        if value is None:
            ok = None
        else:
            ok = value >= bound if name.endswith("_min") else value <= bound
        checks[name] = {"value": value, "bound": bound, "ok": ok}
    return checks


def _set_up(resolved: dict) -> _Setup:
    """Build and check a run's inputs and create its output directory."""
    q, t_final, tau = resolved["q"], resolved["t-final"], resolved["pe-tau"]
    if not math.isfinite(resolved["zeta0"]):
        raise UsageError(f"zeta0 must be finite, got {resolved['zeta0']}")
    params = Params(q=q, b=resolved["b"], c0=resolved["c0"], c1=resolved["c1"])
    grid = Grid.from_dx(resolved["dx"])
    config = SimConfig(
        dt=resolved["dt"],
        t_final=t_final,
        grid=grid,
        servo_truncation_J=resolved["servo-j"],
        pe_window_tau=min(1.0, t_final) if tau is None else tau,
        pe_threshold=resolved["pe-threshold"],
        sample_stride=resolved["sample-stride"],
        snapshot_stride=resolved["snapshot-stride"],
    )
    validate_config(params, config)
    scenario = _SCENARIOS[resolved["scenario"]]
    check_record_size(config, 1 + len(scenario.columns), scenario.snapshot_fields)
    ref, u0_signal = _parse_ref(resolved["ref"]), _parse_u0(resolved["u0"])
    w0 = _parse_init(resolved["init"], grid, q)
    made, path = [], Path(resolved["out"])
    while path != path.parent and not path.exists():
        made.append(path)
        path = path.parent
    _make_out_dir(resolved["out"])
    return _Setup(resolved, scenario, params, config, ref, u0_signal, w0,
                  GridFunction.zeros(grid), made)


def _finish(run: _Setup, trace: Trace, duration: float) -> int:
    """Judge a finished run, write its outputs and return its exit code."""
    params, config, resolved, scenario = run.params, run.config, run.resolved, run.scenario
    verdicts: dict = {"blown_up": trace.blown_up, "blow_up_time": trace.blow_up_time}
    settle = min(1.0, config.t_final / 2.0)
    try:
        summary = limit_diagnostics(trace, settle_window=settle)
        verdicts["limits"] = summary.to_dict()
        all_converged = summary.all_converged
    except InsufficientDuration:
        verdicts["limits"] = None
        all_converged = not trace.blown_up
    verdicts["pe_u0"] = _pe_verdict(trace, "u0", config)
    if scenario.verdicts is not None:
        verdicts.update(scenario.verdicts(run, trace))
    if scenario.tolerances is not None:
        verdicts["tolerances"] = scenario.tolerances
        verdicts["tolerance_checks"] = _tolerance_checks(scenario.tolerances, verdicts, params.b)

    grid = config.grid
    manifest = RunManifest(
        scenario=resolved["scenario"],
        params={"q": params.q, "b": params.b, "sign_b": params.sign_b,
                "c0": params.c0, "c1": params.c1},
        config={"dx": grid.dx, "n": grid.n, "dt": config.dt,
                "cfl_ratio": config.dt / (grid.dx * grid.dx),
                "t_final": config.t_final, "n_steps": config.n_steps,
                "servo_truncation_J": config.servo_truncation_J,
                "pe_window_tau": config.pe_window_tau,
                "pe_threshold": config.pe_threshold,
                "sample_stride": config.sample_stride,
                "snapshot_stride": config.snapshot_stride,
                "modes": resolved["modes"] if "modes" in scenario.inputs else None},
        reference=run.ref.describe() if "ref" in scenario.inputs else None,
        u0_signal=resolved["u0"] if "u0" in scenario.inputs else None,
        init=resolved["init"],
        zeta0=resolved["zeta0"],
        tool_version=__version__,
        duration_s=duration,
        samples=int(trace.times.size),
        route=getattr(trace.final_state, "route", None),
        handover_step=getattr(trace.final_state, "handover_step", None),
        verdicts=verdicts,
    )
    emit_trace(trace, manifest, resolved["out"])

    if trace.blown_up:
        return 3
    if resolved.get("require-converged") and not all_converged:
        return 4
    return 0


def _complete(run: _Setup, trace: Trace | None = None, duration: float = 0.0) -> int:
    """Run a set-up, unless its ``trace`` and ``duration`` are given, and finish it.

    A run that fails removes the directories its set-up made that are still empty.
    """
    try:
        if trace is None:
            start = time.perf_counter()
            trace = run.scenario.run(run)
            duration = time.perf_counter() - start
        return _finish(run, trace, duration)
    except BaseException:
        for path in run.made:
            try:
                path.rmdir()
            except OSError:
                break
        raise


def _analyze(args: dict) -> int:
    try:
        times, cols = read_trace_csv(args["trace"])
    except OSError as exc:
        raise UsageError(f"cannot read trace {args['trace']!r}: {exc}") from exc
    out = _make_out_dir(args["out"]) if args.get("out") else None
    result: dict = {"trace": args["trace"], "samples": int(times.size),
                    "t_final": float(times[-1])}
    try:
        pe = pe_check(times, cols["u0"], tau=args["pe_tau"],
                      threshold=args["pe_threshold"], windows=args["pe_windows"])
        result["pe_u0"] = pe.to_dict()
    except InsufficientDuration as exc:
        result["pe_u0"] = {"error": str(exc)}
    trace = Trace(times=times, scalars={k: cols[k] for k in TRACE_COLUMNS})
    try:
        summary = limit_diagnostics(
            trace, settle_window=args["settle_window"], gap_tol=args["gap_tol"]
        )
        result["limits"] = summary.to_dict()
        all_converged = summary.all_converged
    except InsufficientDuration as exc:
        result["limits"] = {"error": str(exc)}
        all_converged = False
    result["terminal"] = {k: float(cols[k][-1]) for k in TRACE_COLUMNS}

    text = json.dumps(result, indent=2)
    if out is not None:
        try:
            (out / "analysis.json").write_text(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write the analysis: {exc}") from exc
    print(text)
    if args.get("require_converged") and not all_converged:
        return 4
    return 0


#: the errors bad input ends in; _report maps each to its exit code
_EXPECTED_ERRORS = (
    UsageError, ConfigError, UnresolvableMode, TruncationInsufficient, NonFiniteState
)


def _report(exc: Exception) -> int:
    """Print ``heatadapt: <reason>`` on stderr and return the exit code.

    2 for a CFL violation, 3 for a state that turned NaN/Inf (a blow-up
    past the float range), 64 for the rest.
    """
    print(f"heatadapt: {exc}", file=sys.stderr)
    if isinstance(exc, CflViolation):
        return 2
    return 3 if isinstance(exc, NonFiniteState) else 64


#: the flags in which the members of a batch may differ: none of them enters
#: the operator that they share (batch.run_batches)
_BATCH_FLAGS = ("c0", "zeta0", "pe-tau", "pe-threshold")


def _sweep(resolved: dict) -> int:
    """Run simulate once per value, each into ``NNN-param=repr(value)``.

    Every member is set up first, in input order.  When the sweep is over
    one of :data:`_BATCH_FLAGS` and of ``stabilize`` runs on a grid of at
    most ``scenarios._OPERATOR_MAX_N`` nodes, the members whose set-up
    held then step in batches (:func:`~heatadapt.batch.run_batches`).
    Then each member is finished in input order: a set-up that failed
    reports its error, a batched member writes its outputs and any other
    member runs alone through ``simulate``'s own path, so ``sweep.json``
    and the ``heatadapt:`` lines on stderr keep the order of the values.
    """
    param, values = resolved["param"], resolved["values"]
    base_out = _make_out_dir(resolved["out"])
    outs = [str(base_out / f"{i:03d}-{param}={v!r}") for i, v in enumerate(values)]
    setups = []
    for v, out in zip(values, outs):
        try:
            setups.append(_set_up({**resolved, param: v, "out": out}))
        except _EXPECTED_ERRORS as exc:
            setups.append(exc)
    ready = [run for run in setups if isinstance(run, _Setup)]
    batched = {}
    if (ready and param in _BATCH_FLAGS and resolved["scenario"] == "stabilize"
            and ready[0].config.grid.n <= scenarios._OPERATOR_MAX_N):
        # loaded only by the sweeps that may batch: its code would weigh on every run's memory
        from .batch import run_batches

        first = ready[0]
        done = run_batches([run.params for run in ready], first.config, first.w0, first.what0,
                           [run.resolved["zeta0"] for run in ready])
        batched = {id(run): d for run, d in zip(ready, done) if d}
    codes = []
    for run in setups:
        try:
            codes.append(_complete(run, *batched.get(id(run), ())) if isinstance(run, _Setup)
                         else _report(run))
        except _EXPECTED_ERRORS as exc:
            codes.append(_report(exc))
    runs = [{"out": out, "value": v, "exit_code": code}
            for v, out, code in zip(values, outs, codes)]
    index = {"param": param, "runs": runs}
    (base_out / "sweep.json").write_text(json.dumps(index, indent=2) + "\n")
    return max(r["exit_code"] for r in runs)


def main(argv: list[str] | None = None) -> int:
    try:
        command, resolved = parse_args(argv if argv is not None else sys.argv[1:])
        if command == "simulate":
            return _complete(_set_up(resolved))
        if command == "sweep":
            return _sweep(resolved)
        return _analyze(resolved)
    except _EXPECTED_ERRORS as exc:
        return _report(exc)


if __name__ == "__main__":
    raise SystemExit(main())
