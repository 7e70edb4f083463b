"""Spans around heatadapt's public functions, for the traced benchmark run.

Each wrapper replaces a function at the name its caller looks up:
``scenarios`` imports ``step_heat`` by name, so the wrapper goes on
``heatadapt.scenarios.step_heat``, not on ``heatadapt.fdm.step_heat``.
A span records its name, start, end, parent span and pass id.  Spans
stay in memory and are written to an ``.npz`` file when the pass ends;
:func:`layer_stats` turns that file into per-layer metrics.

The span name is ``<module>.<function>`` of the module that defines the
function, so ``fdm.step_heat`` is the stepper wherever it is called from.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

from heatadapt import cli, domain, scenarios


def _runner_counts(args, kwargs, trace) -> dict:
    config = args[1]
    return {
        "scenarios.steps": int(round(trace.final_state.t / config.dt)),
        "scenarios.samples": int(trace.times.size),
    }


def _galerkin_counts(args, kwargs, trace) -> dict:
    return {"analysis.galerkin_error_system.steps": int(round(kwargs["t_final"] / kwargs["dt_ode"]))}


def _emit_counts(args, kwargs, paths) -> dict:
    return {
        "cli.emit_trace.rows": int(args[0].times.size),
        "cli.emit_trace.bytes": sum(os.path.getsize(p) for p in paths.values()),
    }


def _read_counts(args, kwargs, result) -> dict:
    return {
        "cli.read_trace_csv.rows": int(result[0].size),
        "cli.read_trace_csv.bytes": os.path.getsize(args[0]),
    }


#: (object holding the name the caller looks up, attribute, span name, counter)
WRAPPED = (
    (scenarios, "step_heat", "fdm.step_heat", None),
    (scenarios, "grad_values", "fdm.grad_values", None),
    (scenarios, "l2_norm", "fdm.l2_norm", None),
    (scenarios, "adaptive_u0", "control.adaptive_u0", None),
    (scenarios, "zeta_step", "control.zeta_step", None),
    (scenarios, "servo_boundary", "control.servo_boundary", None),
    (scenarios, "servo_eval", "control.servo_eval", None),
    (cli, "run_stabilization", "scenarios.run_stabilization", _runner_counts),
    (cli, "run_tracking", "scenarios.run_tracking", _runner_counts),
    (cli, "run_error_system", "scenarios.run_error_system", _runner_counts),
    (cli, "galerkin_error_system", "analysis.galerkin_error_system", _galerkin_counts),
    (cli, "pe_check", "analysis.pe_check", None),
    (cli, "limit_diagnostics", "analysis.limit_diagnostics", None),
    (cli, "validate_config", "domain.validate_config", None),
    (domain.Params, "__init__", "domain.Params", None),
    (domain.Grid, "__init__", "domain.Grid", None),
    (domain.SimConfig, "__init__", "domain.SimConfig", None),
    (cli, "parse_args", "cli.parse_args", None),
    (cli, "emit_trace", "cli.emit_trace", _emit_counts),
    (cli, "read_trace_csv", "cli.read_trace_csv", _read_counts),
    (cli, "main", "cli.main", None),
)

RUNNERS = ("run_stabilization", "run_tracking", "run_error_system")
_FUNCTION_STATS = ("calls", "busy_s", "self_s", "us_per_call")

#: every per-layer metric of a traced run, in report order
LAYER_METRICS = (
    *(f"fdm.{f}.{s}" for f in ("step_heat", "grad_values") for s in _FUNCTION_STATS),
    # only the open-loop runner calls l2_norm; the count shows it stays unused
    "fdm.l2_norm.calls",
    *(f"control.{f}.{s}"
      for f in ("adaptive_u0", "zeta_step", "servo_boundary", "servo_eval")
      for s in _FUNCTION_STATS),
    *(f"scenarios.{r}.{s}" for r in RUNNERS for s in ("calls", "busy_s", "self_s")),
    "scenarios.steps", "scenarios.samples", "scenarios.us_per_step",
    "analysis.galerkin_error_system.calls", "analysis.galerkin_error_system.busy_s",
    "analysis.galerkin_error_system.steps",
    "analysis.pe_check.calls", "analysis.pe_check.busy_s",
    "analysis.limit_diagnostics.calls", "analysis.limit_diagnostics.busy_s",
    "cli.main.busy_s", "cli.main.self_s", "cli.parse_args.busy_s",
    "cli.emit_trace.busy_s", "cli.emit_trace.rows", "cli.emit_trace.bytes",
    "cli.read_trace_csv.busy_s", "cli.read_trace_csv.rows", "cli.read_trace_csv.bytes",
    "domain.validate_config.calls", "domain.validate_config.busy_s",
    "domain.Params.busy_s", "domain.Grid.busy_s", "domain.SimConfig.busy_s",
    "trace.spans", "trace.cpu_s", "trace.overhead_cpu_s",
)


def unit(metric: str) -> str:
    if metric.endswith((".us_per_call", ".us_per_step")):
        return "us"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_s"):
        return "s"
    return "count"


class Tracer:
    """Records a span for every call of the functions in :data:`WRAPPED`."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.span_names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_ids = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def install(self) -> None:
        for owner, attr, span_name, counter in WRAPPED:
            setattr(owner, attr, self._wrap(getattr(owner, attr), span_name, counter))

    def _wrap(self, fn, span_name: str, counter):
        name_id = len(self.span_names)
        self.span_names.append(span_name)
        names, parents, pass_ids = self.name_id, self.parent, self.pass_ids
        starts, ends, stack, counts = self.start, self.end, self._stack, self.counts
        pass_id, clock = self.pass_id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            pass_ids.append(pass_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + n
            return result

        return traced

    def dump(self, path) -> None:
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_ids, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def layer_stats(path, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span file and counts.

    A span's self time is its duration minus the durations of its
    direct children; wrapped calls never overlap within one thread.
    """
    with np.load(path) as spans:
        span_names = [str(s) for s in spans["span_names"]]
        name_id, parent = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    self_time = duration - child

    stats: dict[str, float] = {"trace.spans": int(duration.size)}
    for i, span in enumerate(span_names):
        mask = name_id == i
        calls = int(mask.sum())
        busy = float(duration[mask].sum())
        stats[f"{span}.calls"] = calls
        stats[f"{span}.busy_s"] = busy
        stats[f"{span}.self_s"] = float(self_time[mask].sum())
        stats[f"{span}.us_per_call"] = 1e6 * busy / calls if calls else 0.0
    stats.update(counts)
    for key in ("scenarios.steps", "scenarios.samples", "analysis.galerkin_error_system.steps",
                "cli.emit_trace.rows", "cli.emit_trace.bytes",
                "cli.read_trace_csv.rows", "cli.read_trace_csv.bytes"):
        stats.setdefault(key, 0)
    runner_busy = sum(stats[f"scenarios.{r}.busy_s"] for r in RUNNERS)
    steps = stats["scenarios.steps"]
    stats["scenarios.us_per_step"] = 1e6 * runner_busy / steps if steps else 0.0
    return stats


def loop_coverage(stats: dict) -> float | None:
    """Share of the runners' busy time covered by fdm, control and scenarios self times.

    None when no runner ran.
    """
    busy = sum(stats[f"scenarios.{r}.busy_s"] for r in RUNNERS)
    if not busy:
        return None
    return sum(v for k, v in stats.items()
               if k.endswith(".self_s") and k.split(".")[0] in ("fdm", "control", "scenarios")) / busy
