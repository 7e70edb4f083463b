"""Benchmark of the heatadapt command line on seeded workloads.

    python3 bench/run.py --workload stabilize --seed 0 --seconds 28 --trace 0

Runs passes of one workload (``--workload all`` runs each in turn) for
about ``--seconds`` seconds.  A pass is one fresh interpreter
(bench/child.py) that imports heatadapt, resolves the workload's
arguments and calls ``cli.main`` once per op; the next pass starts only
after the previous one has ended and its outputs have been checked.

``--trace 0`` reports the end-to-end metrics, medians over passes:
wall_s, cpu_s, setup_s and peak_rss_mb.  Times are host-normalised by
the references of calibrate.py; raw times are printed beside them.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracer.py, including the tracing overhead in CPU
time.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the numbers for
people, with quartiles, counts, inputs and the environment, and the full
record goes to bench/_work/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"

#: each run ends well inside the 180 s a run may take
TIME_LIMIT_S = 165.0
MIN_PASSES = 3
#: least set-up samples per untraced run
SETUP_SAMPLES = 15
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: one thread per process, so CPU time measures the pass alone
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class ChildFailed(Exception):
    """A pass interpreter exited badly, timed out or broke the protocol."""


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class Runner:
    """Runs the passes of one workload, checks their outputs and keeps the samples.

    Every time sample is kept raw and host-normalised by the references
    of calibrate.py, timed in the same interpreter.
    """

    def __init__(self, workload, work: Path, deadline: float):
        import calibrate
        from heatadapt import cli

        self.reference_s = calibrate.REFERENCE_S
        self.import_reference_s = calibrate.IMPORT_REFERENCE_S
        self.cli = cli
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.spec = work / "spec.json"
        self.spec.write_text(json.dumps({"ops": [op.argv for op in workload.ops]}))
        self.env = {**os.environ, **CHILD_ENV}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {
            k: [] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                            "raw_wall_s", "raw_cpu_s", "raw_setup_s", "traced_cpu_s")
        }
        self.layers: list[dict] = []
        self.outputs: dict | None = None

    def _spawn(self, pass_dir: Path, extra: list[str]) -> dict:
        """Start one interpreter and return its result line with its set-up time."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(self.spec), str(pass_dir), *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=self.env,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(self.deadline - time.perf_counter(), 0.0))
            line = proc.stdout.readline() if ready else b""
            setup = time.perf_counter() - start
            if line != b"ready\n":
                raise ChildFailed(f"no ready line (got {line!r})")
            out, err = proc.communicate(timeout=max(self.deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed("pass ran past the time limit") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not out.strip():
            raise ChildFailed(f"exit {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
        result = json.loads(out.splitlines()[-1])
        self.samples["raw_setup_s"].append(setup)
        self.samples["setup_s"].append(setup * self.import_reference_s / result["numpy_import_s"])
        return result

    def setup_only(self) -> None:
        self._spawn(self.work / "setup", ["--setup-only"])

    def run_pass(self, index: int, spans: Path | None = None) -> bool:
        """Run one pass, check its outputs and record its samples; False if it broke.

        Every pass writes to the same directory name, so the output paths
        that its manifests record have the same length in every pass.
        """
        pass_dir = self.work / "pass"
        extra = ["--spans", str(spans), "--pass-id", str(index)] if spans else []
        ops = self.workload.ops
        self.attempted += len(ops)
        try:
            result = self._spawn(pass_dir, extra)
        except ChildFailed as exc:
            self.failed += len(ops)
            self.failures.append(f"pass {index}: {exc}")
            return False
        for i, (op, code) in enumerate(zip(ops, result["codes"])):
            try:
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
                op.check(pass_dir, self.cli)
            except Exception as exc:  # any broken output counts as a failed op
                self.failed += 1
                self.failures.append(f"pass {index} op {i} ({op.argv[0]}): {exc!r}")
        if self.outputs is None:
            self.outputs = self._output_counts(pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)

        calibration = result["calibration"]
        wall_scale = self.reference_s / statistics.fmean(c[0] for c in calibration)
        cpu_scale = self.reference_s / statistics.fmean(c[1] for c in calibration)
        if spans is None:
            self.samples["raw_wall_s"].append(result["wall_s"])
            self.samples["raw_cpu_s"].append(result["cpu_s"])
            self.samples["wall_s"].append(result["wall_s"] * wall_scale)
            self.samples["cpu_s"].append(result["cpu_s"] * cpu_scale)
            self.samples["peak_rss_mb"].append(result["peak_rss_mb"])
        else:
            import tracer

            self.samples["traced_cpu_s"].append(result["cpu_s"] * cpu_scale)
            stats = tracer.layer_stats(spans, result["counts"])
            spans.unlink()
            self.layers.append({k: v * cpu_scale if tracer.unit(k) in ("s", "us") else v
                                for k, v in stats.items()})
        return True

    def _output_counts(self, pass_dir: Path) -> dict:
        """Trace rows and bytes written by one pass, and bytes read by its analyze ops."""
        written = sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())
        rows = sum(p.read_bytes().count(b"\n") - 1 for p in pass_dir.rglob("trace.csv"))
        read = sum(Path(op.argv[op.argv.index("--trace") + 1].replace("{pass}", str(pass_dir)))
                   .stat().st_size for op in self.workload.ops if op.argv[0] == "analyze")
        return {"trace_rows": rows, "bytes_written": written, "bytes_read": read}


def _measure(runner: Runner, seconds: float, started: float, trace: bool) -> None:
    """Run cycles until the next one would end after ``seconds``.

    A cycle is an untraced pass followed by a traced pass (``trace``) or
    by a set-up-only interpreter, which doubles the set-up samples.
    """
    index = 0
    last = 0.0
    end = min(started + seconds, runner.deadline)
    try:
        while len(runner.samples["cpu_s"]) < MIN_PASSES or time.perf_counter() + last <= end:
            t0 = time.perf_counter()
            if not runner.run_pass(index):
                return
            index += 1
            if trace:
                if not runner.run_pass(index, runner.work / f"spans-{index}.npz"):
                    return
                index += 1
            else:
                runner.setup_only()
            last = time.perf_counter() - t0
        while not trace and len(runner.samples["setup_s"]) < SETUP_SAMPLES:
            runner.setup_only()
    except ChildFailed as exc:
        runner.failures.append(f"set-up: {exc}")


def _metrics(runner: Runner, trace: bool) -> dict:
    import tracer

    samples = runner.samples
    if not samples["cpu_s"] or (trace and not runner.layers):
        return {}
    if not trace:
        return {key: {"value": statistics.median(samples[key]), "unit": unit}
                for key, unit in END_TO_END}
    metrics = {}
    for key in tracer.LAYER_METRICS:
        unit = tracer.unit(key)
        # counts repeat exactly, so report one that was measured
        median = statistics.median if unit in ("s", "us") else statistics.median_low
        metrics[key] = {"value": median(layer.get(key, 0) for layer in runner.layers), "unit": unit}
    traced_cpu = statistics.median(samples["traced_cpu_s"])
    metrics["trace.cpu_s"]["value"] = traced_cpu
    metrics["trace.overhead_cpu_s"]["value"] = traced_cpu - statistics.median(samples["cpu_s"])
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    import workloads

    started = time.perf_counter()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.build(name, seed, work)
        runner = Runner(workload, work, started + TIME_LIMIT_S)
        _measure(runner, seconds, started, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = _metrics(runner, trace)
    correct = runner.failed == 0 and bool(metrics)

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "inputs": workload.inputs,
        "runs_per_pass": workload.runs,
        "ops_per_pass": [op.argv[0] for op in workload.ops],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted if runner.attempted else 1.0,
        "failures": runner.failures,
        "outputs_per_pass": runner.outputs,
        "quartiles": {k: _quartiles(v) for k, v in runner.samples.items() if v},
        "samples": runner.samples,
        "metrics": metrics,
        "environment": _environment(),
        "elapsed_s": time.perf_counter() - started,
    }
    if trace:
        record["layers_per_pass"] = runner.layers
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    _print_report(record, result_path)
    print(json.dumps({"correct": correct, "attempted": max(runner.attempted, 1),
                      "failed": runner.failed, "metrics": metrics}))
    sys.stdout.flush()
    return correct


def _print_report(record: dict, result_path: Path) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"inputs {json.dumps(record['inputs'])}")
    print(f"  python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}")
    for run in record["runs_per_pass"]:
        print(f"  run {run['run']} x{run['count']}: n={run['n']} dx={run['dx']:g} "
              f"dt={run['dt']:g} steps={run['steps']}")
    if record["outputs_per_pass"]:
        print("  per pass: " + "  ".join(f"{k}={v}" for k, v in record["outputs_per_pass"].items()))
    units = dict(END_TO_END, raw_wall_s="s", raw_cpu_s="s", raw_setup_s="s", traced_cpu_s="s")
    for key, q in record["quartiles"].items():
        print(f"  {key:<14} {q['median']:10.4f} {units[key]:<3} (q1 {q['q1']:.4f}, "
              f"q3 {q['q3']:.4f}, n={q['n']})")
    print(f"  {'fail_ratio':<14} {record['fail_ratio']:10.4f} 1   "
          f"({record['failed']} failed of {record['attempted']} ops)")
    for failure in record["failures"][:5]:
        print(f"  FAILED {failure}")
    if record["trace"] and record["metrics"]:
        for key, m in record["metrics"].items():
            print(f"  {key:<42} {m['value']:14.6g} {m['unit']}")
        import tracer

        coverage = [tracer.loop_coverage(layer) for layer in record["layers_per_pass"]]
        if all(c is not None for c in coverage):
            print(f"  fdm + control + scenarios self time: {statistics.median(coverage):.1%} "
                  "of the runners' busy time (median over traced passes)")
    print(f"  full record: {result_path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(workloads.NAMES):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    if not (SRC / "heatadapt" / "cli.py").is_file():
        print(f"bench: no heatadapt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ok = True
    for name in names:
        ok = run_workload(name, args.seed, args.seconds, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
