#!/usr/bin/env python3
"""Time the per-step floor of three runs in-process, with ``diss_cum`` and without.

    python3 tools/perstep.py [--steps N] [--repeats R]

Each run is timed on one BLAS thread (``OPENBLAS_NUM_THREADS=1``, set
before numpy loads), ``R`` times with the ``diss_cum`` column and ``R``
times without it, alternating, and the best of each is printed as µs a
step.  A batch records no ``diss_cum``, so it is timed without it only:

- ``stabilize``: ``run_stabilization`` at the CLI's defaults (n=51,
  dt=1e-4, sample stride 100), on the operator route;
- ``batch-c0``: ``run_stabilization_batch`` of a six-member c0 sweep
  (c0 evenly from 3 to 8), as µs a step of the whole batch;
- ``error-system``: ``run_error_system`` at n=201, dt=1e-5 and sample
  stride 1 under u0 = exp(-t), as ``oracle-fine``'s FD run.

Every run takes N steps (default 20000).  The CLI records no
``diss_cum``, so the "off" column is what its runs cost a step; "-"
marks a run that cannot record the column.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from heatadapt import Grid, GridFunction, Params, SimConfig  # noqa: E402
from heatadapt.batch import run_stabilization_batch  # noqa: E402
from heatadapt.scenarios import (  # noqa: E402
    benchmark_initial_state,
    run_error_system,
    run_stabilization,
)


def _config(n: int, dt: float, steps: int, stride: int) -> SimConfig:
    t_final = steps * dt
    return SimConfig(dt=dt, t_final=t_final, grid=Grid(n), sample_stride=stride,
                     pe_window_tau=min(1.0, t_final))


def runs(steps: int) -> dict:
    """Each run's name and its calls, keyed by whether they record ``diss_cum``."""
    p = Params(q=2.0, b=-10.0, c0=5.0, c1=5.0)
    c51 = _config(51, 1e-4, steps, 100)
    w0, what0 = benchmark_initial_state(c51.grid, 2.0), GridFunction.zeros(c51.grid)
    ps = [Params(q=2.0, b=-10.0, c0=c0, c1=5.0) for c0 in np.linspace(3.0, 8.0, 6)]
    c201 = _config(201, 1e-5, steps, 1)
    wt0 = benchmark_initial_state(c201.grid, 2.0)

    def u0(t: float) -> float:
        return math.exp(-t)

    return {
        "stabilize": {on: lambda on=on: run_stabilization(p, c51, w0, what0, 0.0, diss_cum=on)
                      for on in (True, False)},
        "batch-c0": {False: lambda: run_stabilization_batch(ps, c51, w0, what0, [0.0] * 6)},
        "error-system": {on: lambda on=on: run_error_system(p, c201, wt0, -0.1, u0, diss_cum=on)
                         for on in (True, False)},
    }


def best_us(calls: dict, steps: int, repeats: int) -> dict:
    """The best µs a step of each of ``calls``, taken in turn ``repeats`` times."""
    best = dict.fromkeys(calls, math.inf)
    for _ in range(repeats):
        for on, call in calls.items():
            start = time.perf_counter()
            call()
            best[on] = min(best[on], time.perf_counter() - start)
    return {on: t * 1e6 / steps for on, t in best.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=20000, help="steps a run (default 20000)")
    parser.add_argument("--repeats", type=int, default=5, help="runs of each kind (default 5)")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        parser.error("--steps and --repeats must be at least 1")
    print(f"best of {args.repeats}, {args.steps} steps a run, µs a step")
    print(f"{'run':<14}{'diss_cum on':>12}{'off':>9}{'saving':>9}")
    for name, calls in runs(args.steps).items():
        us = best_us(calls, args.steps, args.repeats)
        off = us[False]
        if True in us:
            print(f"{name:<14}{us[True]:>12.3f}{off:>9.3f}{1.0 - off / us[True]:>9.1%}")
        else:
            print(f"{name:<14}{'-':>12}{off:>9.3f}{'-':>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
