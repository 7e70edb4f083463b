"""The benchmark's four workloads: seeded inputs, CLI invocations and output checks.

A workload is a list of ops; an op is one call of ``heatadapt.cli.main``
(``simulate``, ``analyze`` or ``sweep``).  In an op's arguments the token
``{pass}`` stands for the directory of the pass that runs it, so every
pass writes into a fresh directory.

Seed 0 reproduces the paper's inputs exactly.  Any other seed draws them
(see README.md): a smooth perturbation of the initial profile, passed
with ``--init file:``, the sinusoid's amplitude and frequency, and the
swept c0 values.  The program sees only these generated inputs.

Every check raises :class:`CheckFailed` (or the error of the read that
failed) when an output is wrong.  Checks take the ``heatadapt.cli``
module as an argument, so this module imports nothing from the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("stabilize", "track-sin", "sweep-c0", "oracle-fine")

#: the CLI's default q, which the paper profile q x - 1 uses
Q = 2.0
#: zeta(5) of the seed-0 stabilize run, as the acceptance log prints it;
#: the known-red criterion 2d value, which must not drift
ZETA5_PAPER = "-0.102150"
#: criterion 7's bound on the time-L2 gap between the FD and Galerkin wnorm
ORACLE_GAP_MAX = 1e-2

SWEEP_K = 6
SWEEP_C0_RANGE = (3.0, 8.0)
TRACK_AMPLITUDE_RANGE = (0.5, 2.0)
TRACK_OMEGA_RANGE = (0.5, 1.0)


class CheckFailed(Exception):
    """An op's output differs from what the workload expects."""


@dataclass(frozen=True)
class Op:
    argv: list[str]
    #: check(pass_dir, cli) raises when the op's outputs are wrong
    check: Callable[[Path, object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list[Op]
    #: the seeded inputs, recorded in every result
    inputs: dict
    #: n, dx, dt and step count of each simulated run in one pass
    runs: list[dict]


def _run_shape(label: str, dx: float, dt: float, t_final: float, count: int = 1) -> dict:
    return {
        "run": label,
        "count": count,
        "n": int(round(1.0 / dx)) + 1,
        "dx": dx,
        "dt": dt,
        "steps": int(round(t_final / dt)),
    }


def _init_spec(rng: np.random.Generator | None, dx: float, work: Path, tag: str) -> str:
    """``paper`` for seed 0, otherwise a file holding a perturbed q x - 1.

    The perturbation is sum_k a_k cos(k pi x), k = 1..3, with
    a_k ~ U(-0.25, 0.25) / k: smooth, and small enough that every
    workload's checks hold for the paper's gains.
    """
    if rng is None:
        return "paper"
    n = int(round(1.0 / dx)) + 1
    x = np.linspace(0.0, 1.0, n)
    k = np.arange(1, 4)
    a = rng.uniform(-0.25, 0.25, size=k.size) / k
    values = Q * x - 1.0 + np.cos(np.pi * np.outer(x, k)) @ a
    path = work / f"init-{tag}.txt"
    np.savetxt(path, values, fmt="%.17g")
    return f"file:{path}"


def _same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def _check_run(out: Path, cli) -> tuple[np.ndarray, dict, dict]:
    """Check one simulate output directory; return (times, columns, manifest).

    The parsed trace.csv must end at the manifest's t_final and reproduce
    every terminal value of the manifest's limit verdicts bit for bit.
    """
    manifest = json.loads((out / "manifest.json").read_text())
    times, cols = cli.read_trace_csv(out / "trace.csv")
    t_final = manifest["config"]["t_final"]
    if not _same_bits(times[-1], t_final):
        raise CheckFailed(f"{out}: trace ends at t={times[-1]!r}, manifest t_final={t_final!r}")
    limits = manifest["verdicts"]["limits"]
    if limits is None:
        raise CheckFailed(f"{out}: manifest has no limit verdicts")
    for name, diag in limits["quantities"].items():
        if not _same_bits(cols[name][-1], diag["terminal"]):
            raise CheckFailed(
                f"{out}: trace {name}[-1]={cols[name][-1]!r} != manifest {diag['terminal']!r}"
            )
    return times, cols, manifest


def _stabilize(seed: int, rng, work: Path) -> Workload:
    init = _init_spec(rng, 0.02, work, "n51")

    def check(pass_dir: Path, cli) -> None:
        _, _, manifest = _check_run(pass_dir / "stabilize", cli)
        tol = cli.ACCEPTANCE_TOLERANCES["stabilize"]
        quantities = manifest["verdicts"]["limits"]["quantities"]
        for name in ("wnorm", "obs_err_norm"):
            terminal = quantities[name]["terminal"]
            if not terminal <= tol[f"{name}_final"]:
                raise CheckFailed(f"stabilize {name}(5)={terminal:.3e} > {tol[name + '_final']}")
        zeta5 = format(quantities["zeta"]["terminal"], "+.6f")
        if seed == 0 and zeta5 != ZETA5_PAPER:
            raise CheckFailed(f"stabilize zeta(5)={zeta5}, the paper inputs give {ZETA5_PAPER}")

    argv = ["simulate", "--scenario", "stabilize", "--init", init, "--out", "{pass}/stabilize"]
    return Workload(
        "stabilize", [Op(argv, check)], {"init": init},
        [_run_shape("stabilize", 0.02, 1e-4, 5.0)],
    )


def _track_sin(seed: int, rng, work: Path) -> Workload:
    if rng is None:
        amplitude, omega = 1.0, 1.0
    else:
        amplitude = round(float(rng.uniform(*TRACK_AMPLITUDE_RANGE)), 4)
        omega = round(float(rng.uniform(*TRACK_OMEGA_RANGE)), 4)
    ref = f"sin:{amplitude:g},{omega:g}"
    init = _init_spec(rng, 0.02, work, "n51")

    def check(pass_dir: Path, cli) -> None:
        _, _, manifest = _check_run(pass_dir / "track", cli)
        bound = cli.ACCEPTANCE_TOLERANCES["track"]["tracking_err_final"]
        err = manifest["verdicts"]["tracking_err_final"]
        if not abs(err) <= bound:
            raise CheckFailed(f"track |tracking_err_final|={abs(err):.3e} > {bound}")

    argv = ["simulate", "--scenario", "track", "--ref", ref, "--init", init,
            "--out", "{pass}/track"]
    return Workload(
        "track-sin", [Op(argv, check)], {"ref": ref, "init": init},
        [_run_shape("track", 0.02, 1e-4, 5.0)],
    )


def _sweep_c0(seed: int, rng, work: Path) -> Workload:
    lo, hi = SWEEP_C0_RANGE
    if rng is None:
        values = [float(v) for v in np.linspace(lo, hi, SWEEP_K)]
    else:
        # distinct values on a 1e-3 grid: a sweep over repeated values
        # would be the same run twice
        grid = rng.choice(int(round((hi - lo) * 1000)) + 1, size=SWEEP_K, replace=False)
        values = sorted(round(lo + int(i) / 1000, 3) for i in grid)
    init = _init_spec(rng, 0.02, work, "n51")
    t_final = 0.5

    def check(pass_dir: Path, cli) -> None:
        index = json.loads((pass_dir / "sweep" / "sweep.json").read_text())
        runs = index["runs"]
        if [r["value"] for r in runs] != values:
            raise CheckFailed(f"sweep.json lists values {[r['value'] for r in runs]}")
        if len({r["out"] for r in runs}) != len(runs):
            raise CheckFailed("sweep runs share an output directory")
        for r in runs:
            if r["exit_code"] != 0:
                raise CheckFailed(f"sweep run {r['out']} exited {r['exit_code']}")
            _, _, manifest = _check_run(Path(r["out"]), cli)
            if manifest["params"]["c0"] != r["value"]:
                raise CheckFailed(f"{r['out']}: manifest c0={manifest['params']['c0']}")

    # --pe-tau 0.1 fits the five PE windows into the 0.5 s horizon, so
    # each member runs both verdicts
    argv = ["sweep", "--scenario", "stabilize", "--param", "c0",
            "--values", ",".join(repr(v) for v in values), "--t-final", str(t_final),
            "--pe-tau", "0.1", "--init", init, "--out", "{pass}/sweep"]
    return Workload(
        "sweep-c0", [Op(argv, check)], {"c0": values, "init": init},
        [_run_shape("stabilize", 0.02, 1e-4, t_final, count=SWEEP_K)],
    )


def _oracle_fine(seed: int, rng, work: Path) -> Workload:
    dx, dt, t_final = 0.005, 1e-5, 0.2
    init = _init_spec(rng, dx, work, "n201")
    # criterion 7's error-system input: u0 = exp(-t), parameter error -0.1
    common = ["--dx", str(dx), "--dt", str(dt), "--t-final", str(t_final),
              "--sample-stride", "1", "--u0", "exp-decay", "--zeta0", "-0.1",
              "--pe-tau", "0.03", "--init", init]
    fd = ["simulate", "--scenario", "error-system", *common, "--out", "{pass}/fd"]
    galerkin = ["simulate", "--scenario", "galerkin", "--modes", "32", *common,
                "--out", "{pass}/galerkin"]

    def check_fd(pass_dir: Path, cli) -> None:
        _check_run(pass_dir / "fd", cli)

    def check_galerkin(pass_dir: Path, cli) -> None:
        t_fd, fd_cols, _ = _check_run(pass_dir / "fd", cli)
        t_g, g_cols, _ = _check_run(pass_dir / "galerkin", cli)
        if not np.array_equal(t_fd, t_g):
            raise CheckFailed("FD and Galerkin traces are sampled at different times")
        d2 = (g_cols["wnorm"] - fd_cols["wnorm"]) ** 2
        gap = math.sqrt(float(np.sum(0.5 * (d2[1:] + d2[:-1]) * np.diff(t_fd))))
        if not gap <= ORACLE_GAP_MAX:
            raise CheckFailed(f"FD-Galerkin wnorm gap {gap:.3e} > {ORACLE_GAP_MAX}")

    def analyze(tag: str) -> Op:
        # five PE windows of 0.03 s and a settle window of 0.05 s both fit
        # in 0.2 s, so analyze runs both diagnostics
        argv = ["analyze", "--trace", f"{{pass}}/{tag}/trace.csv", "--pe-tau", "0.03",
                "--settle-window", "0.05", "--out", f"{{pass}}/{tag}-analysis"]

        def check(pass_dir: Path, cli) -> None:
            result = json.loads((pass_dir / f"{tag}-analysis" / "analysis.json").read_text())
            times, cols = cli.read_trace_csv(pass_dir / tag / "trace.csv")
            if result["samples"] != times.size:
                raise CheckFailed(f"analyze {tag}: {result['samples']} samples, trace has {times.size}")
            for name, value in result["terminal"].items():
                if not _same_bits(value, cols[name][-1]):
                    raise CheckFailed(f"analyze {tag}: terminal {name}={value!r} != {cols[name][-1]!r}")
            for key in ("pe_u0", "limits"):
                if "error" in result[key]:
                    raise CheckFailed(f"analyze {tag}: {key} did not run: {result[key]['error']}")

        return Op(argv, check)

    return Workload(
        "oracle-fine",
        [Op(fd, check_fd), Op(galerkin, check_galerkin), analyze("fd"), analyze("galerkin")],
        {"init": init, "u0": "exp-decay", "zeta0": -0.1},
        [_run_shape("error-system", dx, dt, t_final), _run_shape("galerkin-32", dx, dt, t_final)],
    )


_BUILDERS = {
    "stabilize": _stabilize,
    "track-sin": _track_sin,
    "sweep-c0": _sweep_c0,
    "oracle-fine": _oracle_fine,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload's ops on the inputs that seed gives; input files go to work."""
    rng = None if seed == 0 else np.random.default_rng(seed)
    return _BUILDERS[name](seed, rng, work)
