#!/usr/bin/env python3
"""Check that this tree's CLI outputs are byte-identical to those of a git revision.

    python3 tools/identity.py --against REV

REV is exported from the repository with ``git archive`` into a
temporary directory.  :data:`COMMANDS` runs in that tree and in this
one (the working tree, uncommitted edits included), each command in a
fresh interpreter with ``PYTHONPATH`` set to the tree's ``src``.  Both
runs use relative output paths under two directories of equal path
length, so the paths the outputs record are the same.

Every ``trace.csv``, ``snapshots.csv``, ``analysis.json``,
``sweep.json`` and any other file is compared byte for byte, except
``manifest.json``, which is compared as JSON, key order included,
without its ``duration_s`` and ``outputs`` keys.  Exit codes and stderr
are compared too.  For a CSV that differs, a table gives each column's
max |delta| over its max |value|.  Exit status: 0 when everything is identical, 1 when anything
differs, 2 when REV cannot be exported.

Stabilize runs on grids of at most 101 nodes (``scenarios._OPERATOR_MAX_N``),
and their sweeps, step as one operator product since that route came in,
and manifests gained ``route`` and ``handover_step``, so against a
revision before it those outputs differ.  The route moved the last digits
of stable runs by about 1e-14 of a column's scale; the chaotic run before
a blow-up, ``sweep-q-blow-up/001-q=5.0``, moved by up to 8.7e-3.
``stabilize-n101`` and ``stabilize-n102`` pin both routes at the cutoff.

Tracking runs on the same grids step as one operator product too, with
``(1, sin wt, cos wt)`` in the state, since that route came in.  Against
a revision before it, ``track-*`` and ``sweep-track`` outputs moved by
about 1e-14 of a column's scale, and a ``track`` manifest's ``route``
reads ``operator`` there (``stencil`` before); ``track-truncated`` keeps
its exit code and stderr.  ``track-n101`` and ``track-n102`` pin both
routes at the cutoff, and ``track-handover`` a run that hands over to
the stencil at step 100 and blows up at step 138.

Sweeps run each member through ``simulate``'s own path.  Before that,
``stabilize`` sweeps of at least three members above the cutoff stepped
them as one stack, which ``sweep-c0-n126`` and ``sweep-q-blow-up-n126``
(a stack that gives up for a member that blows up) pin: against such a
revision they must be identical too.

``stabilize-b-pos`` and ``track-b-pos`` run with ``--b 10``, the other
sign of b: stabilize ends at zeta(5) = +0.102150, the mirror of the
default run's -0.102150.

``observer-n3`` and ``error-system-n3`` run on the smallest grid, n=3
(``--dx 0.5``), where the boundary nodes of a field share their one
neighbour: the stencil reads the same node as the second and the
second-to-last.

Since the operator went column-major, with one row per value of a slab
row and those rows padded with zeros to a multiple of 8, the product
sums each row in another order.  Against a revision before it, the
operator-route outputs of stabilize and tracking runs and their sweeps
moved, and their manifests differ only in ``verdicts``: stable runs by
at most 1.2e-14 of a column's scale, the two handover runs that blow up
by 1.4e-12 (``stabilize-handover``) and 2.8e-11 (``track-handover``), and
``sweep-q-blow-up/001-q=5.0`` by 1.1e-3 before its blow-up.  Exit codes,
stderr, routes, handover steps and blow-up steps stayed the same.
``stabilize-n26`` and ``track-n41`` pin padded rows: 54 rows padded to 56,
and 89 to 96.

Since the operator's observer flux reads u0 from the state's u0 column,
where it held the dense feedback row, every operator-route output moved
against a revision before it, and its manifest only in ``verdicts``:
stable stabilize and tracking runs and their sweeps by at most 7.6e-15
of a column's scale, the two handover runs that blow up by 2.7e-12
(``stabilize-handover``) and 4.2e-11 (``track-handover``), and
``sweep-q-blow-up/001-q=5.0`` by 5.7e-3 before its blow-up.  Since then,
too, ``stabilize`` sweeps of 4 to 16 members over ``c0``, ``zeta0``,
``pe-tau`` or ``pe-threshold`` at n <= 101 step as one batch
(``heatadapt.batch``), whose product rounds otherwise than a run's
alone: the members of ``sweep-c0-six`` and ``sweep-c0-batch-snap`` (a
batch with snapshots) moved by at most 9.7e-15 of a column's scale, and
their manifests' ``route`` reads ``operator-batch``.  ``sweep-c0`` has
two members, which run alone.  ``sweep-zeta0-runaway`` is a batchable
sweep whose member with zeta0 = 1e11 is not quiet, so that every member
runs alone, each as its own ``simulate`` does.  Exit codes, stderr,
handover steps and blow-up steps stayed the same.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: (output directory, CLI arguments): every scenario, a servo truncation exit,
#: both blow-up runs, the oracle-fine pair with its analyze, four sweeps, two
#: sweeps with a member that ends early (a blow-up, a flux overflow), a servo
#: truncation past its bound, three runs whose samples fall inside, on and
#: across the 64-step blocks of the runners' slabs (sample strides 1, 7 and 65,
#: snapshot strides 45, 130), stabilize runs on the largest grid that steps as
#: one operator product (n=101) and on the next grid, which steps on the
#: stencil (n=102), two stabilize sweeps on the stencil (n=126), a stabilize
#: run that hands over from the operator to the stencil at step 100 and blows
#: up at step 129, with samples on both sides, an error-system run that
#: blows up at step 219, inside a block, the same three for tracking: runs
#: at n=101 and n=102 and one that hands over at step 100 and blows up at 138,
#: an open-loop run with samples and snapshots across the blocks that
#: blows up at step 4579, inside a block and on no sample or snapshot stride,
#: two runs with a malformed spec for an input their scenario does not take,
#: and five runs whose samples and snapshots straddle the flushes of the
#: chunks that record them (320 steps at n=51, 128 for observer and stabilize
#: at stride 1): strides longer than a chunk, and every step sampled; and two
#: tracking runs on the stencil (n=102): one of a negative-amplitude sinusoid,
#: and one whose servo tail passes its tolerance after step 0; a stabilize
#: and a tracking run with a positive b; and an observer and an error-system
#: run on three nodes, where a field's second node is its second-to-last; and
#: a stabilize and a tracking run whose operators' rows are padded with zeros
#: to a multiple of 8 (54 to 56 at n=26, 89 to 96 at n=41); and a sweep of
#: four c0 members that step as one batch, with snapshots, and a batchable
#: zeta0 sweep whose runaway member sends every member back to run alone
COMMANDS = (
    ("stabilize", ["simulate", "--scenario", "stabilize"]),
    ("stabilize-snap", ["simulate", "--scenario", "stabilize", "--t-final", "1",
                        "--pe-tau", "0.2", "--snapshot-stride", "500"]),
    ("track-sin", ["simulate", "--scenario", "track", "--ref", "sin:1,1"]),
    ("track-truncated", ["simulate", "--scenario", "track", "--ref", "sin:1,1", "--servo-j", "1",
                         "--t-final", "0.2"]),
    ("track-const", ["simulate", "--scenario", "track", "--ref", "const:3",
                     "--snapshot-stride", "5000"]),
    ("open-loop", ["simulate", "--scenario", "open-loop", "--t-final", "2",
                   "--snapshot-stride", "1000"]),
    ("observer", ["simulate", "--scenario", "observer", "--u0", "exp-decay",
                  "--zeta0", "-0.1", "--snapshot-stride", "5000"]),
    ("error-system", ["simulate", "--scenario", "error-system", "--u0", "exp-decay",
                      "--zeta0", "-0.1", "--snapshot-stride", "5000"]),
    ("galerkin", ["simulate", "--scenario", "galerkin", "--u0", "exp-decay",
                  "--zeta0", "-0.1"]),
    ("oracle-fd", ["simulate", "--scenario", "error-system", "--dx", "0.005", "--dt", "1e-05",
                   "--t-final", "0.2", "--sample-stride", "1", "--u0", "exp-decay",
                   "--zeta0", "-0.1", "--pe-tau", "0.03"]),
    ("oracle-galerkin", ["simulate", "--scenario", "galerkin", "--modes", "32", "--dx", "0.005",
                         "--dt", "1e-05", "--t-final", "0.2", "--sample-stride", "1",
                         "--u0", "exp-decay", "--zeta0", "-0.1", "--pe-tau", "0.03"]),
    ("oracle-fd-analysis", ["analyze", "--trace", "oracle-fd/trace.csv", "--pe-tau", "0.03",
                            "--settle-window", "0.05"]),
    ("oracle-galerkin-analysis", ["analyze", "--trace", "oracle-galerkin/trace.csv",
                                  "--pe-tau", "0.03", "--settle-window", "0.05"]),
    ("blowup-open-loop", ["simulate", "--scenario", "open-loop", "--q", "9",
                          "--t-final", "1", "--pe-tau", "0.5"]),
    ("blowup-stabilize", ["simulate", "--scenario", "stabilize", "--q", "9", "--c0", "0.01",
                          "--c1", "0.01", "--t-final", "1", "--pe-tau", "0.5"]),
    ("sweep-c0-six", ["sweep", "--scenario", "stabilize", "--param", "c0",
                      "--values", "3,4,5,6,7,8", "--t-final", "0.5", "--pe-tau", "0.1"]),
    ("sweep-c0", ["sweep", "--scenario", "stabilize", "--param", "c0",
                  "--values", "3,8", "--t-final", "0.5", "--pe-tau", "0.1"]),
    ("sweep-track", ["sweep", "--scenario", "track", "--ref", "sin:1,1", "--param", "c0",
                     "--values", "3,5", "--t-final", "0.5", "--pe-tau", "0.1"]),
    ("sweep-q-blow-up", ["sweep", "--scenario", "stabilize", "--param", "q",
                         "--values", "2,5,9", "--c0", "0.01", "--c1", "0.01",
                         "--t-final", "1", "--pe-tau", "0.5"]),
    ("sweep-b-overflow", ["sweep", "--scenario", "stabilize", "--param", "b",
                          "--values=-10,-1e307,-1e308", "--t-final", "0.5",
                          "--pe-tau", "0.1"]),
    ("sweep-t-final", ["sweep", "--scenario", "stabilize", "--param", "t-final",
                       "--values", "0.5,0.8"]),
    ("track-servo-j-84", ["simulate", "--scenario", "track", "--ref", "sin:1,1", "--servo-j", "84",
                          "--t-final", "0.2"]),
    ("stabilize-stride-1", ["simulate", "--scenario", "stabilize", "--sample-stride", "1",
                            "--t-final", "0.05", "--pe-tau", "0.01"]),
    ("observer-stride-7", ["simulate", "--scenario", "observer", "--u0", "exp-decay",
                           "--zeta0", "-0.1", "--sample-stride", "7", "--snapshot-stride", "45",
                           "--t-final", "0.3", "--pe-tau", "0.05"]),
    ("error-system-stride-65", ["simulate", "--scenario", "error-system", "--u0", "exp-decay",
                                "--zeta0", "-0.1", "--sample-stride", "65",
                                "--snapshot-stride", "130", "--t-final", "0.5",
                                "--pe-tau", "0.1"]),
    ("stabilize-n101", ["simulate", "--scenario", "stabilize", "--dx", "0.01", "--dt", "4e-5",
                        "--t-final", "0.1", "--pe-tau", "0.02", "--sample-stride", "7",
                        "--snapshot-stride", "700"]),
    ("stabilize-n102", ["simulate", "--scenario", "stabilize", "--dx", "0.009900990099009901",
                        "--dt", "4e-5", "--t-final", "0.1", "--pe-tau", "0.02",
                        "--sample-stride", "7", "--snapshot-stride", "700"]),
    ("sweep-c0-n126", ["sweep", "--scenario", "stabilize", "--param", "c0",
                       "--values", "3,4,5,6", "--dx", "0.008", "--dt", "2e-5",
                       "--t-final", "0.1", "--pe-tau", "0.02", "--snapshot-stride", "2000"]),
    ("sweep-q-blow-up-n126", ["sweep", "--scenario", "stabilize", "--param", "q",
                              "--values", "2,5,9", "--c0", "0.01", "--c1", "0.01",
                              "--dx", "0.008", "--dt", "2e-5", "--t-final", "0.3",
                              "--pe-tau", "0.1"]),
    ("stabilize-handover", ["simulate", "--scenario", "stabilize", "--q", "6", "--c0", "0.5",
                            "--c1", "0.5", "--t-final", "0.5", "--pe-tau", "0.1",
                            "--sample-stride", "37", "--snapshot-stride", "50"]),
    ("error-system-blow-up", ["simulate", "--scenario", "error-system", "--u0", "const:300",
                              "--zeta0", "-0.1", "--t-final", "0.05", "--pe-tau", "0.01",
                              "--sample-stride", "7", "--snapshot-stride", "45"]),
    ("track-n101", ["simulate", "--scenario", "track", "--ref", "sin:1,1", "--dx", "0.01",
                    "--dt", "4e-5", "--t-final", "0.1", "--pe-tau", "0.02",
                    "--sample-stride", "7", "--snapshot-stride", "700"]),
    ("track-n102", ["simulate", "--scenario", "track", "--ref", "sin:1,1",
                    "--dx", "0.009900990099009901", "--dt", "4e-5", "--t-final", "0.1",
                    "--pe-tau", "0.02", "--sample-stride", "7", "--snapshot-stride", "700"]),
    ("track-handover", ["simulate", "--scenario", "track", "--ref", "sin:1,1", "--q", "6",
                        "--c0", "0.5", "--c1", "0.5", "--t-final", "0.5", "--pe-tau", "0.1",
                        "--sample-stride", "37", "--snapshot-stride", "50"]),
    ("open-loop-stride-7", ["simulate", "--scenario", "open-loop", "--q", "9", "--t-final", "1",
                            "--pe-tau", "0.5", "--sample-stride", "7",
                            "--snapshot-stride", "45"]),
    ("stabilize-unused-ref", ["simulate", "--scenario", "stabilize", "--ref", "tri:1"]),
    ("open-loop-unused-u0", ["simulate", "--scenario", "open-loop", "--u0", "bogus"]),
    ("stabilize-chunks", ["simulate", "--scenario", "stabilize", "--sample-stride", "300",
                          "--snapshot-stride", "700", "--t-final", "1"]),
    ("error-system-stride-1", ["simulate", "--scenario", "error-system", "--u0", "exp-decay",
                               "--zeta0", "-0.1", "--sample-stride", "1", "--t-final", "0.2",
                               "--pe-tau", "0.05"]),
    ("track-chunks", ["simulate", "--scenario", "track", "--ref", "sin:1,1",
                      "--sample-stride", "257", "--t-final", "1"]),
    ("observer-stride-1", ["simulate", "--scenario", "observer", "--u0", "exp-decay",
                           "--zeta0", "-0.1", "--sample-stride", "1", "--snapshot-stride", "300",
                           "--t-final", "0.1", "--pe-tau", "0.02"]),
    ("open-loop-chunks", ["simulate", "--scenario", "open-loop", "--sample-stride", "700",
                          "--snapshot-stride", "1000", "--t-final", "2"]),
    ("track-n102-neg", ["simulate", "--scenario", "track", "--ref", "sin:-1,2",
                        "--dx", "0.009900990099009901", "--dt", "4e-5", "--t-final", "0.1",
                        "--pe-tau", "0.02", "--sample-stride", "7", "--snapshot-stride", "700"]),
    ("track-n102-truncated", ["simulate", "--scenario", "track", "--ref", "sin:1,0.1",
                              "--servo-j", "1", "--dx", "0.009900990099009901", "--dt", "4e-5",
                              "--t-final", "0.05", "--pe-tau", "0.02"]),
    ("stabilize-b-pos", ["simulate", "--scenario", "stabilize", "--b", "10"]),
    ("track-b-pos", ["simulate", "--scenario", "track", "--b", "10", "--ref", "sin:1,1"]),
    ("observer-n3", ["simulate", "--scenario", "observer", "--dx", "0.5", "--dt", "0.01",
                     "--t-final", "1", "--u0", "exp-decay", "--sample-stride", "3",
                     "--snapshot-stride", "7"]),
    ("error-system-n3", ["simulate", "--scenario", "error-system", "--dx", "0.5", "--dt", "0.01",
                         "--t-final", "1", "--u0", "exp-decay", "--sample-stride", "3",
                         "--snapshot-stride", "7"]),
    ("stabilize-n26", ["simulate", "--scenario", "stabilize", "--dx", "0.04"]),
    ("track-n41", ["simulate", "--scenario", "track", "--dx", "0.025", "--ref", "sin:1,1"]),
    ("sweep-c0-batch-snap", ["sweep", "--scenario", "stabilize", "--param", "c0",
                             "--values", "3,4,5,6", "--t-final", "0.3", "--pe-tau", "0.1",
                             "--sample-stride", "37", "--snapshot-stride", "700"]),
    ("sweep-zeta0-runaway", ["sweep", "--scenario", "stabilize", "--param", "zeta0",
                             "--values", "0,0.05,1e11,-0.05", "--t-final", "0.3",
                             "--pe-tau", "0.1", "--sample-stride", "37",
                             "--snapshot-stride", "700"]),
)

#: runs heatadapt's CLI on the arguments that follow
_MAIN = "import sys; from heatadapt.cli import main; sys.exit(main(sys.argv[1:]))"
#: manifest keys that hold wall time or absolute paths
_VOLATILE = ("duration_s", "outputs")


def export(rev: str, dest: Path) -> None:
    """Write the files of revision ``rev`` of this repository under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter (Python 3.12, backported to 3.10.12) refuses unsafe members
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_all(tree: Path, out: Path) -> dict[str, tuple[int, str]]:
    """Run every command with ``tree``'s package; outputs go under ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # an installed heatadapt that shadows the tree's would make both runs the same
    where = subprocess.run([sys.executable, "-c", "import heatadapt; print(heatadapt.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if Path(where).resolve().parent != (tree / "src" / "heatadapt").resolve():
        raise SystemExit(f"identity: {tree} runs heatadapt from {where}")
    out.mkdir(parents=True)
    status = {}
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv, "--out", name],
                              cwd=out, env=env, capture_output=True, text=True)
        status[name] = (proc.returncode, proc.stderr)
    return status


def _manifest(path: Path) -> dict:
    data = json.loads(path.read_text())
    for key in _VOLATILE:
        data.pop(key, None)
    return data


def csv_table(a: Path, b: Path) -> list[str]:
    """Per column of two CSV files: max |delta| over max |value|."""
    with a.open() as fa, b.open() as fb:
        head_a, head_b = fa.readline(), fb.readline()
    if head_a != head_b:
        return [f"    headers differ: {head_a.strip()!r} vs {head_b.strip()!r}"]
    # snapshots.csv leaves the what cell empty for runs without an observer: NaN here
    x, y = (np.genfromtxt(f, delimiter=",", skip_header=1, ndmin=2) for f in (a, b))
    if x.shape != y.shape:
        return [f"    shapes differ: {x.shape} vs {y.shape}"]
    lines = []
    for j, col in enumerate(head_a.strip().split(",")):
        xj, yj = x[:, j], y[:, j]
        if np.array_equal(xj, yj, equal_nan=True):
            continue
        if (np.isnan(xj) != np.isnan(yj)).any():
            lines.append(f"    {col:>14}  empty or non-finite cells differ")
            continue
        kept = ~np.isnan(xj)
        delta = float(np.abs(xj[kept] - yj[kept]).max())
        scale = float(np.abs(xj[kept]).max())
        rel = delta / scale if scale else float("inf")
        lines.append(f"    {col:>14}  max|d| {delta:.3e}  scale {scale:.3e}  rel {rel:.3e}")
    return lines or ["    values equal, bytes differ"]


def compare(out_a: Path, out_b: Path) -> tuple[int, list[str]]:
    """Compare every file under two output directories: (files checked, differences)."""
    files = sorted({p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()}
                   | {p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file()})
    diffs = []
    for rel in files:
        a, b = out_a / rel, out_b / rel
        if not (a.is_file() and b.is_file()):
            diffs.append(f"{rel}: only in {'base' if a.is_file() else 'this tree'}")
        elif rel.name == "manifest.json":
            ma, mb = _manifest(a), _manifest(b)
            # dumps keeps the key order of every level, which == on dicts ignores
            if json.dumps(ma) != json.dumps(mb):
                keys = sorted(k for k in ma.keys() | mb.keys()
                              if k not in ma or k not in mb
                              or json.dumps(ma[k]) != json.dumps(mb[k]))
                diffs.append(f"{rel}: differs in {', '.join(keys) or 'key order'}")
        elif a.read_bytes() != b.read_bytes():
            diffs.append(f"{rel}: bytes differ")
            if rel.suffix == ".csv":
                diffs.extend(csv_table(a, b))
    return len(files), diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="heatadapt-identity-") as tmp:
        work = Path(tmp)
        try:
            export(args.against, work / "base")
        except subprocess.CalledProcessError as exc:
            print(f"identity: cannot export {args.against!r}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        status_a = run_all(work / "base", work / "out" / "a")
        status_b = run_all(ROOT, work / "out" / "b")
        n_files, diffs = compare(work / "out" / "a", work / "out" / "b")
    for name, _ in COMMANDS:
        (code_a, err_a), (code_b, err_b) = status_a[name], status_b[name]
        print(f"{name:>24}  exit {code_b}")
        if code_a != code_b:
            diffs.append(f"{name}: exit {code_a} -> {code_b}")
        if err_a != err_b:
            diffs.append(f"{name}: stderr differs")
    if diffs:
        print(f"{len(COMMANDS)} commands, {n_files} files: DIFFERENCES against {args.against}")
        print("\n".join(diffs))
        return 1
    print(f"{len(COMMANDS)} commands, {n_files} files: identical to {args.against} "
          f"(manifests without {', '.join(_VOLATILE)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
