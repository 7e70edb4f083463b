#!/usr/bin/env python3
"""Check that this tree's CLI outputs are byte-identical to those of a git revision.

    python3 tools/identity.py --against REV [--expect FILE]

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
differs, 2 when REV cannot be exported or FILE cannot be read.

A change that moves outputs on purpose declares them in FILE, a JSON
object that maps a command of :data:`COMMANDS` to ``{"moves":
"rounding", "bound": b}``.  A declared command's CSV columns may move
by at most b times the column's max |value|, with the same header,
shape and empty or non-finite cells; its manifests may differ in
``verdicts`` only, where every number may move by at most b times its
magnitude and every bool, string and None, every key and list length,
and ``blown_up`` and ``blow_up_time`` compare exactly.  Its exit code,
stderr, ``route``, ``handover_step``, ``samples`` and every other file
compare exactly, as every output of an undeclared command does.  A declared
command whose outputs come out identical fails as stale: FILE holds the
moves of one change against its parent, and the next change empties it.
The table of each declared command's worst move is printed for the
change's CHANGES.md entry.
"""

from __future__ import annotations

import argparse
import io
import json
import math
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
#: zeta0 sweep whose runaway member sends every member back to run alone; and
#: an error-system run whose zeta samples are all subnormal, which the CSV
#: writer prints through its ``%`` fallback
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
    ("error-system-fallback", ["simulate", "--scenario", "error-system", "--u0", "zero",
                               "--zeta0", "5e-324", "--t-final", "0.1"]),
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


def csv_moves(a: Path, b: Path) -> tuple[str | None, list[tuple[str, float, float, float]]]:
    """Why two CSV files do not compare column by column, or None, and each moved column.

    A moved column is ``(name, max |delta|, max |value|, their ratio)``;
    its empty or non-finite cells, where they differ, move it infinitely.
    """
    with a.open() as fa, b.open() as fb:
        head_a, head_b = fa.readline(), fb.readline()
    if head_a != head_b:
        return f"headers differ: {head_a.strip()!r} vs {head_b.strip()!r}", []
    # snapshots.csv leaves the what cell empty for runs without an observer: NaN here
    x, y = (np.genfromtxt(f, delimiter=",", skip_header=1, ndmin=2) for f in (a, b))
    if x.shape != y.shape:
        return f"shapes differ: {x.shape} vs {y.shape}", []
    moves = []
    for j, col in enumerate(head_a.strip().split(",")):
        xj, yj = x[:, j], y[:, j]
        if np.array_equal(xj, yj, equal_nan=True):
            continue
        if (np.isnan(xj) != np.isnan(yj)).any():
            moves.append((col, math.nan, math.nan, math.inf))
            continue
        kept = ~np.isnan(xj)
        delta = float(np.abs(xj[kept] - yj[kept]).max())
        scale = float(np.abs(xj[kept]).max())
        moves.append((col, delta, scale, delta / scale if scale else math.inf))
    return None, moves


def csv_table(why: str | None, moves: list[tuple[str, float, float, float]]) -> list[str]:
    """The lines of :func:`csv_moves`' result: per moved column, max |delta| over max |value|."""
    if why:
        return [f"    {why}"]
    lines = []
    for col, delta, scale, rel in moves:
        if math.isnan(delta):
            lines.append(f"    {col:>14}  empty or non-finite cells differ")
        else:
            lines.append(f"    {col:>14}  max|d| {delta:.3e}  scale {scale:.3e}  rel {rel:.3e}")
    return lines or ["    values equal, bytes differ"]


#: manifest entries that compare exactly when a command is declared to move:
#: top-level keys other than verdicts, and these of verdicts
_EXACT_VERDICTS = ("blown_up", "blow_up_time")


def load_expect(path: str) -> dict[str, dict]:
    """The declared moves of FILE (see the module docstring); raises ValueError if malformed."""
    try:
        expect = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    names = {name for name, _ in COMMANDS}
    if not isinstance(expect, dict):
        raise ValueError(f"{path}: expected a JSON object of commands")
    for name, move in expect.items():
        if name not in names:
            raise ValueError(f"{path}: {name!r} is not a command of the identity list")
        bound = move.get("bound") if isinstance(move, dict) else None
        if not (move == {"moves": "rounding", "bound": bound}
                and type(bound) in (int, float) and 0 < bound < math.inf):
            raise ValueError(f"{path}: {name!r} declares {move!r}, not rounding with a bound "
                             "b > 0")
    return expect


def verdict_moves(a, b, path: str = "verdicts") -> list[tuple[str, float]]:
    """Where two verdict trees differ: each number's |delta| over its magnitude.

    A bool, string or None that differs, a dict with other keys or
    another key order, a list of another length, or a number against a
    non-number moves infinitely.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [(path, math.inf)]
        return [move for key in a for move in verdict_moves(a[key], b[key], f"{path}.{key}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(path, math.inf)]
        return [move for i, (x, y) in enumerate(zip(a, b))
                for move in verdict_moves(x, y, f"{path}[{i}]")]
    if type(a) in (int, float) and type(b) in (int, float):  # bool is not a number here
        if a == b or math.isnan(a) and math.isnan(b):
            return []
        scale = max(abs(a), abs(b))
        return [(path, abs(a - b) / scale if math.isfinite(scale) else math.inf)]
    return [] if type(a) is type(b) and a == b else [(path, math.inf)]


def compare(out_a: Path, out_b: Path,
            expect: dict[str, dict] | None = None) -> tuple[int, list[str], dict[str, tuple]]:
    """Compare every file under two output directories, one directory per command.

    Returns the files checked, the differences that fail, and for each
    command of ``expect`` that moved as declared, its worst move:
    ``(|delta| / scale, file, column or verdict)``.  A declared command
    that did not move is a difference (stale).
    """
    expect = expect or {}
    files = sorted({p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()}
                   | {p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file()})
    diffs, worst = [], {}

    def moved(command: str, rel: float, where: str = "", col: str = "") -> None:
        if rel >= worst.get(command, (-1.0,))[0]:
            worst[command] = (rel, where, col)

    for rel in files:
        a, b = out_a / rel, out_b / rel
        declared = expect.get(rel.parts[0])
        if not (a.is_file() and b.is_file()):
            diffs.append(f"{rel}: only in {'base' if a.is_file() else 'this tree'}")
        elif rel.name == "manifest.json":
            ma, mb = _manifest(a), _manifest(b)
            # dumps keeps the key order of every level, which == on dicts ignores
            if json.dumps(ma) != json.dumps(mb):
                keys = sorted(k for k in ma.keys() | mb.keys()
                              if k not in ma or k not in mb
                              or json.dumps(ma[k]) != json.dumps(mb[k]))
                va, vb = (m.get("verdicts") or {} for m in (ma, mb))
                keys += [k for k in _EXACT_VERDICTS if va.get(k) != vb.get(k)]
                if not (declared and keys == ["verdicts"]):
                    diffs.append(f"{rel}: differs in {', '.join(keys) or 'key order'}")
                    continue
                moves = verdict_moves(va, vb)
                over = [(path, r) for path, r in moves if not r <= declared["bound"]]
                if over:
                    diffs.append(f"{rel}: moves past its bound {declared['bound']:g} in "
                                 f"{', '.join(path for path, _ in over)}")
                    diffs.extend(f"    {path}  rel {r:.3e}" for path, r in over)
                else:
                    rel_max, path = max(((r, p) for p, r in moves), default=(0.0, "verdicts"))
                    moved(rel.parts[0], rel_max, str(Path(*rel.parts[1:])), path)
        elif a.read_bytes() != b.read_bytes():
            why, moves = csv_moves(a, b) if rel.suffix == ".csv" else ("", [])
            bound = declared["bound"] if declared else None
            over = [col for col, _, _, r in moves if not r <= bound] if declared else []
            if declared and why is None and not over:
                rel_max, col = max(((r, c) for c, _, _, r in moves), default=(0.0, ""))
                moved(rel.parts[0], rel_max, str(Path(*rel.parts[1:])), col)
                continue
            diffs.append(f"{rel}: moves past its bound {bound:g} in {', '.join(over)}" if over
                         else f"{rel}: bytes differ")
            if rel.suffix == ".csv":
                diffs.extend(csv_table(why, moves))
    for command in expect:
        if command not in worst:
            diffs.append(f"{command}: declared to move, but identical: the declaration is stale")
    return len(files), diffs, worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--expect", help="JSON file of the commands declared to move")
    args = parser.parse_args(argv)
    try:
        expect = load_expect(args.expect) if args.expect else {}
    except ValueError as exc:
        print(f"identity: {exc}", file=sys.stderr)
        return 2

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
        n_files, diffs, worst = compare(work / "out" / "a", work / "out" / "b", expect)
    for name, _ in COMMANDS:
        (code_a, err_a), (code_b, err_b) = status_a[name], status_b[name]
        print(f"{name:>24}  exit {code_b}")
        if code_a != code_b:
            diffs.append(f"{name}: exit {code_a} -> {code_b}")
        if err_a != err_b:
            diffs.append(f"{name}: stderr differs")
    if worst:
        print("declared moves, worst |delta| over the column's max |value| or the verdict's:")
        for name, (rel, where, col) in sorted(worst.items()):
            print(f"  {name:<24} <= {expect[name]['bound']:<7g} {rel:.2e}  {where} {col}".rstrip())
    if diffs:
        print(f"{len(COMMANDS)} commands, {n_files} files: DIFFERENCES against {args.against}")
        print("\n".join(diffs))
        return 1
    moves = f", but for the {len(worst)} declared commands" if worst else ""
    print(f"{len(COMMANDS)} commands, {n_files} files: identical to {args.against}{moves} "
          f"(manifests without {', '.join(_VOLATILE)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
