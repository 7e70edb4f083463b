"""One benchmark pass in a fresh interpreter.

    python3 bench/child.py SPEC PASS_DIR [--setup-only | --spans PATH --pass-id N]

Imports heatadapt from the checkout's src/ directory and resolves every
op of SPEC (a JSON file written by run.py) with ``cli.parse_args``, then
writes ``ready`` on stdout; the time until that line is the set-up time.
With ``--setup-only`` it then writes how long its numpy import took and
exits.  Otherwise it times the calibration kernel (calibrate.py), calls
``cli.main`` once per op, times the kernel again and writes one JSON
line: wall and CPU time summed over the calls, the kernel timings, the
numpy import time, the process's peak resident memory and each op's
exit code.  With ``--spans`` the calls run traced and the
spans are written to PATH.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    VmHWM belongs to this image alone.  Linux carries ru_maxrss across
    exec, so it would also count the benchmark process that spawned this
    one; it is only the fallback where /proc is missing.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    import argparse
    import contextlib
    import io
    import json
    import time

    # heatadapt imports numpy at module level, so importing it first adds
    # no work; its time is the set-up reference (see calibrate.py)
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    numpy_import_s = time.perf_counter() - t0
    from heatadapt import cli

    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("pass_dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args()

    spec = json.loads(Path(args.spec).read_text())
    ops = [[a.replace("{pass}", args.pass_dir) for a in op] for op in spec["ops"]]
    for op in ops:
        cli.parse_args(op)
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    if args.setup_only:
        sys.stdout.write(json.dumps({"numpy_import_s": numpy_import_s}) + "\n")
        return 0

    import calibrate

    calibration = [calibrate.measure()]

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer(args.pass_id)
        tracer.install()

    codes, wall, cpu = [], 0.0, 0.0
    sink = io.StringIO()  # analyze prints its JSON result; keep it off the protocol line
    for op in ops:
        with contextlib.redirect_stdout(sink):
            w0, c0 = time.perf_counter(), time.process_time()
            codes.append(cli.main(op))
            cpu += time.process_time() - c0
            wall += time.perf_counter() - w0
    peak_rss_mb = _peak_rss_mb()
    calibration.append(calibrate.measure())

    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, "codes": codes,
              "calibration": calibration, "numpy_import_s": numpy_import_s}
    if tracer is not None:
        tracer.dump(args.spans)
        result["counts"] = tracer.counts
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
