import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_perstep_runs_every_probe():
    # a smoke run: its timings are not checked, only that each probe runs
    proc = subprocess.run([sys.executable, str(TOOLS / "perstep.py"), "--steps", "300",
                           "--repeats", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "best of 1, 300 steps a run, µs a step"
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["stabilize", "batch-c0", "error-system"]
    # the batch records no diss_cum: it has no time with the column and no saving
    assert rows[1][1] == rows[1][3] == "-"
    assert all(float(row[2]) > 0 for row in rows)
    assert float(rows[0][1]) > 0 and float(rows[2][1]) > 0
