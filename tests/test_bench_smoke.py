"""The benchmark's smoke run as a test: every workload at a tiny size, traced
and untraced, with its output checks and the trace coverage checks (LSTM
steps per trained token, decode steps per greedy caption, tape nodes per
traced tape op)."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
