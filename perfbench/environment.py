"""The environment record printed with every benchmark result.

Everything here is read from files and from the running interpreter; no
process is started. Fields that cannot be read are reported as "unknown".
"""
from __future__ import annotations

import os
import platform
from pathlib import Path

# Set for the benchmark's own process before numpy is first imported (see run.py),
# which is why numpy is imported inside the functions below.
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    """Fix the BLAS thread count for this process; call before importing numpy."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def git_commit(root: Path) -> str:
    """HEAD of the repository at ``root``, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(root: Path, workload: str, seed: int) -> dict:
    import numpy as np

    blas = _blas_info()
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": BLAS_THREADS,  # pinned through the environment before numpy loads
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
    }
