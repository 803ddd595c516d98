"""Process set-up shared by the benchmark scripts: one BLAS thread, the
program imported from the checkout's ``src``, and the provenance block.

Import this module before anything that imports numpy.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

WORK_DIR = ".perfbench_work"  # scratch outputs, inside the checkout
OUT_DIR = ".perfbench_out"  # detailed result files, inside the checkout


def checkout_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_dir(root: str) -> str:
    return os.path.join(root, "src")


def import_program(root: str):
    """Import ``mwqkd`` from the checkout's ``src``, never from elsewhere."""
    src = src_dir(root)
    if not os.path.isfile(os.path.join(src, "mwqkd", "cli.py")):
        raise SystemExit(f"error: no program to measure: {src}/mwqkd/cli.py is missing")
    sys.path.insert(0, src)
    import mwqkd
    import mwqkd.cli  # noqa: F401  (the tracer patches every loaded module)

    if os.path.dirname(os.path.dirname(os.path.abspath(mwqkd.__file__))) != src:
        raise SystemExit(f"error: mwqkd was imported from {mwqkd.__file__}, not {src}")
    return mwqkd


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def provenance(root: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "not_controlled": [
            "no CPU pinning: the process may migrate between cores",
            "no page-cache dropping: transcript reads may hit a warm cache",
            "the machine's cores and memory are shared with other workloads",
        ],
    }
