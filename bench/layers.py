"""Per-layer and per-command timings of one source tree, written to a BENCH file.

    python3 bench/layers.py --label change --out BENCH.json
    python3 bench/layers.py --src /path/to/other/checkout/src --label parent --out BENCH.json

In process, each layer is timed with ``timeit`` (one call per sample) and
reported as the median and interquartile range in seconds: the key.csv
write and read-back at N = 16 665 and 10^6 rows, the 200-resample
bootstrap, simulate/sift/estimate, one Gaussian op (``apply_loss``), the
readout moments, ``holevo_dr``, ``composite_key``, and one crossing of
each kind (``noise_tolerance`` and ``max_tolerable_loss``).
In fresh processes, each subcommand is timed by wall clock, ``protocol``
at both N, with the peak resident set of its largest process.

The program is imported from --src (default: this checkout's ``src``). The
file keeps one entry per --label, so rows from two trees measured on the
same machine sit side by side; each entry records the machine, the Python
and numpy versions and the tree's source lines. BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(BLAS_ENV)

PAPER_N = 16665
LARGE_N = 10**6
# samples per layer and command; a third as many, at least 5, at N = 10**6
REPEAT = 15
LARGE_REPEAT = max(5, REPEAT // 3)


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": median, "iqr_s": q3 - q1, "samples": len(samples)}


def _timed(fn, repeat: int = REPEAT) -> dict:
    fn()  # tables, caches and page faults of the first call stay out
    return _quartiles(timeit.repeat(fn, number=1, repeat=repeat))


def in_process(workdir: Path) -> dict:
    import numpy as np

    import mwqkd
    from mwqkd import gaussian, linkbudget, protocol, security, stats
    from mwqkd.devices import ChannelParams

    chain, channel = mwqkd.RUN2_CHAIN, ChannelParams(0.0115, 1.7e-6)
    rows = {}

    def run(n):
        codebook = protocol.generate_codebook(n, chain.codebook_variance, seed=1)
        record = protocol.simulate_transmission(codebook, chain, channel, seed=2)
        alpha, beta = protocol.sift(record)
        return record, alpha, beta, protocol.estimate_channel(alpha, beta, chain)

    record, alpha, beta, estimate = run(PAPER_N)
    rows["simulate_sift_estimate.16665"] = _timed(lambda: run(PAPER_N))
    rows["bootstrap_mi_sigma.16665"] = _timed(
        lambda: stats.bootstrap_mi_sigma(alpha, beta, 200, 3)
    )
    state = gaussian.GaussianState(np.zeros(4), 0.25 * np.eye(4))
    rows["gaussian.apply_loss"] = _timed(lambda: gaussian.apply_loss(state, 0.0115, 1.7e-6))
    readout = chain.readout
    rows["readout_moments"] = _timed(lambda: readout.moments(0.0115, 1.7e-6))
    rows["holevo_dr"] = _timed(lambda: security.holevo_dr(chain, channel))
    rows["composite_key"] = _timed(
        lambda: security.composite_key(chain, estimate=estimate, n_raw=PAPER_N)
    )
    rows["noise_tolerance"] = _timed(lambda: security.noise_tolerance(chain, 0.0115))
    rows["max_tolerable_loss"] = _timed(lambda: linkbudget.max_tolerable_loss(chain, 1e-3))
    for n, reps in ((PAPER_N, REPEAT), (LARGE_N, LARGE_REPEAT)):
        record = run(n)[0] if n != PAPER_N else record
        path = workdir / f"key-{n}.csv"
        rows[f"write_key_records.{n}"] = _timed(
            lambda: protocol.write_key_records(record, path), reps
        )
        rows[f"read_key_records.{n}"] = _timed(lambda: protocol.read_key_records(path), reps)
    return rows


def _wall(argv: list[str], env: dict, repeat: int) -> dict:
    """Wall time of `argv` in fresh processes, and the median and largest of
    the runs' peak RSS (that of the largest process of each run)."""
    times, peaks = [], []
    for _ in range(repeat):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        times.append(time.perf_counter() - start)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 3):
            raise SystemExit(f"error: {argv} exited {proc.returncode}")
        peaks.append(usage.ru_maxrss / 1024)  # kB on Linux
    row = _quartiles(times)
    row["peak_rss_mb"] = statistics.median(peaks)
    row["peak_rss_mb_max"] = max(peaks)
    return row


def fresh_processes(src: Path, workdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    base = [sys.executable, "-m", "mwqkd"]
    commands = {
        "report": ["report", "--preset", "run2", "--nbar", "1.7e-6"],
        "sweep": ["sweep", "--preset", "run2", "--out", str(workdir / "sweep.csv")],
        "linkbudget": ["linkbudget", "--preset", "run2", "--out", str(workdir / "lb.csv")],
        f"protocol.{PAPER_N}": ["protocol", "--preset", "run2", "--seed", "1",
                                "--n-symbols", str(PAPER_N), "--out", str(workdir / "p1")],
        f"protocol.{LARGE_N}": ["protocol", "--preset", "run2", "--seed", "1",
                                "--n-symbols", str(LARGE_N), "--out", str(workdir / "p2")],
    }
    return {
        name: _wall(base + argv, env, LARGE_REPEAT if name.endswith(str(LARGE_N)) else REPEAT)
        for name, argv in commands.items()
    }


def provenance(src: Path) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "machine": {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": BLAS_ENV,
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in sorted(src.rglob("*.py"))
        ),
    }


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=root / "src",
                        help="source tree that holds the mwqkd package")
    parser.add_argument("--label", required=True, help="name of this tree's entry")
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON file to update")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "mwqkd" / "cli.py").is_file():
        raise SystemExit(f"error: no mwqkd package under {src}")
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory() as tmp:
        # fresh processes first: a child's peak RSS counts the pages it was
        # forked with, so this process must not have grown yet
        fresh = fresh_processes(src, Path(tmp))
        entry = provenance(src)
        entry["fresh_process"] = fresh
        entry["in_process"] = in_process(Path(tmp))
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench.setdefault("runs", {})[args.label] = entry
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps({args.label: entry}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
