"""Per-layer and per-command timings of one or more source trees, written to a BENCH file.

    python3 bench/layers.py --label change --out BENCH.json
    python3 bench/layers.py --src /path/to/parent/src --label parent \\
        --src src --label change --out BENCH.json

Each --src is paired with the --label of the same position (default: this
checkout's ``src``). The trees' samples alternate, and which tree goes
first alternates from sample to sample, so a drift of the machine's speed
lands on every tree alike instead of between them.

In process, each tree runs in a worker process of its own, which imports
it once. Each layer is timed with ``timeit`` over a call count fixed at
warm-up, the same for every tree: enough calls that the slowest tree's
sample lasts about SAMPLE_S, and at least one. It is reported in seconds
per call, as the median and interquartile range of the samples, with the
count (``calls_per_sample``). The layers: the key.csv
write and read-back at N = 16 665 and 10^6 rows, the write and read-back
of a 16 665-row record whose floats all take ``repr``'s exponent notation
(which the reader's kernel leaves to ``float``), the 200-resample
bootstrap, the 16 665-row write and the bootstrap each also in a child
forked through ``cli._in_child`` and joined, the whole ``protocol``
command at N = 16 665 (``cli.main``), simulate/sift/estimate, one
Gaussian op (``apply_loss``), the readout moments, ``holevo_dr``, ``composite_key``, one scalar
key evaluation as the reach crossings make it (``KeyEvaluator.key`` at (eps, n_th eps / 2);
on a tree without ``security.KeyEvaluator``, ``asymptotic_key`` of
``ChannelParams.from_environment``), one ``asymptotic_key`` call, one crossing of each
kind (``noise_tolerance`` and ``max_tolerable_loss``), the whole ``linkbudget``
command (``cli.main``, the default 14-row table), the sweep itself
(``security.sweep_noise`` over the ``sweep`` command's run2 grid of 41 and 401
points), the ``sweep`` CSV write at 41, 401 and 10^4 grid points (``cmd_sweep``
with its sweep and crossing computed beforehand), and ``cli.resolve_config`` of
``protocol``'s flags and of a ``--config`` file that fills every section
(``FULL_CONFIG``).
In fresh processes, each subcommand is timed by wall clock, ``sweep`` at
the default 41 points and at 401, ``protocol`` at both N, with the peak
resident set of its largest process. One more fresh process per command
(``report``, ``linkbudget``, ``sweep`` and ``protocol`` at N = 16 665)
lists the ``mwqkd`` modules whose bodies ran, with their summed raw and
code lines: a module registered lazily whose body never ran, still a
``LazyLoader`` module, does not count.

The file keeps one entry per --label, so rows from two trees measured on
the same machine sit side by side; each entry records the machine, the
Python and numpy versions, the tree's source lines, per module and in
total, both raw and as code lines (lines that hold code, counted without
docstrings, comments or blank lines), and the labels it was measured
with. BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tokenize
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
SWEEP_POINTS = (41, 401, 10**4)
# samples per layer and command, at every N
REPEAT = 15
# seconds an in-process sample lasts at least, unless one call takes longer:
# a row of a few microseconds timed one call at a time reads timer noise
SAMPLE_S = 0.05
# A --config file that fills every section: chain keys over a preset,
# the channel, the finite-size settings and the link budget.
FULL_CONFIG = {
    "preset": "run2",
    "chain": {"antisqueezing_db": 7.8, "hemt_noise_photons": 48.0,
              "path_losses": [0.0, 0.01, 0.0, 0.0]},
    "channel": {"loss": 0.02, "noise_photons": 1.7e-6},
    "noise_grid": {"start": 0.0, "stop": 0.1, "num": 41},
    "n_symbols": PAPER_N,
    "seed": 1,
    "announce_bases": True,
    "security": {"e_ec": 1e-9, "beta_ec": 0.95, "p_ec": 0.99, "n_ec_fraction": 0.4,
                 "include_delta": True, "include_estimation_penalty": False},
    "bandwidth_hz": 5e5,
    "linkbudget": {"medium": "openair-300K", "occupancies": [1e-4, 1.0, 1250.0]},
}


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": median, "iqr_s": q3 - q1, "samples": len(samples)}


def _alternating(items: list, rounds: int):
    """`rounds` passes over `items`, every other pass in reverse order."""
    for i in range(rounds):
        yield from items if i % 2 == 0 else items[::-1]


def _sweep_csv(n: int, path: Path):
    """``cmd_sweep`` over an n-point run2 grid, its sweep and crossing
    computed beforehand, so that a call times the CSV write."""
    import numpy as np

    from mwqkd import cli, security

    args = cli.build_parser().parse_args(["sweep", "--preset", "run2", "--out", str(path)])
    grid = tuple(np.linspace(0.0, 0.1, n).tolist())
    cfg = dataclasses.replace(cli.resolve_config(args), noise_grid=grid)
    sweep = security.sweep_noise(cfg.chain, cfg.channel_loss, grid, **cfg.key_settings)
    crossing = security.noise_tolerance(cfg.chain, cfg.channel_loss)

    def write():
        saved = security.sweep_noise, security.noise_tolerance
        security.sweep_noise = lambda *args, **kwargs: sweep
        security.noise_tolerance = lambda *args, **kwargs: crossing
        try:
            cli.cmd_sweep(cfg, args)
        finally:
            security.sweep_noise, security.noise_tolerance = saved

    return write


def in_process_layers(workdir: Path) -> dict:
    """The timed layers of the imported tree, by name."""
    import numpy as np

    import mwqkd
    from mwqkd import cli, gaussian, linkbudget, protocol, security, stats
    from mwqkd.devices import ChannelParams

    chain, channel = mwqkd.RUN2_CHAIN, ChannelParams(0.0115, 1.7e-6)

    def run(n):
        codebook = protocol.generate_codebook(n, chain.codebook_variance, seed=1)
        record = protocol.simulate_transmission(codebook, chain, channel, seed=2)
        alpha, beta = protocol.sift(record)
        return record, alpha, beta, protocol.estimate_channel(alpha, beta, chain)

    def forked(fn, *args):
        """fn(*args) in a child forked through ``cli._in_child``, then
        joined; a write's None goes back through the pipe as 0.0."""
        return lambda: cli._in_child(lambda: fn(*args) or 0.0)()

    record, alpha, beta, estimate = run(PAPER_N)
    state = gaussian.GaussianState(np.zeros(4), 0.25 * np.eye(4))
    readout = chain.readout
    # one point of the open-air reach crossing, near its root
    eps, n_th = 1e-4, linkbudget.OPEN_AIR.background_photons
    if hasattr(security, "KeyEvaluator"):
        key, half = security.KeyEvaluator(chain).key, 0.5 * n_th

        def key_evaluation():
            return key(eps, half * eps)
    else:
        def key_evaluation():
            return security.asymptotic_key(chain, ChannelParams.from_environment(eps, n_th))
    layers = {
        "simulate_sift_estimate.16665": lambda: run(PAPER_N),
        "bootstrap_mi_sigma.16665": lambda: stats.bootstrap_mi_sigma(alpha, beta, 200, 3),
        "bootstrap_mi_sigma.child.16665": forked(stats.bootstrap_mi_sigma, alpha, beta, 200, 3),
        f"write_key_records.child.{PAPER_N}": forked(
            protocol.write_key_records, record, workdir / "key-child.csv"
        ),
        f"cmd_protocol.{PAPER_N}": lambda: cli.main([
            "protocol", "--preset", "run2", "--seed", "1", "--n-symbols", str(PAPER_N),
            "--out", str(workdir / "protocol"),
        ]),
        "gaussian.apply_loss": lambda: gaussian.apply_loss(state, 0.0115, 1.7e-6),
        "readout_moments": lambda: readout.moments(0.0115, 1.7e-6),
        "holevo_dr": lambda: security.holevo_dr(chain, channel),
        "key_evaluation": key_evaluation,
        "asymptotic_key": lambda: security.asymptotic_key(chain, channel),
        "composite_key": lambda: security.composite_key(
            chain, estimate=estimate, n_raw=PAPER_N
        ),
        "noise_tolerance": lambda: security.noise_tolerance(chain, 0.0115),
        "max_tolerable_loss": lambda: linkbudget.max_tolerable_loss(chain, 1e-3),
        "cmd_linkbudget": lambda: cli.main([
            "linkbudget", "--preset", "run2", "--out", str(workdir / "linkbudget.csv"),
        ]),
    }
    # alpha * 1e-6 and beta * 1e-8 print in exponent notation, which the
    # key.csv writer leaves to repr
    exponent_record = dataclasses.replace(
        record, alice_symbols=record.alice_symbols * 1e-6, outcomes=record.outcomes * 1e-8
    )
    exponent_path = workdir / "key-exponent.csv"
    layers[f"write_key_records.exponent.{PAPER_N}"] = lambda: protocol.write_key_records(
        exponent_record, exponent_path
    )
    # the reader's worst case: every float goes through float()
    protocol.write_key_records(exponent_record, exponent_path)
    layers[f"read_key_records.exponent.{PAPER_N}"] = lambda: protocol.read_key_records(
        exponent_path
    )
    for n, record in ((PAPER_N, record), (LARGE_N, run(LARGE_N)[0])):
        path = workdir / f"key-{n}.csv"
        layers[f"write_key_records.{n}"] = (
            lambda record=record, path=path: protocol.write_key_records(record, path)
        )
        layers[f"read_key_records.{n}"] = lambda path=path: protocol.read_key_records(path)
    for n in SWEEP_POINTS:
        layers[f"sweep_csv.{n}"] = _sweep_csv(n, workdir / f"sweep-{n}.csv")
    for n in SWEEP_POINTS[:2]:
        grid = np.linspace(0.0, 0.1, n).tolist()
        layers[f"sweep_noise.{n}"] = lambda grid=grid: security.sweep_noise(
            chain, 0.0115, grid, n_raw=PAPER_N
        )
    parser, full = cli.build_parser(), workdir / "config-full.json"
    full.write_text(json.dumps(FULL_CONFIG))
    flags = parser.parse_args([
        "protocol", "--preset", "run2", "--loss", "0.02", "--nbar", "1.7e-6", "--n-symbols",
        str(PAPER_N), "--no-delta", "--no-pe", "--e-ec", "1e-9", "--beta", "0.95",
        "--n-ec-fraction", "0.4", "--seed", "1", "--announce-bases", "--out", str(workdir),
    ])
    from_file = parser.parse_args(["report", "--config", str(full)])
    layers["resolve_config.flags"] = lambda: cli.resolve_config(flags)
    layers["resolve_config.file"] = lambda: cli.resolve_config(from_file)
    return layers


def _worker(src: str, workdir: str, conn) -> None:
    """Serve one tree's layers: each (name, calls) received is one sample,
    answered with its seconds per call; None ends the worker."""
    sys.path.insert(0, src)
    # the commands' messages go nowhere
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        layers = in_process_layers(Path(workdir))
        conn.send(list(layers))
        while (request := conn.recv()) is not None:
            name, calls = request
            conn.send(timeit.Timer(layers[name]).timeit(number=calls) / calls)


def in_process(trees: dict, workdir: Path) -> dict:
    """Layer timings of each tree (label -> src), one worker process per
    tree, the trees' samples alternating."""
    spawn = multiprocessing.get_context("spawn")
    conns, workers = {}, []
    try:
        for label, src in trees.items():
            conns[label], child = spawn.Pipe()
            tree_dir = workdir / f"in-process-{len(workers)}"
            tree_dir.mkdir()
            workers.append(spawn.Process(target=_worker, args=(str(src), str(tree_dir), child)))
            workers[-1].start()
        names = [conn.recv() for conn in conns.values()][0]  # each worker's, once set up

        def sample(label, name, calls=1):
            conns[label].send((name, calls))
            return conns[label].recv()

        labels = list(trees)
        rows = {label: {} for label in labels}
        for name in names:
            # tables, caches and page faults of the first call stay out; the
            # second sets the call count of every tree's samples
            for label in labels:
                sample(label, name)
            calls = max(1, int(SAMPLE_S / max(sample(label, name) for label in labels)))
            samples = {label: [] for label in labels}
            for label in _alternating(labels, REPEAT):
                samples[label].append(sample(label, name, calls))
            for label in labels:
                rows[label][name] = {**_quartiles(samples[label]), "calls_per_sample": calls}
        for conn in conns.values():
            conn.send(None)
        for worker in workers:
            worker.join(timeout=60)
        return rows
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join()


def _wall(argv: list[str], src: Path) -> tuple[float, float]:
    """Wall time of `argv` run on the tree `src` in a fresh process, and
    the peak RSS in MB of its largest process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "mwqkd", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 3):
        raise SystemExit(f"error: {argv} on {src} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # kB on Linux


def _commands(workdir: Path) -> dict:
    """The argv of each fresh-process command, by name."""
    grid = workdir / "grid-401.json"
    grid.write_text(json.dumps(
        {"preset": "run2", "noise_grid": {"start": 0.0, "stop": 0.1, "num": 401}}
    ))
    return {
        "report": ["report", "--preset", "run2", "--nbar", "1.7e-6"],
        "sweep": ["sweep", "--preset", "run2", "--out", str(workdir / "sweep.csv")],
        "sweep.401": ["sweep", "--config", str(grid), "--out", str(workdir / "sweep-401.csv")],
        "linkbudget": ["linkbudget", "--preset", "run2", "--out", str(workdir / "lb.csv")],
        f"protocol.{PAPER_N}": ["protocol", "--preset", "run2", "--seed", "1",
                                "--n-symbols", str(PAPER_N), "--out", str(workdir / "p1")],
        f"protocol.{LARGE_N}": ["protocol", "--preset", "run2", "--seed", "1",
                                "--n-symbols", str(LARGE_N), "--out", str(workdir / "p2")],
    }


def fresh_processes(trees: dict, workdir: Path) -> dict:
    """Per-command wall time and peak RSS of each tree (label -> src), the
    trees' launches alternating: median and largest of the runs' peaks."""
    commands = _commands(workdir)
    labels = list(trees)
    rows = {label: {} for label in labels}
    for name, argv in commands.items():
        runs = {label: [] for label in labels}
        for label in _alternating(labels, REPEAT):
            runs[label].append(_wall(argv, trees[label]))
        for label in labels:
            times, peaks = zip(*runs[label])
            row = _quartiles(list(times))
            row["peak_rss_mb"] = statistics.median(peaks)
            row["peak_rss_mb_max"] = max(peaks)
            rows[label][name] = row
    return rows


# Runs one command, then prints the mwqkd modules whose bodies ran; the
# protocol command's forked child ends in os._exit and prints nothing.
_LOADED = """
import contextlib, json, os, sys, types
from mwqkd import cli
with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
    code = cli.main(sys.argv[1:])
assert code in (0, 3), code
print(json.dumps(sorted(
    (name, module.__file__) for name, module in sys.modules.items()
    if (name == "mwqkd" or name.startswith("mwqkd.")) and type(module) is types.ModuleType
)))
"""
LOADED_COMMANDS = ("report", "linkbudget", "sweep", f"protocol.{PAPER_N}")


def loaded_modules(src: Path, workdir: Path) -> dict:
    """Per command, the ``mwqkd`` modules whose bodies ran in a fresh
    process on the tree `src`, and their summed raw and code lines."""
    commands = _commands(workdir)
    env = dict(os.environ, PYTHONPATH=str(src))
    rows = {}
    for name in LOADED_COMMANDS:
        out = subprocess.run([sys.executable, "-c", _LOADED, *commands[name]], env=env,
                             check=True, capture_output=True, text=True).stdout
        modules = dict(json.loads(out))
        texts = [Path(path).read_text() for path in modules.values()]
        rows[name] = {
            "modules": sorted(modules),
            "raw_lines": sum(len(text.splitlines()) for text in texts),
            "code_lines": sum(code_lines(text) for text in texts),
        }
    return rows


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of Python source that hold a token of code: no blank line,
    no comment and no docstring (of the module, a class or a function)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def provenance(src: Path) -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    texts = {str(path.relative_to(src)): path.read_text() for path in sorted(src.rglob("*.py"))}
    module_lines = {name: len(text.splitlines()) for name, text in texts.items()}
    module_code_lines = {name: code_lines(text) for name, text in texts.items()}
    return {
        "machine": {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": BLAS_ENV,
        "module_lines": module_lines,
        "src_lines": sum(module_lines.values()),
        "module_code_lines": module_code_lines,
        "src_code_lines": sum(module_code_lines.values()),
    }


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="source tree that holds the mwqkd package; repeat for "
                        "each tree (default: this checkout's src)")
    parser.add_argument("--label", action="append", required=True,
                        help="name of the entry of the --src at the same position")
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON file to update")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.src or [root / "src"]]
    if len(srcs) != len(args.label) or len(set(args.label)) != len(args.label):
        raise SystemExit("error: give one distinct --label per --src")
    for src in srcs:
        if not (src / "mwqkd" / "cli.py").is_file():
            raise SystemExit(f"error: no mwqkd package under {src}")
    trees = dict(zip(args.label, srcs))
    with tempfile.TemporaryDirectory() as tmp:
        # fresh processes first: a child's peak RSS counts the pages it was
        # forked with, so this process must not have grown yet
        fresh = fresh_processes(trees, Path(tmp))
        loaded = {label: loaded_modules(src, Path(tmp)) for label, src in trees.items()}
        layers = in_process(trees, Path(tmp))
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    entries = {}
    for label, src in trees.items():
        entry = provenance(src)
        entry["measured_with"] = sorted(trees)
        entry["fresh_process"] = fresh[label]
        entry["loaded_modules"] = loaded[label]
        entry["in_process"] = layers[label]
        entries[label] = entry
    bench.setdefault("runs", {}).update(entries)
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(json.dumps(entries, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
