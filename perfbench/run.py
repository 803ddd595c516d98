"""mwqkd benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload analysis_sweep --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and measures the program in its ``src``.
Every op goes through ``mwqkd.cli.main`` in this process (and
``mwqkd.protocol.read_key_records`` for read-back), one thread, BLAS
pinned to one thread. Every op is checked (see checks.py) before the
next starts. A run holds a fixed number of ops, set from ``--seconds``
(workloads.op_count), so that it measures about that long and
``attempted`` does not depend on machine speed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs
the tracer self-test, then traces every op and reports the per-layer
metrics. Both print a table of all metrics with units and sample counts,
write the details to ``.perfbench_out/``, and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402  (pins BLAS threads before numpy loads)

SETUP_REPEATS = 5  # fresh interpreters per run, after one warm-up launch
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from mwqkd import cli\n"
    "cli.resolve_config(cli.build_parser().parse_args(sys.argv[2:]))\n"
)

# The end-to-end metrics of the JSON line; the table prints these and more.
END_TO_END = ("setup_s", "op_s.p50", "peak_rss_mb")


def measure_setup(root: str, argv: list[str]) -> list[float]:
    """Reference-speed seconds of fresh interpreters importing mwqkd.cli
    and resolving a config (see runner.timed)."""
    from runner import timed

    cmd = [sys.executable, "-c", SETUP_CODE, env.src_dir(root), *argv]

    def launch():
        subprocess.run(
            cmd, cwd=root, env=os.environ.copy(), check=True, timeout=120,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )

    launch()  # the first launch also compiles bytecode caches
    return [timed(launch)[2] for _ in range(SETUP_REPEATS)]


def setup_argv(op, workdir: str) -> list[str]:
    """The first step's arguments, with its --config file written out."""
    step = op.steps[0]
    argv = list(step.argv)
    if step.config is not None:
        path = os.path.join(workdir, "setup.config.json")
        with open(path, "w") as fh:
            json.dump(step.config, fh)
        argv += ["--config", path]
    return argv


def summarize(results, setup_times) -> dict:
    """All end-to-end metrics as name -> (value or None, unit, samples).

    Times are reference-speed seconds (see runner.timed), except
    op_wall_s.p50.
    """
    from runner import OK_EXIT, percentile, tail

    inf = math.inf
    by_kind: dict[str, list[float]] = {}
    points = points_s = symbols = protocol_s = 0.0
    for res in results:
        for step in res.steps:
            ok = step.exit_code in OK_EXIT and not res.errors
            by_kind.setdefault(step.kind, []).append(step.seconds if ok else inf)
            if step.kind == "sweep" and ok:
                points += step.points
                points_s += step.seconds
            if step.kind == "protocol":
                protocol_s += step.seconds
                if ok and step.exit_code == 0:
                    symbols += step.n_symbols
        if res.readback_s is not None:
            by_kind.setdefault("readback", []).append(res.readback_s)
    ops = [inf if r.failed else r.seconds for r in results]
    ops_wall = [inf if r.failed else r.wall_s for r in results]

    def p50(samples):
        return percentile(samples, 0.5) if samples else None

    out = {}
    if setup_times:
        out["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    out["op_s.p50"] = (p50(ops), "s", len(ops))
    out["op_wall_s.p50"] = (p50(ops_wall), "s", len(ops))
    for kind, tails in (("sweep", True), ("linkbudget", True), ("report", False),
                        ("protocol", True), ("readback", False)):
        samples = by_kind.get(kind, [])
        out[f"{kind}_s.p50"] = (p50(samples), "s", len(samples))
        if tails:
            out[f"{kind}_s.tail"] = (tail(samples), "s", len(samples))
    for size in sorted({s.points for r in results for s in r.steps if s.kind == "sweep"}):
        samples = [s.seconds for r in results for s in r.steps
                   if s.kind == "sweep" and s.points == size and s.exit_code == 0 and not r.errors]
        out[f"sweep_s.p50[{size} points]"] = (p50(samples), "s", len(samples))
    out["sweep_points_per_s"] = (points / points_s if points_s else None, "1/s",
                                 len(by_kind.get("sweep", [])))
    out["raw_symbols_per_s"] = (symbols / protocol_s if protocol_s else None, "1/s",
                                len(by_kind.get("protocol", [])))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    failed = sum(1 for r in results if r.failed)
    out["failed_frac"] = (failed / len(results), "1", len(results))
    return out


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and math.isinf(value):
        return "inf (failed ops)"
    return f"{value:.6g}"


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<44} {_fmt(value):>18} {unit:<6} n={n}")


def main(argv=None) -> int:
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = env.checkout_root()
    env.import_program(root)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["entries"]

    import selftest
    import tracer as tracer_mod
    from runner import OpRunner

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, env.WORK_DIR, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = wl.WORKLOADS[args.workload](args.seed, wl.op_count(args.workload, args.seconds))
    first = ops[0]

    setup_times = [] if args.trace else measure_setup(root, setup_argv(first, workdir))
    selftest_errors, overhead = (
        selftest.run(os.path.join(workdir, "selftest")) if args.trace else ([], 0.0)
    )
    tracer = tracer_mod.Tracer() if args.trace else None
    runner = OpRunner(workdir, reference, tracer)

    results = []
    t_start = time.perf_counter()
    for op in ops:
        results.append(runner.run(op))
    wall = time.perf_counter() - t_start
    shutil.rmtree(workdir, ignore_errors=True)

    e2e = summarize(results, setup_times)
    errors = [e for r in results for e in r.errors] + selftest_errors
    exit_failures = [e for r in results for e in r.exit_failures]
    provenance = env.provenance(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(results)}  wall {wall:.2f} s")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print_table("end-to-end (untraced)" if not args.trace else "end-to-end (traced run)", e2e)

    if args.trace:
        layer = {k: (v, u, 1) for k, (v, u) in tracer.metrics().items()}
        layer.update({k: (v, u, 1) for k, (v, u) in tracer_mod.source_lines(env.src_dir(root)).items()})
        layer["trace.op_s.p50"] = e2e["op_s.p50"]
        layer["trace.overhead_frac"] = (overhead, "1", 1)
        print_table("per-layer (traced)", layer)
        print(f"  tracer self-test: {'FAIL' if selftest_errors else 'PASS'}; "
              f"{tracer.total_calls()} traced calls")
        reported = layer
    else:
        reported = {k: e2e[k] for k in END_TO_END}

    for line in exit_failures[:5]:
        print(f"failed op: {line}", file=sys.stderr)
    for line in errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)

    outdir = os.path.join(root, env.OUT_DIR)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, tag + ".json"), "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "provenance": provenance,
                "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
                "reported": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
                "check_errors": errors,
                "failed_ops": exit_failures,
            },
            fh, indent=2, default=str,
        )

    values = {}
    for name, (value, unit, _) in reported.items():
        if value is None or not math.isfinite(value):
            print(f"error: metric {name} has no finite value ({value}); "
                  "at least half the ops failed", file=sys.stderr)
            return 1
        values[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not errors,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failed),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
