"""Record reference values for every input a workload seed can produce.

Run from the repository root:

    python3 perfbench/make_reference.py

It runs each pooled input once through ``mwqkd.cli.main`` and writes
``perfbench/reference.json``: the exit code and, for exit 0, the numbers
that ``checks.extract`` reads from the outputs. Regenerate it only in a
change that intends to move those numbers, and say which moved and why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402  (pins BLAS threads before numpy loads)

ROOT = env.checkout_root()
env.import_program(ROOT)

import workloads as wl  # noqa: E402
from checks import TOLERANCE, extract, reference_key  # noqa: E402
from runner import OpRunner  # noqa: E402


def write_reference(payload: dict, path: str) -> None:
    """One entry per line, so a regenerated table diffs line by line."""
    lines = ['{"meta": ' + json.dumps(payload["meta"], sort_keys=True) + ', "entries": {']
    entries = payload["entries"]
    for i, (key, entry) in enumerate(entries.items()):
        comma = "," if i < len(entries) - 1 else ""
        lines.append(json.dumps(key) + ": " + json.dumps(entry, separators=(",", ":")) + comma)
    lines.append("}}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main() -> int:
    workdir = os.path.join(ROOT, env.WORK_DIR, "reference")
    shutil.rmtree(workdir, ignore_errors=True)
    runner = OpRunner(workdir, reference={})
    table: dict[str, dict] = {}

    def record(step, opdir):
        code, _, _, stdout, _, out_path = runner.invoke(step, opdir, traced=False)
        entry = {"exit": code}
        if code == 0:
            entry["values"] = extract(step.kind, out_path, stdout)
        table[reference_key(step.kind, step.key)] = entry
        shutil.rmtree(opdir, ignore_errors=True)

    t0 = time.perf_counter()
    for preset in wl.PRESETS:
        for loss in wl.LOSS_GRID:
            for step in wl.linkbudget_op(0, preset, loss).steps:
                record(step, os.path.join(workdir, "op"))
            for i, nbar in enumerate(wl.REPORT_NBARS):
                op = wl.sweep_op(0, preset, loss, nbar)
                steps = op.steps if i == 0 else [s for s in op.steps if s.kind == "report"]
                for step in steps:
                    record(step, os.path.join(workdir, "op"))
        print(f"analysis {preset} done ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    for preset in wl.PRESETS:
        for nbar in wl.PAPER_NBARS:
            for announce in (False, True):
                for seed in wl.PAPER_SEEDS:
                    op = wl.protocol_op(0, preset, nbar, seed, wl.PAPER_N, announce)
                    record(op.steps[0], os.path.join(workdir, "op"))
    print(f"protocol_paper done ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    for nbar in wl.PAPER_NBARS:
        for seed in wl.LARGE_SEEDS:
            op = wl.protocol_op(0, "run2", nbar, seed, wl.LARGE_N, False)
            record(op.steps[0], os.path.join(workdir, "op"))
    print(f"protocol_large done ({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)

    payload = {
        "meta": {
            "about": "values recorded by perfbench/make_reference.py; see checks.py",
            "tolerance": {k: list(v) for k, v in TOLERANCE.items()},
        },
        "entries": dict(sorted(table.items())),
    }
    write_reference(payload, os.path.join(HERE, "reference.json"))
    failures = sum(1 for e in table.values() if e["exit"] != 0)
    print(f"{len(table)} entries, {failures} with a nonzero exit", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
