"""Seeded workload definitions.

Every input of a run is drawn from the ``--seed`` argument through a
Philox generator, so the parent and the change see identical inputs and
identical failure sets. Draws come from finite pools (a loss grid, a list
of noise levels, the protocol seeds 1..60 and 1..8) so that reference
values recorded from the seed commit (``reference.json``) cover every
input a seed can produce. The pools are contiguous ranges or even grids,
not picked to avoid failures.

Each workload is a closed loop with one client: the next op starts only
after the previous one and its checks have finished. A run holds a fixed
number of ops, ``op_count(workload, seconds)``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from checks import reference_key

PRESETS = ("run1", "run2")
MEDIA = ("cryo-15mK", "openair-300K")

# analysis pools
LOSS_GRID = tuple(round(0.005 + 0.001 * i, 3) for i in range(26))  # [0.005, 0.03]
REPORT_NBARS = (0.0, 1e-7, 5e-7, 1e-6, 1.7e-6, 3e-6, 1e-5, 1e-4)
SWEEP_GRIDS = ((41, "json"), (401, "csv"))  # (points, output format)
NOISE_GRID_STOP = 0.1

# protocol pools
PAPER_N = 16665
LARGE_N = 1_000_000
PAPER_NBARS = (0.0, 1.7e-6)
PAPER_SEEDS = tuple(range(1, 61))
LARGE_SEEDS = tuple(range(1, 9))


@dataclass(frozen=True)
class Step:
    """One CLI invocation of an op. ``out`` is the output name in the op dir."""

    kind: str  # sweep | linkbudget | report | protocol
    argv: tuple[str, ...]
    out: str
    config: dict | None = None  # written to <op dir>/<out>.config.json, passed as --config
    points: int = 0  # sweep grid points
    key: tuple = ()  # reference-table key


@dataclass(frozen=True)
class Op:
    """One closed-loop iteration: CLI steps, then a read-back for protocol."""

    index: int
    steps: tuple[Step, ...]
    protocol: dict | None = None  # preset, nbar, seed, n, announce


def sweep_op(index: int, preset: str, loss: float, nbar: float) -> Op:
    steps = []
    for points, fmt in SWEEP_GRIDS:
        config = {
            "preset": preset,
            "channel": {"loss": loss, "noise_photons": 0.0},
            "noise_grid": {"start": 0.0, "stop": NOISE_GRID_STOP, "num": points},
        }
        steps.append(
            Step(
                "sweep",
                ("sweep", "--format", fmt),
                f"sweep{points}.{fmt}",
                config=config,
                points=points,
                key=(preset, loss, points),
            )
        )
    steps.append(
        Step(
            "report",
            ("report", "--preset", preset, "--loss", repr(loss), "--nbar", repr(nbar)),
            "report.json",
            key=(preset, loss, nbar),
        )
    )
    return Op(index, tuple(steps))


def linkbudget_op(index: int, preset: str, loss: float) -> Op:
    steps = []
    for medium, fmt in zip(MEDIA, ("csv", "json")):
        steps.append(
            Step(
                "linkbudget",
                ("linkbudget", "--preset", preset, "--loss", repr(loss),
                 "--medium", medium, "--format", fmt),
                f"linkbudget-{medium}.{fmt}",
                key=(preset, medium, loss),
            )
        )
    return Op(index, tuple(steps))


def protocol_op(index: int, preset: str, nbar: float, seed: int, n: int, announce: bool) -> Op:
    argv = ["protocol", "--preset", preset, "--seed", str(seed), "--nbar", repr(nbar),
            "--n-symbols", str(n)]
    if announce:
        argv.append("--announce-bases")
    spec = {"preset": preset, "nbar": nbar, "seed": seed, "n": n, "announce": announce}
    step = Step("protocol", tuple(argv), "run", key=(preset, nbar, announce, seed, n))
    return Op(index, (step,), protocol=spec)


def analysis_sweep(seed: int, count: int) -> list[Op]:
    """Key rate vs noise, and single reports.

    Why: almost all time goes to gaussian, devices and security; protocol
    and stats do no work. Each op is a round at a seeded operating point
    (loss from [0.005, 0.03], report nbar from a list, run1/run2
    alternating): a 41-point sweep written as JSON, a 401-point sweep
    written as CSV (both grids passed through --config) and a report. The
    sweeps evaluate many independent grid points, so a vectorised security
    core shows here; the crossing search inside each sweep is about 15 %
    of it. Every round has the same shape, so round times stay unimodal.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    phase = int(rng.integers(2))
    losses, nbars = _draw(rng, LOSS_GRID, count), _draw(rng, REPORT_NBARS, count)
    return [sweep_op(index, PRESETS[(phase + index) % 2], losses[index], nbars[index])
            for index in range(count)]


def analysis_linkbudget(seed: int, count: int) -> list[Op]:
    """Tolerable loss and reach over background occupations.

    Why: each op runs linkbudget for cryo-15mK (CSV) and openair-300K
    (JSON) at a seeded loss from [0.005, 0.03], run1/run2 alternating:
    about 14 serial 20-step bisections per call, so the root finder and
    the per-evaluation cost of the security core show here. Set against
    analysis_sweep, a vectorised core that helps the sweeps but slows the
    serial bisections shows as a slowdown here.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    phase = int(rng.integers(2))
    losses = _draw(rng, LOSS_GRID, count)
    return [linkbudget_op(index, PRESETS[(phase + index) % 2], losses[index])
            for index in range(count)]


def _reference_exits() -> dict:
    """Reference-table key -> exit code recorded at the reference commit."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as fh:
        return {k: v["exit"] for k, v in json.load(fh)["entries"].items()}


def _draw(rng, items, k: int) -> list:
    """k items from seeded permutations of items, each used once per pass,
    so a run covers a pool evenly instead of by chance."""
    out = []
    while len(out) < k:
        out += [items[i] for i in rng.permutation(len(items))]
    return out[:k]


def _balanced(rng, items: list, k: int, cell) -> list:
    """k items spread over the cells ``cell(item)`` of items, the counts
    per cell differing by at most one; each cell drawn with _draw."""
    groups: dict = {}
    for item in items:
        groups.setdefault(cell(item), []).append(item)
    cells = sorted(groups)
    rounds = -(-k // len(cells))
    queues = [_draw(rng, groups[c], rounds) for c in cells]
    out = []
    for r in range(rounds):
        out += [queues[j][r] for j in rng.permutation(len(cells))]
    return out[:k]


def protocol_paper(seed: int, count: int) -> list[Op]:
    """One prepare-and-measure run at the paper's block size, N = 16 665.

    Why: time splits between the key.csv write, the 200-resample
    bootstrap and fixed per-run costs (report, histogram, JSON writers),
    so a change that speeds large N but adds per-run overhead shows here.
    Inputs come from the pool of (preset, nbar 0 or 1.7e-6, announce or
    not, protocol seed 1..60). Each successful run is followed by a
    read-back of its key.csv.

    About one input in six ends in exit 2 ("noise_photons > 0 with zero
    loss"), a known defect counted in failed_frac. The draw is stratified
    on the exit code each input had when reference.json was recorded:
    every run holds the pool's share of those inputs (74 of 480), rounded,
    so attempted and failed are the same for every seed and every
    machine speed, and stay the same inputs once the defect is fixed.
    Within each stratum the ops spread evenly over (preset, nbar,
    announce), so every run has the same mix of op shapes.
    """
    exits = _reference_exits()
    pool = [(preset, nbar, announce, pseed)
            for preset in PRESETS for nbar in PAPER_NBARS
            for announce in (False, True) for pseed in PAPER_SEEDS]
    failing = [p for p in pool if exits[reference_key("protocol", (*p, PAPER_N))] != 0]
    passing = [p for p in pool if p not in failing]
    k = round(count * len(failing) / len(pool))
    rng = np.random.Generator(np.random.Philox(key=seed))
    def cell(p):
        return p[:3]  # preset, nbar, announce

    picks = _balanced(rng, failing, k, cell) + _balanced(rng, passing, count - k, cell)
    return [protocol_op(index, preset, nbar, pseed, PAPER_N, announce)
            for index, (preset, nbar, announce, pseed)
            in enumerate(picks[i] for i in rng.permutation(count))]


def protocol_large(seed: int, count: int) -> list[Op]:
    """One run2 prepare-and-measure run at N = 10^6, then a read-back.

    Why: this is the data-path and memory workload. At the seed commit
    the key.csv write, the bootstrap and the read-back take nearly all of
    the time and the security layer under 0.1 %, so security-core changes
    should leave it flat while transcript I/O and array-copy changes move
    it (and peak_rss_mb). Each run holds a single op, whose time spread
    too widely between runs on a shared machine to bound, so this
    workload is run by name and is not listed in BENCHMARK.json.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    ops = []
    for index in range(count):
        nbar = PAPER_NBARS[int(rng.integers(len(PAPER_NBARS)))]
        pseed = LARGE_SEEDS[int(rng.integers(len(LARGE_SEEDS)))]
        ops.append(protocol_op(index, "run2", nbar, pseed, LARGE_N, False))
    return ops


WORKLOADS = {
    "analysis_sweep": analysis_sweep,
    "analysis_linkbudget": analysis_linkbudget,
    "protocol_paper": protocol_paper,
    "protocol_large": protocol_large,
}

# Ops per second of --seconds, checks included, set a little below the
# rate on a 2-core Intel Xeon VM under its usual load. A run holds a fixed
# number of ops, so attempted and failed do not depend on machine speed.
OPS_PER_S = {
    "analysis_sweep": 0.4,
    "analysis_linkbudget": 0.65,
    "protocol_paper": 2.2,
    "protocol_large": 1 / 30,
}


def op_count(workload: str, seconds: float) -> int:
    """Ops in one run of the workload with --seconds seconds."""
    return max(1, round(seconds * OPS_PER_S[workload]))
