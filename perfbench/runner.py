"""Execute one op in process, time its CLI steps and read-back, check it.

Only the CLI calls and the read-back are timed (and traced); the rerun and
the other checks run untimed and untraced.

Timing. The benchmark runs on shared machines whose speed drifts by tens
of percent within seconds, which no number of samples inside one run
averages away. So every timed call is bracketed by bursts of a fixed
calibration kernel (a pure float loop: no mwqkd code, no allocation that
depends on the process's heap, garbage collection paused), and the call
is also reported at reference speed: wall seconds * CALIBRATION_REF_S /
(median of the bracketing kernel times). A change to the program moves
the reference-speed time as it moves the wall time; a slower machine
moves only the wall time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

from checks import compare, extract, output_hashes, record_errors, reference_key

OK_EXIT = (0, 3)  # 3: not enough matched data, the documented outcome

# Seconds calibrate() takes at reference speed (about its median on a
# 2-core Intel Xeon VM under its usual load).
CALIBRATION_REF_S = 0.002
CALIBRATION_BURST = 3  # kernels before and after each timed call


def calibrate() -> float:
    """Seconds for a fixed float loop, with garbage collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0.0
        for i in range(20000):
            s += math.sqrt(i) * 1.0000001
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def timed(fn):
    """(result, wall seconds, reference-speed seconds) of one call."""
    kernels = [calibrate() for _ in range(CALIBRATION_BURST)]
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    kernels += [calibrate() for _ in range(CALIBRATION_BURST)]
    return result, wall, wall * CALIBRATION_REF_S / statistics.median(kernels)


@dataclass
class StepResult:
    kind: str
    seconds: float  # reference-speed seconds
    wall_s: float
    exit_code: int | None
    points: int = 0
    n_symbols: int = 0


@dataclass
class OpResult:
    steps: list[StepResult] = field(default_factory=list)
    readback_s: float | None = None  # reference-speed seconds
    readback_wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)  # failed checks
    exit_failures: list[str] = field(default_factory=list)  # exit codes not in OK_EXIT

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.exit_failures)

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.steps) + (self.readback_s or 0.0)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps) + self.readback_wall_s


class OpRunner:
    def __init__(self, workdir: str, reference: dict, tracer=None):
        from mwqkd import cli, config, devices, protocol

        self.cli, self.config, self.devices, self.protocol = cli, config, devices, protocol
        self.workdir = workdir
        self.reference = reference
        self.tracer = tracer

    @contextlib.contextmanager
    def _traced(self):
        if self.tracer is None:
            yield
        else:
            self.tracer.install()
            try:
                yield
            finally:
                self.tracer.uninstall()

    def _run_cli(self, argv: list[str], traced: bool):
        """(exit code, wall s, reference-speed s, stdout, stderr) of one CLI call."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                return exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed op, recorded by the caller
                err.write(traceback.format_exc())
                return None

        with self._traced() if traced else contextlib.nullcontext():
            code, wall, ref = timed(call)
        return code, wall, ref, out.getvalue(), err.getvalue()

    def invoke(self, step, opdir: str, traced: bool):
        """Run one step into opdir: (exit code, wall s, reference-speed s,
        stdout, stderr, output path)."""
        os.makedirs(opdir, exist_ok=True)
        argv = list(step.argv)
        if step.config is not None:
            cfg_path = os.path.join(opdir, step.out + ".config.json")
            with open(cfg_path, "w") as fh:
                json.dump(step.config, fh)
            argv += ["--config", cfg_path]
        out_path = os.path.join(opdir, step.out)
        argv += ["--out", out_path]
        code, wall, ref, stdout, stderr = self._run_cli(argv, traced)
        return code, wall, ref, stdout, stderr, out_path

    def run(self, op) -> OpResult:
        result = OpResult()
        opdir = os.path.join(self.workdir, f"op{op.index}")
        rerundir = os.path.join(self.workdir, f"op{op.index}-rerun")
        gc.collect()
        try:
            for step in op.steps:
                self._run_step(op, step, opdir, rerundir, result)
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
            shutil.rmtree(rerundir, ignore_errors=True)
        return result

    def _run_step(self, op, step, opdir, rerundir, result: OpResult) -> None:
        code, wall, seconds, stdout, stderr, out_path = self.invoke(
            step, opdir, traced=self.tracer is not None
        )
        n = op.protocol["n"] if op.protocol else 0
        result.steps.append(StepResult(step.kind, seconds, wall, code, step.points, n))
        label = " ".join(step.argv)
        if code is None:
            result.errors.append(f"{label}: traceback\n{stderr}")
            return
        if code not in OK_EXIT:
            result.exit_failures.append(f"{label}: exit {code}: {stderr.strip()}")

        if step.kind == "protocol" and code == 0:
            key_csv = os.path.join(out_path, "key.csv")
            with self._traced():
                readback, result.readback_wall_s, result.readback_s = timed(
                    lambda: self.protocol.read_key_records(key_csv)
                )
            # Checked and dropped before the rerun, so that the checks do
            # not hold a transcript while the rerun builds another.
            result.errors.extend(self._transcript_errors(op.protocol, out_path, readback))
            del readback

        # Rerun with the same config and seed: same exit code, same bytes.
        rcode, _, _, _, _, rerun_path = self.invoke(step, rerundir, traced=False)
        if rcode != code or output_hashes(rerun_path) != output_hashes(out_path):
            result.errors.append(f"{label}: rerun differs (exit {code} then {rcode})")

        ref = self.reference.get(reference_key(step.kind, step.key))
        if ref is None:
            result.errors.append(f"{label}: no reference entry")
        elif code not in (ref["exit"], 0):
            # Only a step that failed at the reference commit may now exit
            # 0 (its defect fixed); any other change of exit code, 3
            # included, is a wrong output.
            result.errors.append(f"{label}: exit {code}, exit {ref['exit']} at the reference commit")
        elif code == 0 and ref["exit"] == 0:
            try:
                values = extract(step.kind, out_path, stdout)
            except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
                result.errors.append(f"{label}: unreadable output: {exc!r}")
            else:
                result.errors.extend(f"{label}: {e}" for e in compare(ref["values"], values))
        # A step that failed at the reference commit but exits 0 now has
        # no reference numbers; its other checks still apply.

    def _transcript_errors(self, spec: dict, out_path: str, readback) -> list[str]:
        """Read-back vs in-memory transcript, and regeneration from the manifest."""
        proto, devices = self.protocol, self.devices
        chain = self.config.CHAIN_PRESETS[spec["preset"]]
        channel = devices.ChannelParams(self.config.DEFAULT_CHANNEL_LOSS, spec["nbar"])
        codebook = proto.generate_codebook(spec["n"], chain.codebook_variance, seed=spec["seed"])
        expected = proto.simulate_transmission(
            codebook, chain, channel, seed=spec["seed"] + 1, announce_bases=spec["announce"]
        )
        errors = record_errors(expected, readback, "read-back vs in-memory transcript")
        del codebook, expected

        with open(os.path.join(out_path, "manifest.json")) as fh:
            manifest = json.load(fh)
        # The manifest does not record --announce-bases; it comes from the op.
        codebook = proto.generate_codebook(
            manifest["n_symbols"], manifest["codebook_variance"], seed=manifest["codebook_seed"]
        )
        regenerated = proto.simulate_transmission(
            codebook,
            devices.DeviceChainParams(**manifest["chain"]),
            devices.ChannelParams(**manifest["channel"]),
            seed=manifest["transmission_seed"],
            announce_bases=spec["announce"],
        )
        errors += record_errors(regenerated, readback, "transcript regenerated from manifest")
        if manifest["n_matched"] != int(readback.matched.sum()):
            errors.append("manifest n_matched differs from key.csv")
        return errors


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; failed samples are +inf."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(samples: list[float]) -> float | None:
    """Highest percentile with at least 10 samples beyond it (None below 11)."""
    if len(samples) < 11:
        return None
    return sorted(samples)[-11]
