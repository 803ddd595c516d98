"""Self-test of the per-layer tracer.

Checks, on fixed inputs, that the tracer's call counts equal an
independent count taken with ``sys.setprofile`` (which sees every call of
a function's code object, whatever name or dict it was reached through),
and that every output file is byte-identical with tracing on and off.

Run standalone from the repository root:

    python3 perfbench/selftest.py

Standalone, it also checks the exact counts of the seed commit's
algorithms: one ``noise_tolerance(RUN2_CHAIN, 0.0115)`` makes 26
``asymptotic_key`` calls (2 end points, then 24 halvings of [0, 1] to a
width below 1e-7), one ``max_tolerable_loss`` makes 22 (2 end points, 20
halvings to 1e-6), and one ``bootstrap_mi_sigma(n_boot=200)`` makes
exactly 200 ``empirical_mutual_information`` calls. A change that
replaces one of those algorithms updates these numbers here. The traced
benchmark run (``--trace 1``) runs only the algorithm-independent part.
"""

from __future__ import annotations

import collections
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import env  # noqa: E402  (pins BLAS threads before numpy loads)

SEED_COMMIT_COUNTS = {
    "noise_tolerance": {"security.asymptotic_key": 26, "security.noise_tolerance": 1},
    "max_tolerable_loss": {"security.asymptotic_key": 22, "linkbudget.max_tolerable_loss": 1},
    "bootstrap": {"stats.empirical_mutual_information": 200, "stats.bootstrap_mi_sigma": 1},
}


def _original_codes(tracer_mod) -> dict:
    """Code object of each traced function, as defined, by traced name."""
    codes = {}
    for layer, attr in tracer_mod.TRACED:
        owner = sys.modules[f"mwqkd.{layer}"]
        fn = getattr(owner, attr)
        if attr == "GaussianState":
            fn = fn.__dict__["__post_init__"]
        codes[fn.__code__] = f"{layer}.{attr}"
    return codes


def _cases(workdir: str):
    import numpy as np

    import mwqkd
    from mwqkd import cli, linkbudget, security, stats

    rng = np.random.Generator(np.random.Philox(key=7))
    x = rng.standard_normal(2000)
    y = 0.8 * x + rng.standard_normal(2000)
    # Each case calls through module attributes, as callers do, so the
    # installed wrappers are the ones reached.
    return {
        "noise_tolerance": lambda: security.noise_tolerance(mwqkd.RUN2_CHAIN, 0.0115),
        "max_tolerable_loss": lambda: linkbudget.max_tolerable_loss(
            mwqkd.RUN2_CHAIN, linkbudget.CRYO_LINK.background_photons
        ),
        "bootstrap": lambda: stats.bootstrap_mi_sigma(x, y, n_boot=200, seed=3),
        "cli_report": lambda: cli.main(
            ["report", "--preset", "run2", "--nbar", "1.7e-6",
             "--out", os.path.join(workdir, "report.json")]
        ),
        "cli_protocol": lambda: cli.main(
            ["protocol", "--preset", "run1", "--seed", "4", "--n-symbols", "2000",
             "--out", os.path.join(workdir, "protocol")]
        ),
    }


def count_check(workdir: str, seed_commit_counts: bool) -> list[str]:
    """Tracer counts vs sys.setprofile counts on fixed inputs."""
    import contextlib
    import io

    import tracer as tracer_mod

    errors = []
    codes = _original_codes(tracer_mod)
    for case, fn in _cases(workdir).items():
        tracer = tracer_mod.Tracer()
        seen: collections.Counter = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    seen[name] += 1

        with tracer, contextlib.redirect_stdout(io.StringIO()):
            sys.setprofile(profile)
            try:
                fn()
            finally:
                sys.setprofile(None)
        for name in codes.values():
            if tracer.calls[name] != seen[name]:
                errors.append(
                    f"{case}: tracer saw {tracer.calls[name]} calls of {name}, "
                    f"the profiler {seen[name]}"
                )
        if seed_commit_counts:
            for name, expected in SEED_COMMIT_COUNTS.get(case, {}).items():
                if tracer.calls[name] != expected:
                    errors.append(f"{case}: {tracer.calls[name]} calls of {name}, expected {expected}")
        if case == "noise_tolerance" and tracer.crossing_evals["security.noise_tolerance"] != seen[
            "security.asymptotic_key"
        ]:
            errors.append("noise_tolerance: key evaluations not attributed to the crossing")
        if case == "max_tolerable_loss" and tracer.crossing_evals[
            "linkbudget.max_tolerable_loss"
        ] != seen["security.asymptotic_key"]:
            errors.append("max_tolerable_loss: key evaluations not attributed to the crossing")
    return errors


def identity_check(workdir: str) -> tuple[list[str], float]:
    """Every output file is byte-identical with tracing on and off.

    Also returns the tracing overhead on these steps: reference-speed
    seconds traced over untraced, minus 1.
    """
    import tracer as tracer_mod
    import workloads as wl
    from checks import output_hashes
    from runner import OpRunner

    errors = []
    seconds = {False: 0.0, True: 0.0}
    runner = OpRunner(workdir, reference={}, tracer=tracer_mod.Tracer())
    ops = [
        wl.sweep_op(0, "run1", 0.0115, 1.7e-6),
        wl.linkbudget_op(0, "run1", 0.0115),
        wl.protocol_op(0, "run2", 1.7e-6, 2, wl.PAPER_N, False),
        wl.protocol_op(0, "run1", 0.0, 3, wl.PAPER_N, True),
    ]
    for op in ops:
        for step in op.steps:
            hashes = {}
            for traced in (False, True):
                opdir = os.path.join(workdir, f"traced{int(traced)}")
                code, _, ref_s, _, _, out_path = runner.invoke(step, opdir, traced=traced)
                hashes[traced] = (code, output_hashes(out_path))
                seconds[traced] += ref_s
                shutil.rmtree(opdir, ignore_errors=True)
            if hashes[False] != hashes[True]:
                errors.append(f"{' '.join(step.argv)}: outputs differ with tracing on")
    return errors, seconds[True] / seconds[False] - 1.0


def run(workdir: str, seed_commit_counts: bool = False) -> tuple[list[str], float]:
    """Errors of both checks, and the tracing overhead fraction."""
    os.makedirs(workdir, exist_ok=True)
    try:
        errors = count_check(workdir, seed_commit_counts)
        identity_errors, overhead = identity_check(workdir)
        return errors + identity_errors, overhead
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    root = env.checkout_root()
    env.import_program(root)
    errors, overhead = run(os.path.join(root, env.WORK_DIR, "selftest"), seed_commit_counts=True)
    for line in errors:
        print(f"FAIL {line}")
    print(f"tracing overhead on the identity-check steps: {overhead:+.1%}")
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
