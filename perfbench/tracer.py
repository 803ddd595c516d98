"""Per-layer tracer for the mwqkd modules.

The tracer wraps the public functions named in ``TRACED`` and keeps, for
each, the number of calls and its self time (span time minus the time of
traced child spans). Several modules bind functions from other modules at
import (``from .security import asymptotic_key`` in ``linkbudget``,
``response_and_noise`` in ``protocol`` and ``cli``) and ``cli`` dispatches
through the ``_COMMANDS`` dict, so wrapping only the defining module would
miss those calls. ``install`` therefore replaces the function object in
every ``mwqkd`` module namespace, and in every module-level dict, that
holds it; ``uninstall`` puts the originals back.

Nothing here edits the package: the wrappers live only in the process
that installs them.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (layer, attribute) pairs. "GaussianState" traces the dataclass's
# __post_init__, which runs once per construction.
TRACED = (
    ("gaussian", "apply_squeeze"),
    ("gaussian", "apply_beamsplitter"),
    ("gaussian", "apply_phase_sensitive_amp"),
    ("gaussian", "apply_loss"),
    ("gaussian", "tensor"),
    ("gaussian", "condition_on_classical_gaussian"),
    ("gaussian", "von_neumann_entropy"),
    ("gaussian", "GaussianState"),
    ("devices", "bob_output_distribution"),
    ("devices", "response_and_noise"),
    ("security", "snr"),
    ("security", "holevo_dr"),
    ("security", "asymptotic_key"),
    ("security", "composite_key"),
    ("security", "build_report"),
    ("security", "noise_tolerance"),
    ("linkbudget", "max_tolerable_loss"),
    ("protocol", "generate_codebook"),
    ("protocol", "simulate_transmission"),
    ("protocol", "sift"),
    ("protocol", "estimate_channel"),
    ("protocol", "write_key_records"),
    ("protocol", "read_key_records"),
    ("stats", "bootstrap_mi_sigma"),
    ("stats", "empirical_mutual_information"),
    ("stats", "build_histogram"),
    ("stats", "histogram_vs_gaussian"),
    ("cli", "resolve_config"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_protocol"),
    ("cli", "cmd_linkbudget"),
    ("cli", "cmd_report"),
    ("config", "load_config"),
)

LAYERS = ("gaussian", "devices", "security", "linkbudget", "protocol", "stats", "cli", "config")

# Root finders and the key evaluation they iterate, for evals_per_crossing.
CROSSINGS = {
    "security.noise_tolerance": "security",
    "linkbudget.max_tolerable_loss": "linkbudget",
}
KEY_EVAL = "security.asymptotic_key"

# Functions whose file argument (positional index) is sized for .bytes.
FILE_ARGS = {"protocol.write_key_records": 1, "protocol.read_key_records": 0}


class Tracer:
    """Call counts and self times for the functions in ``TRACED``."""

    def __init__(self) -> None:
        names = [f"{layer}.{attr}" for layer, attr in TRACED]
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.bytes = dict.fromkeys(FILE_ARGS, 0)
        self.crossing_evals = dict.fromkeys(CROSSINGS, 0)
        self._stack: list[list] = []  # [name, child seconds]
        self._originals: list[tuple[object, object, object, str]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        file_arg = FILE_ARGS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == KEY_EVAL:
                for frame in reversed(stack):
                    if frame[0] in CROSSINGS:
                        tracer.crossing_evals[frame[0]] += 1
                        break
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                if file_arg is not None and len(args) > file_arg:
                    try:
                        tracer.bytes[name] += os.path.getsize(args[file_arg])
                    except OSError:
                        pass

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in ``mwqkd``."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "mwqkd" or key.startswith("mwqkd."))
        ]
        for layer, attr in TRACED:
            name = f"{layer}.{attr}"
            owner = sys.modules[f"mwqkd.{layer}"]
            if attr == "GaussianState":
                cls = getattr(owner, attr)
                original = cls.__dict__["__post_init__"]
                self._set(cls, "__post_init__", self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is original:
                        self._set(mod, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._set_item(value, dkey, wrapper)

    def _set(self, obj, key, value) -> None:
        self._originals.append((obj, key, getattr(obj, key), "attr"))
        setattr(obj, key, value)

    def _set_item(self, mapping, key, value) -> None:
        self._originals.append((mapping, key, mapping[key], "item"))
        mapping[key] = value

    def uninstall(self) -> None:
        for obj, key, value, kind in reversed(self._originals):
            if kind == "attr":
                setattr(obj, key, value)
            else:
                obj[key] = value
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def evals_per_crossing(self, crossing: str) -> float:
        calls = self.calls[crossing]
        return self.crossing_evals[crossing] / calls if calls else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer, attr in TRACED:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for crossing, layer in CROSSINGS.items():
            out[f"{layer}.evals_per_crossing"] = (self.evals_per_crossing(crossing), "count")
        for name in FILE_ARGS:
            calls = self.calls[name]
            out[f"{name}.bytes"] = (self.bytes[name] / calls if calls else 0.0, "B")
        return out

    def total_calls(self) -> int:
        return sum(self.calls.values())


def source_lines(src_dir) -> dict[str, tuple[float, str]]:
    """Line count of each layer's module, for simplicity changes."""
    out = {}
    for layer in LAYERS:
        with open(os.path.join(src_dir, "mwqkd", f"{layer}.py"), "rb") as fh:
            out[f"{layer}.src_lines"] = (sum(1 for _ in fh), "count")
    return out

