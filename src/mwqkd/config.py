"""Named device presets and the declarative experiment configuration.

A configuration round-trips through JSON: parse -> serialize -> parse is
the identity. Command-line flags override file values field by field.
:data:`CONFIG_SCHEMA` is the one place that says where each field lives
in the JSON document.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

from .devices import DeviceChainParams, check_channel
from .linkbudget import MEDIA
from .security import DEFAULT_CORRECTNESS_EPSILON, ec_block, key_settings

# Calibrated chains of the two reference runs. The lumped back-end noise
# values reproduce the measured signal-to-noise ratios and key figures of
# the corresponding data sets; the remaining numbers are the directly
# quoted calibrations.
RUN1_CHAIN = DeviceChainParams(
    squeezing_db=3.6,
    antisqueezing_db=7.1,
    quantum_efficiency=0.65,
    measurement_gain_db=19.1,
    hemt_noise_photons=46.0,
)
RUN2_CHAIN = DeviceChainParams(
    squeezing_db=3.6,
    antisqueezing_db=7.6,
    quantum_efficiency=0.68,
    measurement_gain_db=19.1,
    hemt_noise_photons=49.0,
)
CHAIN_PRESETS = {"run1": RUN1_CHAIN, "run2": RUN2_CHAIN}

DEFAULT_CHANNEL_LOSS = 0.0115
DEFAULT_N_RAW = 16665
DEFAULT_SEED = 20230817
# A protocol run keys Philox streams, whose keys are 128-bit, with seed,
# seed + 1 (transmission) and seed + 2 (bootstrap).
MAX_SEED = 2**128 - 3
DEFAULT_BANDWIDTH_HZ = 400e3
DEFAULT_NOISE_GRID = tuple(0.0025 * i for i in range(41))  # 0 .. 0.1
DEFAULT_OCCUPANCY_GRID = tuple(10.0**k for k in range(-8, 5))


# ExperimentConfig field -> (JSON section, key, JSON type); section None
# is the top level. Serialization, parsing with its type checks, and the
# command-line overrides (a flag whose destination is a field name) all
# derive from this table.
CONFIG_SCHEMA = {
    "preset": (None, "preset", "string"),
    "chain": (None, "chain", "object"),
    "channel_loss": ("channel", "loss", "number"),
    "noise_photons": ("channel", "noise_photons", "number"),
    "noise_grid": (None, "noise_grid", "number array"),
    "n_symbols": (None, "n_symbols", "integer"),
    "seed": (None, "seed", "integer"),
    "e_ec": ("security", "e_ec", "number"),
    "beta_ec": ("security", "beta_ec", "number"),
    "p_ec": ("security", "p_ec", "number"),
    "n_ec_fraction": ("security", "n_ec_fraction", "number"),
    "include_delta": ("security", "include_delta", "boolean"),
    "include_estimation_penalty": ("security", "include_estimation_penalty", "boolean"),
    "bandwidth_hz": (None, "bandwidth_hz", "number"),
    "medium": ("linkbudget", "medium", "string"),
    "occupancies": ("linkbudget", "occupancies", "number array"),
}


def _is_number(value) -> bool:
    # Python's json module also parses NaN and Infinity, which JSON lacks,
    # and integers of any size; one past the largest float overflows isfinite
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


_JSON_TYPES = {
    "number": _is_number,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "string": lambda value: isinstance(value, str),
    "number array": lambda value: isinstance(value, list) and all(map(_is_number, value)),
    "object": lambda value: isinstance(value, dict),
}


def _check_type(name: str, value, json_type: str) -> None:
    if not _JSON_TYPES[json_type](value):
        raise ValueError(f"{name} must be a JSON {json_type}, got {value!r}")


def _photon_counts(name: str, values) -> tuple[float, ...]:
    """`values` as floats, each checked to be finite and >= 0."""
    counts = []
    for value in map(float, values):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        counts.append(value)
    return tuple(counts)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs, resolvable from JSON and flags. Derived,
    not a field: `key_settings`, the run's resolved finite-size settings."""

    chain: DeviceChainParams = RUN1_CHAIN
    preset: str | None = "run1"
    channel_loss: float = DEFAULT_CHANNEL_LOSS
    noise_photons: float = 0.0
    noise_grid: tuple[float, ...] = DEFAULT_NOISE_GRID
    n_symbols: int = DEFAULT_N_RAW
    seed: int = DEFAULT_SEED
    e_ec: float = DEFAULT_CORRECTNESS_EPSILON
    beta_ec: float = 1.0
    p_ec: float = 1.0
    n_ec_fraction: float = 0.5
    include_delta: bool = True
    include_estimation_penalty: bool = True
    bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ
    medium: str = "cryo-15mK"
    occupancies: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.preset is not None and self.preset not in CHAIN_PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        check_channel(self.channel_loss, self.noise_photons)
        if self.n_symbols < 4:
            raise ValueError("n_symbols must be >= 4")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**128 - 3], got {self.seed}")
        if not 0.0 < self.n_ec_fraction < 1.0:
            raise ValueError("n_ec_fraction must be in (0, 1)")
        # resolved once, so a bad value exits 2 before any command writes output
        object.__setattr__(self, "key_settings", key_settings(
            self.n_symbols, ec_block(self.n_symbols, self.n_ec_fraction),
            self.beta_ec, self.p_ec, self.e_ec,
            self.include_delta, self.include_estimation_penalty,
        ))
        if self.medium not in MEDIA:
            raise ValueError(f"unknown medium {self.medium!r}; choose from {sorted(MEDIA)}")
        if not 0.0 < self.bandwidth_hz < math.inf:
            raise ValueError(f"bandwidth_hz must be finite and > 0, got {self.bandwidth_hz!r}")
        # a grid point is a channel noise, so its message is check_channel's
        object.__setattr__(self, "noise_grid", _photon_counts("noise_photons", self.noise_grid))
        if self.occupancies is not None:
            object.__setattr__(
                self, "occupancies", _photon_counts("occupancies", self.occupancies)
            )

    def to_dict(self) -> dict:
        data: dict = {}
        for name, (section, key, _) in CONFIG_SCHEMA.items():
            value = getattr(self, name)
            if name == "chain":
                value = asdict(value)
            elif isinstance(value, tuple):
                value = list(value)
            (data if section is None else data.setdefault(section, {}))[key] = value
        return data


def _json_object(value, name: str, known) -> dict:
    """`value` as a JSON object with keys from `known`; null is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = set(value) - set(known)
    if unknown:
        raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    return value


def _chain_from_dict(preset, overrides) -> DeviceChainParams:
    if preset is not None and not (isinstance(preset, str) and preset in CHAIN_PRESETS):
        raise ValueError(f"unknown preset {preset!r}")
    overrides = _json_object(overrides, "chain", {f.name for f in fields(DeviceChainParams)})
    for key, value in overrides.items():
        json_type = "number array" if key.startswith("path_") else "number"
        _check_type(f"chain.{key}", value, json_type)
    if preset is not None:
        return replace(CHAIN_PRESETS[preset], **overrides)
    if not overrides:
        raise ValueError("config needs a preset or explicit chain parameters")
    return DeviceChainParams(**overrides)


def _grid_from_shorthand(grid: dict) -> tuple[float, ...]:
    """Expand {"start", "stop", "num"} into an evenly spaced grid."""
    if set(grid) != {"start", "stop", "num"}:
        raise ValueError("noise_grid shorthand takes exactly start, stop and num")
    for key, json_type in (("start", "number"), ("stop", "number"), ("num", "integer")):
        _check_type(f"noise_grid.{key}", grid[key], json_type)
    start, stop, num = float(grid["start"]), float(grid["stop"]), grid["num"]
    if num < 1:
        raise ValueError("noise_grid num must be >= 1")
    step = (stop - start) / (num - 1) if num > 1 else 0.0
    return tuple(start + step * i for i in range(num))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from parsed JSON, rejecting unknown keys.

    A missing key or a JSON null keeps the field's default, except
    `preset`, where a missing or null preset means an explicit chain.
    """
    sections: dict[str, set[str]] = {}
    for section, key, _ in CONFIG_SCHEMA.values():
        if section is not None:
            sections.setdefault(section, set()).add(key)
    top_level = {section or key for section, key, _ in CONFIG_SCHEMA.values()}
    data = _json_object(data, "config", top_level)
    objects = {None: data}
    for section, known in sections.items():
        objects[section] = _json_object(data.get(section), section, known)

    preset = data.get("preset")
    kwargs: dict = {"preset": preset, "chain": _chain_from_dict(preset, data.get("chain"))}
    for name, (section, key, json_type) in CONFIG_SCHEMA.items():
        value = objects[section].get(key)
        if name in kwargs or value is None:
            continue
        if name == "noise_grid" and isinstance(value, dict):
            value = _grid_from_shorthand(value)
        else:
            _check_type(key if section is None else f"{section}.{key}", value, json_type)
        kwargs[name] = value
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    """Read a JSON configuration file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)
