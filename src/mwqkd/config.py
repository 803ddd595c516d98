"""Named device presets and the declarative experiment configuration.

A configuration round-trips through JSON: parse -> serialize -> parse is
the identity, and so is parse -> ``to_dict`` -> parse in memory.
Command-line flags override file values field by field. Each
:class:`ExperimentConfig` field declares its place in the JSON document
(section, key and JSON type) on the line that gives its default;
:data:`CONFIG_SCHEMA` collects them. The chain object's keys and types
are :class:`~mwqkd.devices.DeviceChainParams`' fields.

The config restates no layer's rule. A finite-size setting left None
takes :func:`~mwqkd.security.key_settings`' default, the EC fraction
:func:`~mwqkd.security.ec_block`'s, and a chain left None the preset's.
The EC fraction's domain is ``ec_block``'s and the bandwidth's is
:mod:`~mwqkd.linkbudget`'s. A new setting is one ``key_settings``
keyword and one None-default field that names its JSON key.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace

from .devices import ChannelParams, DeviceChainParams
from .linkbudget import MEDIA, _check_bandwidth
from .security import _fields_dict, ec_block, key_settings

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
# A protocol run keys Philox streams, whose keys are 128-bit, with seed
# (codebook), ExperimentConfig.transmission_seed and .bootstrap_seed.
MAX_SEED = 2**128 - 3
DEFAULT_BANDWIDTH_HZ = 400e3
DEFAULT_NOISE_GRID = tuple(0.0025 * i for i in range(41))  # 0 .. 0.1
DEFAULT_OCCUPANCY_GRID = tuple(10.0**k for k in range(-8, 5))


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


def _at(section: str | None, key: str, json_type: str, default=None):
    """A field's default and its place in the JSON document: `key` of the
    object `section` (None: the top level), holding a JSON `json_type`."""
    return field(default=default, metadata={"json": (section, key, json_type)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs, resolvable from JSON and flags, and echoed
    whole into its outputs, so the echo reproduces the run. Derived,
    not fields: `channel`, the run's :class:`ChannelParams`; `key_settings`,
    its resolved finite-size settings; and the seeds of its transmission
    and bootstrap streams.

    A field that defaults to None takes the value its owner resolves: the
    `chain` is the preset's, the EC fraction :func:`~mwqkd.security.ec_block`'s
    default, and each :func:`~mwqkd.security.key_settings` setting the
    library default. After construction every field holds its resolved
    value, so a config equals the one its echo parses to."""

    chain: DeviceChainParams | None = _at(None, "chain", "object")
    preset: str | None = _at(None, "preset", "string", "run1")
    channel_loss: float = _at("channel", "loss", "number", DEFAULT_CHANNEL_LOSS)
    noise_photons: float = _at("channel", "noise_photons", "number", 0.0)
    noise_grid: tuple[float, ...] = _at(None, "noise_grid", "number array", DEFAULT_NOISE_GRID)
    n_symbols: int = _at(None, "n_symbols", "integer", DEFAULT_N_RAW)
    seed: int = _at(None, "seed", "integer", DEFAULT_SEED)
    announce_bases: bool = _at(None, "announce_bases", "boolean", False)
    e_ec: float | None = _at("security", "e_ec", "number")
    beta_ec: float | None = _at("security", "beta_ec", "number")
    p_ec: float | None = _at("security", "p_ec", "number")
    n_ec_fraction: float | None = _at("security", "n_ec_fraction", "number")
    include_delta: bool | None = _at("security", "include_delta", "boolean")
    include_estimation_penalty: bool | None = _at("security", "include_estimation_penalty", "boolean")
    bandwidth_hz: float = _at(None, "bandwidth_hz", "number", DEFAULT_BANDWIDTH_HZ)
    medium: str = _at("linkbudget", "medium", "string", "cryo-15mK")
    occupancies: tuple[float, ...] = _at("linkbudget", "occupancies", "number array", DEFAULT_OCCUPANCY_GRID)

    def __post_init__(self) -> None:
        if self.preset not in (None, *CHAIN_PRESETS):  # by ==, so a JSON array too
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.chain is None:
            if self.preset is None:
                raise ValueError("config needs a preset or explicit chain parameters")
            object.__setattr__(self, "chain", CHAIN_PRESETS[self.preset])
        object.__setattr__(self, "channel", ChannelParams(self.channel_loss, self.noise_photons))
        if self.n_symbols < 4:
            raise ValueError("n_symbols must be >= 4")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**128 - 3], got {self.seed}")
        object.__setattr__(self, "transmission_seed", self.seed + 1)
        object.__setattr__(self, "bootstrap_seed", self.seed + 2)
        if self.n_ec_fraction is None:
            object.__setattr__(self, "n_ec_fraction", *ec_block.__defaults__)
        # resolved once, so a bad value exits 2 before any command writes output;
        # the settings are key_settings' keyword-only parameters, passed when set
        names = key_settings.__kwdefaults__
        settings = key_settings(self.n_symbols, ec_block(self.n_symbols, self.n_ec_fraction), **{
            name: getattr(self, name) for name in names if getattr(self, name) is not None})
        for name in names:
            object.__setattr__(self, name, settings[name])
        object.__setattr__(self, "key_settings", settings)
        if self.medium not in MEDIA:
            raise ValueError(f"unknown medium {self.medium!r}; choose from {sorted(MEDIA)}")
        _check_bandwidth(self.bandwidth_hz)
        # a grid point is a channel noise, so its message is check_channel's
        object.__setattr__(self, "noise_grid", _photon_counts("noise_photons", self.noise_grid))
        object.__setattr__(self, "occupancies", _photon_counts("occupancies", self.occupancies))

    def to_dict(self) -> dict:
        data: dict = {}
        for name, (section, key, _) in CONFIG_SCHEMA.items():
            value = getattr(self, name)
            if name == "chain":
                value = {param: _json_value(item) for param, item in _fields_dict(value).items()}
            (data if section is None else data.setdefault(section, {}))[key] = _json_value(value)
        return data


# ExperimentConfig field -> (JSON section, key, JSON type), as the field
# declares it. Serialization, parsing with its type checks, and the
# command-line overrides (a flag whose destination is a field name) all
# derive from this table.
CONFIG_SCHEMA = {f.name: f.metadata["json"] for f in fields(ExperimentConfig)}


def _json_value(value):
    """A tuple as the array JSON writes it; any other value as it is."""
    return list(value) if isinstance(value, tuple) else value


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


def _chain_overrides(value) -> dict:
    """The chain object's parameters but those given as null, each checked
    for its :class:`DeviceChainParams` field's JSON type: a number array
    where the default is a tuple, else a number."""
    params = {f.name: f for f in fields(DeviceChainParams)}
    overrides = {key: item for key, item in _json_object(value, "chain", params).items()
                 if item is not None}
    for key, item in overrides.items():
        json_type = "number array" if isinstance(params[key].default, tuple) else "number"
        _check_type(f"chain.{key}", item, json_type)
    return overrides


def _explicit_chain(params: dict) -> DeviceChainParams:
    """The chain of a config without a preset, which names every
    :class:`DeviceChainParams` field that has no default."""
    missing = [f.name for f in fields(DeviceChainParams)
               if f.default is MISSING and f.name not in params]
    if missing:
        raise ValueError(f"a chain without a preset needs {', '.join(missing)}")
    return DeviceChainParams(**params)


def _grid_from_shorthand(grid: dict) -> tuple[float, ...]:
    """Expand {"start", "stop", "num"} into an evenly spaced grid."""
    if set(grid) != {"start", "stop", "num"}:
        raise ValueError("noise_grid shorthand takes exactly start, stop and num")
    for key, json_type in (("start", "number"), ("stop", "number"), ("num", "integer")):
        _check_type(f"noise_grid.{key}", grid[key], json_type)
    start, stop, num = float(grid["start"]), float(grid["stop"]), grid["num"]
    if num < 1:
        raise ValueError("noise_grid num must be >= 1")
    if num == 1:
        return (start,)
    # the last point is stop itself: start + step * (num - 1) may round past
    # it, below 0.0 for a grid that falls to 0.0
    step = (stop - start) / (num - 1)
    return tuple(start + step * i for i in range(num - 1)) + (stop,)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from parsed JSON, rejecting unknown keys.

    A missing key or a JSON null keeps the field's default, except
    `preset`, where a missing or null preset means an explicit chain; a
    null chain key keeps the preset's value.
    """
    known: dict[str | None, set[str]] = {}  # section -> its keys
    for section, key, _ in CONFIG_SCHEMA.values():
        known.setdefault(section, set()).add(key)
    data = _json_object(data, "config", known.pop(None) | set(known))
    objects = {None: data}
    for section, keys in known.items():
        objects[section] = _json_object(data.get(section), section, keys)

    # without a preset the chain object is the whole chain; with one, it
    # overrides the preset's chain (the config's) field by field, below
    preset, chain = data.get("preset"), _chain_overrides(data.get("chain"))
    explicit = _explicit_chain(chain) if preset is None and chain else None
    kwargs: dict = {"preset": preset, "chain": explicit}
    for name, (section, key, json_type) in CONFIG_SCHEMA.items():
        value = objects[section].get(key)
        if name in kwargs or value is None:
            continue
        if name == "noise_grid" and isinstance(value, dict):
            value = _grid_from_shorthand(value)
        else:
            _check_type(key if section is None else f"{section}.{key}", value, json_type)
        kwargs[name] = value
    cfg = ExperimentConfig(**kwargs)
    return replace(cfg, chain=replace(cfg.chain, **chain)) if preset is not None and chain else cfg


def load_config(path) -> ExperimentConfig:
    """Read a JSON configuration file, in UTF-8 (RFC 8259)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.loads(fh.read())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's stack
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    except ValueError as exc:
        # the only other ValueError of json.loads: int() of a literal longer
        # than the interpreter's digit limit
        raise ValueError(
            f"invalid JSON in {path}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    return config_from_dict(data)
