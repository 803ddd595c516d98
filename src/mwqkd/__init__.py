"""Simulator and composable security analysis for a microwave
continuous-variable QKD link built from displaced squeezed states.

Quadrature variances are dimensionless with the vacuum at 0.25.

Every name this package exports resolves through its owner on every
read: the module ``__getattr__`` looks the name up in ``_EXPORTS`` and
reads it from the owning module, importing that module on first use, so
a later rebinding there (a test's monkeypatch, a profiler's wrapper)
shows through the package name too. Each of the eight layer modules
resolves the same way, from ``sys.modules``, until the import system
binds it on the package. Importing the package imports no layer and no
numpy. The
three modules that need numpy, :mod:`~mwqkd.gaussian`,
:mod:`~mwqkd.protocol` and :mod:`~mwqkd.stats`, are registered in
``sys.modules`` at import but run their bodies on first attribute
access (:class:`importlib.util.LazyLoader`), so ``from . import stats``
binds the module without running it. The CSV float kernel
``mwqkd._floatrepr`` needs numpy too; it is imported by
:mod:`~mwqkd.protocol` and, inside the command, by the ``sweep`` CSV
writer. Its inverse, the key.csv reader ``mwqkd._floatparse``, is
imported inside :func:`~mwqkd.protocol.read_key_records` only, so no
command loads it. No command runs :mod:`~mwqkd.gaussian` either: it is
the covariance oracle, the device chain step by step included, that
tests check the closed forms against. A ``protocol`` run loads
:mod:`~mwqkd.protocol`, ``_floatrepr`` and :mod:`~mwqkd.stats` before it
forks its bootstrap child: reading ``stats.bootstrap_mi_sigma`` to hand
it to the fork runs that lazy body in the parent, so no child runs it
again.
"""

import importlib.util
import sys

# The exported names, by owning module.
_EXPORTS = {
    "config": (
        "CHAIN_PRESETS",
        "DEFAULT_CHANNEL_LOSS",
        "DEFAULT_N_RAW",
        "RUN1_CHAIN",
        "RUN2_CHAIN",
        "ExperimentConfig",
        "config_from_dict",
        "load_config",
    ),
    "devices": (
        "VACUUM_VARIANCE",
        "ChannelEstimate",
        "ChannelParams",
        "DeviceChainParams",
        "ReadoutModel",
        "codebook_variance",
        "efficiency_to_noise",
        "level_to_variance",
        "response_and_noise",
        "trusted_readout_constants",
    ),
    "errors": ("InsufficientDataError", "PhysicalityError"),
    "gaussian": (
        "GaussianState",
        "apply_beamsplitter",
        "apply_loss",
        "apply_phase_sensitive_amp",
        "apply_squeeze",
        "bob_output_distribution",
        "condition_on_classical_gaussian",
        "displace",
        "make_thermal",
        "make_vacuum",
        "partial_trace",
        "symplectic_eigenvalues",
        "tensor",
        "two_mode_squeezed_thermal",
        "von_neumann_entropy",
    ),
    "linkbudget": (
        "CRYO_LINK",
        "MEDIA",
        "OPEN_AIR",
        "MediumSpec",
        "distance_limit",
        "distance_to_loss",
        "loss_to_distance",
        "max_tolerable_loss",
        "raw_key_rate",
        "sweep_occupancy",
        "thermal_occupancy",
    ),
    "protocol": (
        "Codebook",
        "KeyRecord",
        "analyze",
        "estimate_channel",
        "generate_codebook",
        "key_manifest",
        "read_key_records",
        "sift",
        "simulate_transmission",
        "write_key_records",
    ),
    "security": (
        "CompositeKeyBound",
        "SecurityReport",
        "asymptotic_key",
        "build_report",
        "composite_key",
        "confidence_w",
        "finite_size_delta",
        "holevo_dr",
        "mutual_information",
        "noise_crossing",
        "noise_tolerance",
        "predicted_estimate",
        "snr",
        "sweep_noise",
    ),
    "stats": (
        "Histogram",
        "bootstrap_mi_sigma",
        "build_histogram",
        "empirical_mutual_information",
        "gaussian_bin_probabilities",
        "hellinger_from_coefficient",
        "histogram_vs_gaussian",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_OWNER)


def _submodule(name: str):
    """``mwqkd.<name>``, imported if it is not yet registered. A registered
    module is taken from ``sys.modules`` as it is: the import machinery
    would read its ``__spec__`` and so run a lazy body."""
    module = sys.modules.get(f"{__name__}.{name}")
    if module is None:
        module = importlib.import_module(f".{name}", __name__)
    return module


def __getattr__(name: str):
    # not cached: a later rebinding in the owner must show through here too
    if name in _EXPORTS:
        return _submodule(name)
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(owner), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_OWNER))


def _lazy_submodule(name: str) -> None:
    """Register ``mwqkd.<name>`` with its body deferred to first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)


_lazy_submodule("gaussian")
_lazy_submodule("protocol")
_lazy_submodule("stats")
