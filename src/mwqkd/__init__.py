"""Simulator and composable security analysis for a microwave
continuous-variable QKD link built from displaced squeezed states.

Quadrature variances are dimensionless with the vacuum at 0.25.

Importing the package does not import numpy. The three modules that need
it, :mod:`~mwqkd.gaussian`, :mod:`~mwqkd.protocol` and :mod:`~mwqkd.stats`,
are registered in ``sys.modules`` at import but run their bodies on first
attribute access (:class:`importlib.util.LazyLoader`), and the names this
package re-exports from them resolve through the module ``__getattr__``.
The CSV float kernel ``mwqkd._floatrepr`` needs numpy too; it is imported
by :mod:`~mwqkd.protocol` and, inside the command, by the ``sweep`` CSV
writer. A ``protocol`` run loads :mod:`~mwqkd.protocol`, ``_floatrepr``
and :mod:`~mwqkd.stats` before it forks its bootstrap child: reading
``stats.bootstrap_mi_sigma`` to hand it to the fork runs that lazy body
in the parent, so no child runs it again.
"""

import importlib.util
import sys


def _lazy_submodule(name: str):
    """Register ``mwqkd.<name>`` with its body deferred to first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# Registered before any other submodule runs, so that every
# ``from . import gaussian`` binds the lazy module instead of loading it.
gaussian = _lazy_submodule("gaussian")
protocol = _lazy_submodule("protocol")
stats = _lazy_submodule("stats")

from .config import (
    CHAIN_PRESETS,
    DEFAULT_CHANNEL_LOSS,
    DEFAULT_N_RAW,
    RUN1_CHAIN,
    RUN2_CHAIN,
    ExperimentConfig,
    config_from_dict,
    load_config,
)
from .devices import (
    VACUUM_VARIANCE,
    ChannelEstimate,
    ChannelParams,
    DeviceChainParams,
    ReadoutModel,
    bob_output_distribution,
    codebook_variance,
    efficiency_to_noise,
    level_to_variance,
    response_and_noise,
    trusted_readout_constants,
)
from .errors import InsufficientDataError, PhysicalityError
from .linkbudget import (
    CRYO_LINK,
    MEDIA,
    OPEN_AIR,
    MediumSpec,
    distance_limit,
    distance_to_loss,
    loss_to_distance,
    max_tolerable_loss,
    raw_key_rate,
    sweep_occupancy,
    thermal_occupancy,
)
from .security import (
    CompositeKeyBound,
    SecurityReport,
    asymptotic_key,
    build_report,
    composite_key,
    confidence_w,
    finite_size_delta,
    holevo_dr,
    mutual_information,
    noise_crossing,
    noise_tolerance,
    predicted_estimate,
    snr,
    sweep_noise,
    worst_case_params,
)

# Names re-exported from the lazily loaded modules, by module.
_LAZY_EXPORTS = {
    "gaussian": (
        "GaussianState",
        "apply_beamsplitter",
        "apply_loss",
        "apply_phase_sensitive_amp",
        "apply_squeeze",
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
    "protocol": (
        "Codebook",
        "KeyRecord",
        "estimate_channel",
        "generate_codebook",
        "key_manifest",
        "read_key_records",
        "sift",
        "simulate_transmission",
        "write_key_records",
    ),
    "stats": (
        "Histogram",
        "bhattacharyya",
        "bhattacharyya_gaussian",
        "bootstrap_mi_sigma",
        "build_histogram",
        "empirical_mutual_information",
        "gaussian_bin_probabilities",
        "hellinger",
        "hellinger_from_coefficient",
        "histogram_vs_gaussian",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def __getattr__(name: str):
    # not cached: a later rebinding in the module (a test's monkeypatch, a
    # profiler's wrapper) must show through the package name too
    owner = _LAZY_OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[owner], name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_OWNER))


__version__ = "0.1.0"

# The public names: every non-module global above and the lazy re-exports.
__all__ = sorted(
    {name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, type(sys))}
    | set(_LAZY_OWNER)
)
