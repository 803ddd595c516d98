"""Calibrated hardware parameters and the sender-to-receiver signal chain.

The chain composes, in order: impure squeezed-state preparation, a path
loss, the displacement encoding one symbol, the displacement coupler tap,
a second path loss, the untrusted channel (loss against a thermal
environment), a third path loss, phase-sensitive amplification with
trusted amplifier noise, a fourth path loss, and a unit-gain back end
adding lumped noise. The runtime path reads the receiver's record from
one closed-form model, :func:`trusted_readout_constants`, computed once
per chain (:attr:`DeviceChainParams.readout`);
:func:`bob_output_distribution` builds the same chain from covariance
operations in :mod:`mwqkd.gaussian` and is the oracle tests check it by.

This module does not import numpy: the runtime path is Python floats, and
the three oracle functions (:func:`prepared_state`,
:func:`channel_input_state`, :func:`bob_output_distribution`) import
:mod:`mwqkd.gaussian` and numpy when they are called. It also holds the
pieces the numpy modules share with the numpy-free ones: the vacuum
variance and :class:`ChannelEstimate`.

Preparation and detection noise are trusted: they shape the measured
statistics but are not attributed to an eavesdropper. Only the channel
loss and its coupled noise photons are untrusted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gaussian import GaussianState

QUADRATURES = ("q", "p")

# Vacuum quadrature variance: the unit convention of the whole package.
VACUUM_VARIANCE = 0.25


def level_to_variance(level_db: float, kind: str) -> float:
    """Convert a squeezing level in dB to a quadrature variance.

    kind="squeezed" gives 0.25 * 10^(-level/10) (below vacuum for
    positive levels); kind="antisqueezed" gives 0.25 * 10^(+level/10).
    """
    if not math.isfinite(level_db):
        raise ValueError("level_db must be finite")
    if kind == "squeezed":
        return VACUUM_VARIANCE * 10.0 ** (-level_db / 10.0)
    if kind == "antisqueezed":
        return VACUUM_VARIANCE * 10.0 ** (level_db / 10.0)
    raise ValueError("kind must be 'squeezed' or 'antisqueezed'")


def efficiency_to_noise(efficiency: float) -> float:
    """Trusted amplifier noise photons from a quantum efficiency.

    Inverts eta = 1 / (1 + 2 n): n = (1/eta - 1) / 2.
    """
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    return 0.5 * (1.0 / efficiency - 1.0)


def codebook_variance(squeezing_db: float, antisqueezing_db: float) -> float:
    """Displacement-ensemble variance that hides the encoding basis.

    The modulated squeezed quadrature must reach the anti-squeezed
    variance, so sigma_A^2 = sigma_as^2 - sigma_s^2. Raises if the
    anti-squeezing level is below the squeezing level (no covering
    ensemble exists).
    """
    if antisqueezing_db < squeezing_db:
        raise ValueError(
            "antisqueezing level below squeezing level: no covering codebook"
        )
    return level_to_variance(antisqueezing_db, "antisqueezed") - level_to_variance(
        squeezing_db, "squeezed"
    )


# A channel loss below this, the smallest normal float, is lossless: the
# channel is the loss -> 0+ limit at fixed coupled noise nbar. At zero loss
# that limit is the only model; below the smallest normal float 2 nbar /
# loss can overflow.
LOSSLESS_BELOW = sys.float_info.min


def _check_fraction(value: float, name: str, closed_top: bool = False) -> None:
    top_ok = value <= 1.0 if closed_top else value < 1.0
    if not (0.0 <= value and top_ok):
        raise ValueError(f"{name} must be in [0, 1{']' if closed_top else ')'}")


@dataclass(frozen=True)
class DeviceChainParams:
    """Trusted-hardware calibration of one protocol run.

    Parameters
    ----------
    squeezing_db, antisqueezing_db : float
        Measured squeezing level S and anti-squeezing level A of the
        modulated ensemble, in dB relative to vacuum. The prepared
        (unmodulated) state has variance sigma_s^2 along the encoding
        quadrature and sigma_as^2 along the orthogonal one; the encoding
        modulation of variance sigma_as^2 - sigma_s^2 restores an
        isotropic thermal ensemble, hiding the basis.
    quantum_efficiency : float
        Single-shot measurement efficiency eta = 1/(1 + 2 n_amp); the
        amplifier adds n_amp/2 variance per quadrature, referred to its
        input.
    measurement_gain_db : float
        Phase-sensitive gain applied to the receiver's chosen quadrature.
    hemt_noise_photons : float
        Lumped back-end noise added after the phase-sensitive stage
        (n/2 variance per quadrature at unit back-end gain). This is a
        calibration catch-all for everything downstream of the amplifier.
    displacement_coupler_transmissivity : float
        Insertion transmissivity of the encoding coupler; the symbol is
        modeled as an exact mean shift followed by this tap (default 1,
        the idealized strong-drive limit).
    path_losses, path_environment_photons : tuple of 4 floats
        Optional loss taps before encoding, before the channel, before
        amplification, and after amplification, each against its own
        thermal environment. Default 0 (losses lumped into the
        efficiency and back-end noise).
    """

    squeezing_db: float
    antisqueezing_db: float
    quantum_efficiency: float
    measurement_gain_db: float
    hemt_noise_photons: float = 0.0
    displacement_coupler_transmissivity: float = 1.0
    path_losses: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    path_environment_photons: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("squeezing_db", "antisqueezing_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.antisqueezing_db < self.squeezing_db:
            raise ValueError("antisqueezing_db must be >= squeezing_db")
        if not 0.0 < self.quantum_efficiency <= 1.0:
            raise ValueError("quantum_efficiency must be in (0, 1]")
        for name in ("measurement_gain_db", "hemt_noise_photons"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0.0 < self.displacement_coupler_transmissivity <= 1.0:
            raise ValueError("displacement_coupler_transmissivity must be in (0, 1]")
        losses = tuple(float(x) for x in self.path_losses)
        envs = tuple(float(x) for x in self.path_environment_photons)
        if len(losses) != 4 or len(envs) != 4:
            raise ValueError("path_losses and path_environment_photons need 4 entries")
        for x in losses:
            _check_fraction(x, "path loss")
        if not all(0.0 <= n < math.inf for n in envs):
            raise ValueError("path environment photons must be finite and >= 0")
        object.__setattr__(self, "path_losses", losses)
        object.__setattr__(self, "path_environment_photons", envs)

    @property
    def squeezed_variance(self) -> float:
        return level_to_variance(self.squeezing_db, "squeezed")

    @property
    def antisqueezed_variance(self) -> float:
        return level_to_variance(self.antisqueezing_db, "antisqueezed")

    # Derived constants are cached on the (frozen) instance: the security
    # layer reads them at every key evaluation. They are not fields, so
    # serialization and equality ignore them.
    @cached_property
    def codebook_variance(self) -> float:
        return codebook_variance(self.squeezing_db, self.antisqueezing_db)

    @cached_property
    def readout(self) -> ReadoutModel:
        """Readout model of a matched receiver."""
        return trusted_readout_constants(self, matched=True)

    @cached_property
    def modulated_input_variance(self) -> float:
        """Channel-input variance of the encoding quadrature, averaged over the codebook."""
        response = channel_input_response(self)
        return self.readout.channel_input_variance + self.codebook_variance * response ** 2

    @cached_property
    def mismatched_readout(self) -> ReadoutModel:
        """Readout model of a receiver that amplified the other quadrature."""
        return trusted_readout_constants(self, matched=False)

    @property
    def measurement_gain(self) -> float:
        """Linear phase-sensitive gain."""
        return 10.0 ** (self.measurement_gain_db / 10.0)

    @property
    def amp_noise_photons(self) -> float:
        """Trusted amplifier noise occupation from the quantum efficiency."""
        return efficiency_to_noise(self.quantum_efficiency)


@dataclass(frozen=True)
class ChannelParams:
    """Untrusted channel: loss tap and coupled noise photons."""

    loss: float
    noise_photons: float = 0.0

    def __post_init__(self) -> None:
        _check_fraction(self.loss, "loss")
        if not 0.0 <= self.noise_photons < math.inf:
            raise ValueError("noise_photons must be finite and >= 0")

    @property
    def transmissivity(self) -> float:
        return 1.0 - self.loss

    @property
    def environment_photons(self) -> float:
        """Thermal occupation of the channel environment, 2 nbar / loss.

        The coupled noise nbar is what the receiver sees; the environment
        behind a tap of strength eps must carry 2 nbar / eps photons for
        that. A lossless channel carrying noise has no such decomposition
        and is rejected.
        """
        if self.loss == 0.0:
            if self.noise_photons == 0.0:
                return 0.0
            raise ValueError(
                "noise_photons > 0 with zero loss: environment occupation undefined"
            )
        return 2.0 * self.noise_photons / self.loss


@dataclass(frozen=True)
class ChannelEstimate:
    """Method-of-moments channel parameters with asymptotic standard errors.

    `clamped` marks a negative raw noise estimate that was clipped to 0
    (expected in roughly half of all runs on a noiseless channel).
    """

    loss: float
    loss_sigma: float
    noise_photons: float
    noise_sigma: float
    samples: int
    clamped: bool = False

    def __post_init__(self) -> None:
        if self.loss_sigma < 0.0 or self.noise_sigma < 0.0:
            raise ValueError("standard errors must be >= 0")
        for value in (self.loss, self.noise_photons):
            if not math.isfinite(value):
                raise ValueError("estimates must be finite")


def prepared_state(chain: DeviceChainParams, basis: str = "q") -> GaussianState:
    """Conditional (unmodulated) state leaving the source.

    An impure squeezed state with the squeezed variance along `basis` and
    the anti-squeezed variance along the orthogonal quadrature, built as a
    thermal state squeezed along the encoding axis.
    """
    from . import gaussian

    if basis not in QUADRATURES:
        raise ValueError("basis must be 'q' or 'p'")
    ss = chain.squeezed_variance
    aa = chain.antisqueezed_variance
    # thermal occupation whose symmetric variance is the geometric mean;
    # a pure state (equal levels) can round a few ulp below zero
    n0 = max(0.5 * (4.0 * math.sqrt(ss * aa) - 1.0), 0.0)
    r = 0.25 * math.log(aa / ss)
    angle = 0.0 if basis == "q" else 0.5 * math.pi
    return gaussian.apply_squeeze(gaussian.make_thermal(n0), r, angle)


def channel_input_state(
    chain: DeviceChainParams, basis: str = "q", symbol: float = 0.0
) -> GaussianState:
    """State entering the untrusted channel for one encoded symbol."""
    from . import gaussian

    state = prepared_state(chain, basis)
    state = gaussian.apply_loss(
        state, chain.path_losses[0], chain.path_environment_photons[0]
    )
    state = gaussian.displace(state, float(symbol), basis)
    tap = 1.0 - chain.displacement_coupler_transmissivity
    if tap > 0.0:
        state = gaussian.apply_loss(state, tap)
    return gaussian.apply_loss(
        state, chain.path_losses[1], chain.path_environment_photons[1]
    )


def channel_input_response(chain: DeviceChainParams) -> float:
    """Mean shift at the channel input per unit symbol amplitude."""
    return math.sqrt(
        chain.displacement_coupler_transmissivity * (1.0 - chain.path_losses[1])
    )


def bob_output_distribution(
    chain: DeviceChainParams,
    channel: ChannelParams,
    symbol: float,
    basis: str = "q",
    bob_basis: str = "q",
) -> tuple[float, float]:
    """Mean and variance of the receiver's record of one symbol.

    The receiver amplifies `bob_basis`; the returned marginal follows the
    symbol's encoding quadrature `basis`. When the bases match that is
    the amplified axis (mean scaled by sqrt(G * transmissivities)); when
    they differ it is the deamplified axis, whose mean is suppressed by
    1/sqrt(G), which is what makes mismatched records carry almost no
    information at high gain. The variance is independent of `symbol`.
    This step-by-step covariance pipeline is the test oracle of
    :func:`response_and_noise`.
    """
    import numpy as np

    from . import gaussian

    if bob_basis not in QUADRATURES:
        raise ValueError("bob_basis must be 'q' or 'p'")
    state = channel_input_state(chain, basis, symbol)
    if channel.loss < LOSSLESS_BELOW:  # the limit adds nbar to each quadrature
        state = gaussian.apply_phase_sensitive_amp(
            state, 1.0, bob_basis, added_noise=channel.noise_photons * np.eye(2)
        )
    else:
        state = gaussian.apply_loss(state, channel.loss, channel.environment_photons)
    state = gaussian.apply_loss(
        state, chain.path_losses[2], chain.path_environment_photons[2]
    )
    nj = chain.amp_noise_photons
    if nj > 0.0:
        state = gaussian.apply_phase_sensitive_amp(
            state, 1.0, bob_basis, added_noise=0.5 * nj * np.eye(2)
        )
    state = gaussian.apply_phase_sensitive_amp(
        state, chain.measurement_gain, bob_basis
    )
    state = gaussian.apply_loss(
        state, chain.path_losses[3], chain.path_environment_photons[3]
    )
    nh = chain.hemt_noise_photons
    if nh > 0.0:
        state = gaussian.apply_phase_sensitive_amp(
            state, 1.0, "q", added_noise=0.5 * nh * np.eye(2)
        )
    idx = 0 if basis == "q" else 1
    return float(state.mean[idx]), float(state.cov[idx, idx])


def response_and_noise(
    chain: DeviceChainParams, channel: ChannelParams, matched: bool = True
) -> tuple[float, float]:
    """Affine decomposition (slope, variance) of the receiver record.

    The record is slope * symbol + Gaussian noise of the returned
    variance; `matched` selects whether the receiver amplified the
    encoding quadrature.
    """
    model = chain.readout if matched else chain.mismatched_readout
    return model.moments(channel.loss, channel.noise_photons)


@dataclass(frozen=True)
class ReadoutModel:
    """Trusted-side constants of one readout.

    The record obeys beta = sqrt(slope_gain * (1 - eps)) * alpha + noise
    with noise variance variance_gain * v_out + variance_offset, where
    v_out = (1 - eps) * channel_input_variance + eps/4 + nbar is the
    conditional variance of the encoding quadrature at the channel
    output. orthogonal_input_variance is the channel-input variance of
    the other (anti-squeezed) quadrature, which the eavesdropper's state
    also depends on. Channel estimation inverts these relations.
    """

    slope_gain: float
    variance_gain: float
    variance_offset: float
    channel_input_variance: float
    orthogonal_input_variance: float

    def moments(self, loss: float, nbar):
        """(slope, variance) of the record at channel loss `loss`.

        `nbar`, the coupled noise, may be a float or a numpy array (one
        noise grid); the arithmetic is the same either way.
        """
        v_in = self.channel_input_variance
        if loss < LOSSLESS_BELOW:  # the noise still arrives
            v_out = v_in + nbar
        else:
            env = 2.0 * nbar / loss
            v_out = (1.0 - loss) * v_in + loss * (1.0 + 2.0 * env) * VACUUM_VARIANCE
        slope = math.sqrt(self.slope_gain) * math.sqrt(1.0 - loss)
        return slope, self.variance_gain * v_out + self.variance_offset

    def standard_errors(
        self, slope: float, slope_sigma, s2, samples: int, hypot=math.hypot
    ) -> tuple[float, float]:
        """(loss_sigma, noise_sigma) of a channel estimate from `samples`
        matched pairs: the slope error and the chi-square error of the
        residual variance s2, referred through this model. For arrays of
        s2, pass an elementwise `hypot`."""
        loss_sigma = 2.0 * abs(slope) * slope_sigma / self.slope_gain
        s2_sigma = s2 * math.sqrt(2.0 / (samples - 1))
        return loss_sigma, hypot(
            s2_sigma / self.variance_gain,
            (self.channel_input_variance - VACUUM_VARIANCE) * loss_sigma,
        )


def trusted_readout_constants(
    chain: DeviceChainParams, matched: bool = True
) -> ReadoutModel:
    """Closed-form referral constants of the receiver's readout.

    A matched receiver amplifies the encoding quadrature by G; a
    mismatched one deamplifies it, which is the same chain with G -> 1/G.
    """
    e1, e2, e3, e4 = chain.path_losses
    w1, w2, w3, w4 = (
        (1.0 + 2.0 * n) * VACUUM_VARIANCE for n in chain.path_environment_photons
    )
    tau_a = chain.displacement_coupler_transmissivity
    g = chain.measurement_gain if matched else 1.0 / chain.measurement_gain
    # prepared variance -> channel input: first path loss, coupler, second path loss
    in_gain = (1.0 - e2) * tau_a * (1.0 - e1)
    in_offset = (1.0 - e2) * (tau_a * e1 * w1 + (1.0 - tau_a) * VACUUM_VARIANCE) + e2 * w2
    slope_gain = g * tau_a * (1.0 - e2) * (1.0 - e3) * (1.0 - e4)
    variance_gain = (1.0 - e4) * g * (1.0 - e3)
    variance_offset = (
        (1.0 - e4) * g * (e3 * w3 + 0.5 * chain.amp_noise_photons)
        + e4 * w4
        + 0.5 * chain.hemt_noise_photons
    )
    v_q = in_gain * chain.squeezed_variance + in_offset
    v_p = in_gain * chain.antisqueezed_variance + in_offset
    return ReadoutModel(slope_gain, variance_gain, variance_offset, v_q, v_p)
