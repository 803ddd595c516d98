"""Calibrated hardware parameters and the sender-to-receiver signal chain.

The chain composes, in order: impure squeezed-state preparation, a path
loss, the displacement encoding one symbol, the displacement coupler tap,
a second path loss, the untrusted channel (loss against a thermal
environment), a third path loss, phase-sensitive amplification with
trusted amplifier noise, a fourth path loss, and a unit-gain back end
adding lumped noise. The commands read the receiver's record from one
closed-form model, :func:`trusted_readout_constants`, computed once per
chain (:attr:`DeviceChainParams.readout`).
:func:`mwqkd.gaussian.bob_output_distribution` builds the same chain
from covariance operations and is the oracle tests check it by.

This module holds only that runtime chain; no command's use of it
imports numpy or :mod:`mwqkd.gaussian`. It also holds the pieces the numpy modules share
with the numpy-free ones: the vacuum variance, :class:`ChannelEstimate`,
and two input domains every layer checks against. :func:`check_channel`
states the channel's; beside it, :func:`check_nonnegative` states
"finite and >= 0", the domain of every photon number and standard error.
Each model rule has one owner here, beside its inverse or its other half:
the record's moments and the estimate's inverse of them
(:meth:`ReadoutModel.moments`, :meth:`ReadoutModel.invert`), the matched
record's marginal variance (:func:`record_variance`), and the background
coupling through the loss tap and its inverse
(:meth:`ChannelParams.from_environment`,
:attr:`ChannelParams.environment_photons`).

Preparation and detection noise are trusted: they shape the measured
statistics but are not attributed to an eavesdropper. Only the channel
loss and its coupled noise photons are untrusted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

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
    variance, so sigma_A^2 = sigma_as^2 - sigma_s^2. Raises unless the
    levels S, A in dB meet the uncertainty bound, sigma_s sigma_as >= 1/4
    or A >= S, and the covering condition, sigma_as^2 >= sigma_s^2 or
    A >= -S (a negative S is an anti-squeezed "squeezed" quadrature).
    """
    levels = f"antisqueezing_db={float(antisqueezing_db)!r}, squeezing_db={float(squeezing_db)!r}"
    if not antisqueezing_db >= squeezing_db:
        raise ValueError(f"{levels}: A < S violates the uncertainty bound")
    if not antisqueezing_db >= -squeezing_db:
        raise ValueError(f"{levels}: A < -S leaves no codebook that covers the squeezed quadrature")
    return level_to_variance(antisqueezing_db, "antisqueezed") - level_to_variance(
        squeezing_db, "squeezed"
    )


# A level in dB has a finite linear ratio 10 ** (level / 10) below this.
MAX_LEVEL_DB = 10.0 * math.log10(sys.float_info.max)


def check_nonnegative(name: str, value) -> None:
    """Raise ValueError unless `value`, a float, a sequence of floats or a
    numpy array, is finite and >= 0 throughout: the domain of every photon
    number and standard error. The message names the first value outside."""
    values = value.tolist() if hasattr(value, "tolist") else value
    for v in values if isinstance(values, (list, tuple)) else (values,):
        if not 0.0 <= v < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {float(v)!r}")


def check_channel(loss: float, nbar) -> None:
    """Raise ValueError unless loss is in [0, 1) and the coupled noise nbar,
    a float or a numpy array (one noise grid), is finite and >= 0
    (:func:`check_nonnegative`): the channel domain of every path. The
    message names the value outside."""
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss must be in [0, 1), got {float(loss)!r}")
    check_nonnegative("noise_photons", nbar)


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
        for name in ("squeezing_db", "antisqueezing_db", "measurement_gain_db"):
            if not abs(level := getattr(self, name)) < MAX_LEVEL_DB:
                raise ValueError(f"{name} must be finite, also as a linear ratio, got {level!r}")
        if not 0.0 < self.quantum_efficiency <= 1.0:
            raise ValueError("quantum_efficiency must be in (0, 1]")
        for name in ("measurement_gain_db", "hemt_noise_photons"):
            check_nonnegative(name, getattr(self, name))
        if not 0.0 < self.displacement_coupler_transmissivity <= 1.0:
            raise ValueError("displacement_coupler_transmissivity must be in (0, 1]")
        losses = tuple(float(x) for x in self.path_losses)
        envs = tuple(float(x) for x in self.path_environment_photons)
        if len(losses) != 4 or len(envs) != 4:
            raise ValueError("path_losses and path_environment_photons need 4 entries")
        if not all(0.0 <= x < 1.0 for x in losses):
            raise ValueError("path loss must be in [0, 1)")
        check_nonnegative("path_environment_photons", envs)
        object.__setattr__(self, "path_losses", losses)
        object.__setattr__(self, "path_environment_photons", envs)
        # at zero noise chi's invariants stay below 5 k^2 at every loss: a
        # chain past the largest float there overflows them by itself
        v_q = max(self.modulated_input_variance, self.readout.channel_input_variance)
        v_p = self.readout.orthogonal_input_variance
        k = (4.0 * v_q + 1.0) * (4.0 * v_p + 1.0)
        if not 5.0 * k * k < math.inf:
            raise ValueError(f"chain channel-input variances ({v_q!r}, {v_p!r}) overflow chi")

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
    """Untrusted channel: loss tap and coupled noise photons (:func:`check_channel`)."""

    loss: float
    noise_photons: float = 0.0

    def __post_init__(self) -> None:
        check_channel(self.loss, self.noise_photons)

    @classmethod
    def from_environment(cls, loss: float, environment_photons: float) -> ChannelParams:
        """The channel whose loss tap couples in a thermal environment of
        occupation n_th = `environment_photons`: nbar = n_th * loss / 2,
        the inverse of :attr:`environment_photons`."""
        return cls(loss, 0.5 * environment_photons * loss)

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
        for name in ("loss_sigma", "noise_sigma"):
            check_nonnegative(name, getattr(self, name))
        for value in (self.loss, self.noise_photons):
            if not math.isfinite(value):
                raise ValueError("estimates must be finite")


def channel_input_response(chain: DeviceChainParams) -> float:
    """Mean shift at the channel input per unit symbol amplitude."""
    return math.sqrt(
        chain.displacement_coupler_transmissivity * (1.0 - chain.path_losses[1])
    )


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


def record_variance(
    chain: DeviceChainParams, channel: ChannelParams, symbol_variance: float
) -> float:
    """Marginal variance of the matched record over symbols of variance
    `symbol_variance`: slope^2 * symbol_variance + the noise variance."""
    slope, variance = chain.readout.moments(channel.loss, channel.noise_photons)
    return slope * slope * symbol_variance + variance


@dataclass(frozen=True)
class ReadoutModel:
    """Trusted-side constants of one readout.

    The record obeys beta = sqrt(slope_gain * (1 - eps)) * alpha + noise
    with noise variance variance_gain * v_out + variance_offset, where
    v_out = (1 - eps) * channel_input_variance + eps/4 + nbar is the
    conditional variance of the encoding quadrature at the channel
    output. orthogonal_input_variance is the channel-input variance of
    the other (anti-squeezed) quadrature, which the eavesdropper's state
    also depends on. Channel estimation inverts these relations
    (:meth:`invert`).
    """

    slope_gain: float
    variance_gain: float
    variance_offset: float
    channel_input_variance: float
    orthogonal_input_variance: float

    def moments(self, loss: float, nbar):
        """(slope, variance) of the record at channel loss `loss`.

        `nbar`, the coupled noise, may be a float or a numpy array (one
        noise grid); the arithmetic is the same either way. It divides by
        nothing, so it is finite on the whole channel domain, loss 0 too.
        """
        v_out = (1.0 - loss) * self.channel_input_variance + loss * VACUUM_VARIANCE + nbar
        slope = math.sqrt(self.slope_gain) * math.sqrt(1.0 - loss)
        return slope, self.variance_gain * v_out + self.variance_offset

    def invert(self, slope: float, variance: float) -> tuple[float, float]:
        """(loss, raw nbar) whose :meth:`moments` are (slope, variance):
        the method-of-moments channel estimate. The raw nbar is not
        clamped, so it is negative where the variance falls below the
        model's at zero noise."""
        transmissivity = slope * slope / self.slope_gain
        loss = 1.0 - transmissivity
        v_out = (variance - self.variance_offset) / self.variance_gain
        return loss, v_out - transmissivity * self.channel_input_variance - loss * VACUUM_VARIANCE

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


def __getattr__(name: str):
    # The benchmark tracer binds devices.bob_output_distribution, now the
    # oracle's in gaussian; delete this once that binding is optional.
    if name == "bob_output_distribution":
        from .gaussian import bob_output_distribution

        return bob_output_distribution
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
