"""Prepare-and-measure protocol: codebook sampling, single-shot records,
sifting, and channel estimation from the sifted data.

Randomness comes from numpy's counter-based Philox generator. Every
random quantity of a run is drawn as a fixed-shape vectorized block, so
each symbol consumes a fixed counter range and results are reproducible
regardless of evaluation or aggregation order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

from .devices import ChannelParams, DeviceChainParams, response_and_noise
from .errors import InsufficientDataError
from .gaussian import VACUUM_VARIANCE

BASIS_LABELS = ("q", "p")

# Minimum matched pairs for the moment estimator; below this the slope and
# residual-variance errors are not in their asymptotic regime.
MIN_ESTIMATION_SAMPLES = 30

KEY_CSV_COLUMNS = ("index", "alice_basis", "bob_basis", "alpha", "beta", "matched")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class Codebook:
    """Sender-side symbols and basis choices for one run."""

    symbols: np.ndarray
    bases: np.ndarray  # 0 = q, 1 = p
    variance: float
    seed: int

    def __post_init__(self) -> None:
        if self.symbols.shape != self.bases.shape:
            raise ValueError("symbols and bases must have equal length")

    @property
    def n_symbols(self) -> int:
        return self.symbols.size


def generate_codebook(n_symbols: int, variance: float, seed: int) -> Codebook:
    """Draw i.i.d. Gaussian symbols and uniform basis bits.

    Symbols are N(0, variance); bases are fair coin flips. Reproducible
    from the seed.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if not (variance >= 0.0):
        raise ValueError("variance must be >= 0")
    rng = _rng(seed)
    bases = (rng.random(n_symbols) < 0.5).astype(np.int8)
    symbols = math.sqrt(variance) * rng.standard_normal(n_symbols)
    return Codebook(symbols, bases, float(variance), int(seed))


@dataclass(frozen=True)
class KeyRecord:
    """Per-symbol transcript of one protocol run."""

    alice_symbols: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    outcomes: np.ndarray
    matched: np.ndarray

    def __post_init__(self) -> None:
        n = self.alice_symbols.size
        for arr in (self.alice_bases, self.bob_bases, self.outcomes, self.matched):
            if arr.size != n:
                raise ValueError("all record columns must have equal length")
        if not np.array_equal(self.matched, self.alice_bases == self.bob_bases):
            raise ValueError("matched flags inconsistent with basis columns")
        if not np.all(np.isfinite(self.outcomes)):
            raise ValueError("outcomes must be finite")

    @property
    def n_symbols(self) -> int:
        return self.alice_symbols.size


def simulate_transmission(
    codebook: Codebook,
    chain: DeviceChainParams,
    channel: ChannelParams,
    seed: int,
    announce_bases: bool = False,
) -> KeyRecord:
    """Simulate one single-shot measurement per symbol.

    The receiver's basis is an independent fair coin per symbol unless
    `announce_bases` is set, in which case it always equals the sender's
    (pre-announced bases, no sifting losses). Each outcome is one draw
    from the exact output distribution of the device chain; matched and
    mismatched records differ only in slope and variance, and the
    mismatched slope is suppressed by the measurement gain.
    """
    rng = _rng(seed)
    n = codebook.n_symbols
    coins = rng.random(n)
    noise = rng.standard_normal(n)
    if announce_bases:
        bob_bases = codebook.bases.copy()
    else:
        bob_bases = (coins < 0.5).astype(np.int8)
    matched = codebook.bases == bob_bases

    # The chain is symmetric under swapping q and p, so only matched-ness
    # matters for the affine decomposition of the record.
    slope_m, var_m = response_and_noise(chain, channel, matched=True)
    slope_x, var_x = response_and_noise(chain, channel, matched=False)
    slope = np.where(matched, slope_m, slope_x)
    sigma = np.where(matched, math.sqrt(var_m), math.sqrt(var_x))
    outcomes = slope * codebook.symbols + sigma * noise
    return KeyRecord(codebook.symbols.copy(), codebook.bases.copy(), bob_bases, outcomes, matched)


def sift(record: KeyRecord) -> tuple[np.ndarray, np.ndarray]:
    """Matched (alpha, beta) pairs, in transmission order."""
    mask = record.matched
    return record.alice_symbols[mask].copy(), record.outcomes[mask].copy()


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


def estimate_channel(
    alpha: np.ndarray, beta: np.ndarray, chain: DeviceChainParams
) -> ChannelEstimate:
    """Estimate channel loss and coupled noise from matched pairs.

    Regression of beta on alpha through the origin gives the slope, which
    the known trusted-chain gain converts to a loss estimate; the
    residual variance minus the trusted noise contributions gives the
    coupled-noise estimate. Standard errors are the asymptotic
    slope-error and chi-square variance-error formulas propagated through
    the same referral.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != beta.shape or alpha.ndim != 1:
        raise ValueError("alpha and beta must be 1-D arrays of equal length")
    m = alpha.size
    if m < MIN_ESTIMATION_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_ESTIMATION_SAMPLES} matched pairs, got {m}"
        )
    model = chain.readout

    sxx = float(alpha @ alpha)
    slope = float(alpha @ beta) / sxx
    resid = beta - slope * alpha
    s2 = float(resid @ resid) / (m - 1)

    transmissivity = slope * slope / model.slope_gain
    loss = 1.0 - transmissivity
    loss_sigma, noise_sigma = model.standard_errors(slope, math.sqrt(s2 / sxx), s2, m)
    v_out = (s2 - model.variance_offset) / model.variance_gain
    noise_raw = (
        v_out
        - transmissivity * model.channel_input_variance
        - loss * VACUUM_VARIANCE
    )
    return ChannelEstimate(
        loss=loss,
        loss_sigma=loss_sigma,
        noise_photons=max(noise_raw, 0.0),
        noise_sigma=noise_sigma,
        samples=m,
        clamped=bool(noise_raw < 0.0),
    )


def write_key_records(record: KeyRecord, path) -> None:
    """Write a transcript as CSV with the frozen column schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(KEY_CSV_COLUMNS)
        for i in range(record.n_symbols):
            writer.writerow(
                [
                    i,
                    BASIS_LABELS[record.alice_bases[i]],
                    BASIS_LABELS[record.bob_bases[i]],
                    repr(float(record.alice_symbols[i])),
                    repr(float(record.outcomes[i])),
                    int(record.matched[i]),
                ]
            )


def read_key_records(path) -> KeyRecord:
    """Read a transcript written by :func:`write_key_records`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != KEY_CSV_COLUMNS:
            raise ValueError(f"unexpected key CSV header: {header!r}")
        rows = list(reader)
    n = len(rows)
    symbols = np.empty(n)
    alice = np.empty(n, dtype=np.int8)
    bob = np.empty(n, dtype=np.int8)
    outcomes = np.empty(n)
    for i, row in enumerate(rows):
        _, a_basis, b_basis, alpha, beta, _ = row
        alice[i] = BASIS_LABELS.index(a_basis)
        bob[i] = BASIS_LABELS.index(b_basis)
        symbols[i] = float(alpha)
        outcomes[i] = float(beta)
    return KeyRecord(symbols, alice, bob, outcomes, alice == bob)


def key_manifest(
    codebook: Codebook,
    record: KeyRecord,
    chain: DeviceChainParams,
    channel: ChannelParams,
    transmission_seed: int,
    announce_bases: bool = False,
) -> dict:
    """JSON-ready manifest describing how a transcript was produced.

    It holds every input of :func:`generate_codebook` and
    :func:`simulate_transmission`, so it alone regenerates the transcript.
    """
    return {
        "n_symbols": int(record.n_symbols),
        "n_matched": int(record.matched.sum()),
        "codebook_seed": int(codebook.seed),
        "codebook_variance": float(codebook.variance),
        "transmission_seed": int(transmission_seed),
        "announce_bases": bool(announce_bases),
        "chain": asdict(chain),
        "channel": asdict(channel),
        "csv_columns": list(KEY_CSV_COLUMNS),
    }
