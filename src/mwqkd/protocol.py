"""Prepare-and-measure protocol: codebook sampling, single-shot records,
sifting, channel estimation, and the analysis of a run's sifted pairs.

Randomness comes from numpy's counter-based Philox generator. A run draws
each random quantity for all symbols in a fixed order (all basis coins,
then all normals), so results are reproducible regardless of evaluation
or aggregation order. The coins' uniforms pass through one block-sized
buffer and the normals go straight into their output arrays; both give
the bits of one N-length draw, and working memory beyond the record
stays at one block.

The transcript, key.csv, holds the bytes ``csv.writer`` would write, each
float as ``repr(float(x))``. The numpy kernel ``_floatrepr`` writes it
and its inverse ``_floatparse`` reads it back bit-exact; both own the
file's layout, blocks and checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import stats
from ._floatrepr import BASIS_LABELS, KEY_CSV_COLUMNS, write_key_csv
from .devices import (
    ChannelEstimate,
    ChannelParams,
    DeviceChainParams,
    record_variance,
    response_and_noise,
)
from .errors import InsufficientDataError
from .security import _fields_dict, build_report

# Minimum matched pairs for the moment estimator; below this the slope and
# residual-variance errors are not in their asymptotic regime.
MIN_ESTIMATION_SAMPLES = 30

# Symbols per block of the draws and of the record checks.
_DRAW_BLOCK = 1 << 14


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _blocks(n: int):
    """Consecutive slices of at most _DRAW_BLOCK covering 0..n-1."""
    return (slice(start, min(start + _DRAW_BLOCK, n)) for start in range(0, n, _DRAW_BLOCK))


def _fair_coins(rng: np.random.Generator, n: int) -> np.ndarray:
    """n fair coin flips as int8 0/1: the bits of ``rng.random(n) < 0.5``,
    drawn through one block-sized buffer."""
    coins = np.empty(n, dtype=np.int8)
    uniform = np.empty(min(n, _DRAW_BLOCK))
    for rows in _blocks(n):
        u = uniform[: rows.stop - rows.start]
        rng.random(out=u)
        np.less(u, 0.5, out=coins[rows])
    return coins


@dataclass(frozen=True)
class Codebook:
    """Sender-side symbols and basis choices for one run."""

    symbols: np.ndarray
    bases: np.ndarray  # 0 = q, 1 = p
    variance: float

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
    if n_symbols > sys.maxsize:
        raise ValueError(f"n_symbols must be <= sys.maxsize ({sys.maxsize}), got {n_symbols}")
    if not (variance >= 0.0):
        raise ValueError("variance must be >= 0")
    rng = _rng(seed)
    bases = _fair_coins(rng, n_symbols)
    symbols = rng.standard_normal(n_symbols)
    symbols *= math.sqrt(variance)
    return Codebook(symbols, bases, float(variance))


@dataclass(frozen=True)
class KeyRecord:
    """Per-symbol transcript of one protocol run; ``matched`` is derived,
    ``alice_bases == bob_bases``, once when the record is built."""

    alice_symbols: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    outcomes: np.ndarray
    matched: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = self.alice_symbols.size
        for arr in (self.alice_bases, self.bob_bases, self.outcomes):
            if arr.size != n:
                raise ValueError("all record columns must have equal length")
        # block-wise, so checking a record needs no N-length temporary
        for bases in (self.alice_bases, self.bob_bases):
            if not all(((bases[rows] == 0) | (bases[rows] == 1)).all() for rows in _blocks(n)):
                raise ValueError(f"basis codes must be 0 or 1 ({BASIS_LABELS})")
        for column in ("alice_symbols", "outcomes"):
            values = getattr(self, column)
            if not all(np.isfinite(values[rows]).all() for rows in _blocks(n)):
                raise ValueError(f"{column} must be finite")
        object.__setattr__(self, "matched", self.alice_bases == self.bob_bases)

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

    The stream holds all basis coins, then all noise draws; the coins are
    drawn even when `announce_bases` discards them, so the noise of a
    symbol is the same in both modes. The record holds the codebook's
    own symbol and basis arrays, not copies.
    """
    rng = _rng(seed)
    n = codebook.n_symbols
    bob_bases = _fair_coins(rng, n)
    if announce_bases:
        np.copyto(bob_bases, codebook.bases)

    # The chain is symmetric under swapping q and p, so only matched-ness
    # matters for the affine decomposition of the record.
    slope_m, var_m = response_and_noise(chain, channel, matched=True)
    slope_x, var_x = response_and_noise(chain, channel, matched=False)
    # estimation and the bootstrap sum squares of the m matched records,
    # E[beta^2] times a chi-square of m degrees of freedom (or a resample of
    # it): bounded 8 sd, 8 sqrt(2m), above its mean. The gain is >= 1, so
    # var_x <= var_m.
    m = sum(int(np.count_nonzero(codebook.bases[r] == bob_bases[r])) for r in _blocks(n))
    if not (m + 8.0 * math.sqrt(2.0 * m)) * record_variance(chain, channel, codebook.variance) < math.inf:
        raise ValueError(
            f"measurement_gain_db={float(chain.measurement_gain_db)!r} with noise_photons="
            f"{channel.noise_photons!r} at loss={channel.loss!r} overflows the record variance"
            f" or the sums of squares of its {m} matched records"
        )
    sigma_m, sigma_x = math.sqrt(var_m), math.sqrt(var_x)
    # outcome = slope * symbol + sigma * noise, formed in place on the noise
    # from each block's agreement, with one block of float64 live at a time
    outcomes = rng.standard_normal(n)
    for rows in _blocks(n):
        matched = codebook.bases[rows] == bob_bases[rows]
        noise = outcomes[rows]
        noise *= np.where(matched, sigma_m, sigma_x)
        shift = np.where(matched, slope_m, slope_x)
        shift *= codebook.symbols[rows]
        noise += shift
        del shift
    return KeyRecord(codebook.symbols, codebook.bases, bob_bases, outcomes)


def sift(record: KeyRecord) -> tuple[np.ndarray, np.ndarray]:
    """Matched (alpha, beta) pairs, in transmission order."""
    # boolean indexing already copies
    mask = record.matched
    return record.alice_symbols[mask], record.outcomes[mask]


def estimate_channel(
    alpha: np.ndarray, beta: np.ndarray, chain: DeviceChainParams
) -> ChannelEstimate:
    """Estimate channel loss and coupled noise from matched pairs.

    Regression of beta on alpha through the origin gives the slope and
    the residual variance; the chain's readout model inverts them
    (:meth:`~mwqkd.devices.ReadoutModel.invert`) to the loss and the
    coupled-noise estimate, clamped at 0. Standard errors are the
    asymptotic slope-error and chi-square variance-error formulas
    propagated through the same model. Fewer than MIN_ESTIMATION_SAMPLES
    pairs, or pairs whose alpha are all 0, raise InsufficientDataError.
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
    if sxx == 0.0:
        raise InsufficientDataError(
            "every matched symbol is 0 (an unmodulated chain), so the regression has no slope"
        )
    slope = float(alpha @ beta) / sxx
    resid = beta - slope * alpha
    s2 = float(resid @ resid) / (m - 1)

    loss, noise_raw = model.invert(slope, s2)
    loss_sigma, noise_sigma = model.standard_errors(slope, math.sqrt(s2 / sxx), s2, m)
    return ChannelEstimate(
        loss=loss,
        loss_sigma=loss_sigma,
        noise_photons=max(noise_raw, 0.0),
        noise_sigma=noise_sigma,
        samples=m,
        clamped=bool(noise_raw < 0.0),
    )


def write_key_records(record: KeyRecord, path) -> None:
    """Write a transcript as key.csv, the bytes of ``csv.writer`` in its
    default dialect with each float as ``repr``."""
    write_key_csv(path, record.alice_bases, record.bob_bases, record.alice_symbols, record.outcomes)


def read_key_records(path) -> KeyRecord:
    """Read a transcript written by :func:`write_key_records`, bit-exact.
    A malformed file raises ValueError (``_floatparse.read_key_csv``)."""
    from . import _floatparse  # here: a run that only writes key.csv never compiles it

    alice, bob, alpha, beta = _floatparse.read_key_csv(path)
    return KeyRecord(alpha, alice, bob, beta)


def key_manifest(record: KeyRecord, cfg) -> dict:
    """JSON-ready manifest of the transcript of a run of `cfg`: every input
    of :func:`generate_codebook` and :func:`simulate_transmission` and the
    config echo, so it alone regenerates the transcript."""
    return {
        "n_symbols": int(record.n_symbols),
        "n_matched": int(record.matched.sum()),
        "codebook_seed": cfg.seed,
        "codebook_variance": cfg.chain.codebook_variance,
        "transmission_seed": cfg.transmission_seed,
        "announce_bases": cfg.announce_bases,
        "chain": _fields_dict(cfg.chain),
        "channel": _fields_dict(cfg.channel),
        "csv_columns": list(KEY_CSV_COLUMNS),
        "config": cfg.to_dict(),
    }


# histogram.csv's columns, one row per bin of analyze's rows
HISTOGRAM_COLUMNS = ("bin_lo", "bin_hi", "count", "density")


def analyze(alpha: np.ndarray, beta: np.ndarray, cfg, mi_sigma) -> tuple[dict, list]:
    """report.json's payload and histogram.csv's rows (under
    :data:`HISTOGRAM_COLUMNS`) for the sifted pairs of a run of `cfg`. The
    pairs after the first n_ec estimate the channel; the histogram is
    compared with the configured channel's record variance. ``mi_sigma()``,
    the mutual information's error bar, is called last, so a bootstrap
    started before this call runs beside the rest."""
    n_ec = cfg.key_settings["n_ec"]
    estimate = estimate_channel(alpha[n_ec:], beta[n_ec:], cfg.chain)
    echo = {"codebook_seed": cfg.seed, "transmission_seed": cfg.transmission_seed,
            "n_matched": int(alpha.size), "config": cfg.to_dict()}
    report = build_report(cfg.chain, estimate=estimate, extra_inputs=echo, **cfg.key_settings)
    mi_emp = stats.empirical_mutual_information(alpha, beta)
    hist = stats.build_histogram(beta)
    model_variance = record_variance(cfg.chain, cfg.channel, cfg.chain.codebook_variance)
    overlap = stats.histogram_vs_gaussian(hist, 0.0, model_variance)
    edges = hist.bin_edges.tolist()
    rows = list(zip(edges[:-1], edges[1:], hist.counts.tolist(), hist.densities().tolist()))
    payload = report.to_dict()
    payload["empirical"] = {
        "n_matched": int(alpha.size),
        "mutual_information_bits": mi_emp,
        "bhattacharyya_vs_model": overlap,
        "hellinger_vs_model": stats.hellinger_from_coefficient(overlap),
        "mutual_information_sigma": mi_sigma(),
    }
    return payload, rows
