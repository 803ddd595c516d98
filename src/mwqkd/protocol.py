"""Prepare-and-measure protocol: codebook sampling, single-shot records,
sifting, and channel estimation from the sifted data.

Randomness comes from numpy's counter-based Philox generator. A run draws
each random quantity for all symbols in a fixed order (all basis coins,
then all normals), so results are reproducible regardless of evaluation
or aggregation order. The coins' uniforms pass through one block-sized
buffer and the normals go straight into their output arrays; both give
the bits of one N-length draw, and working memory beyond the record
stays at one block.

The transcript, key.csv, holds the bytes ``csv.writer`` would write, each
float as ``repr(float(x))``. The floats ``repr`` writes in fixed notation,
1e-4 <= |x| < 1e16, bar exact powers of two, get those bytes from the
numpy kernel in ``_floatrepr`` (shortest round-trip digits by the
Schubfach method); every other float goes through ``repr`` itself. In
the presets' transcripts those are a few per run, about 4e-5 of the
floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _floatrepr
from .devices import (
    VACUUM_VARIANCE,
    ChannelEstimate,
    ChannelParams,
    DeviceChainParams,
    response_and_noise,
)
from .errors import InsufficientDataError

BASIS_LABELS = ("q", "p")

# Minimum matched pairs for the moment estimator; below this the slope and
# residual-variance errors are not in their asymptotic regime.
MIN_ESTIMATION_SAMPLES = 30

KEY_CSV_COLUMNS = ("index", "alice_basis", "bob_basis", "alpha", "beta", "matched")
# Basis labels are parsed as 2-byte strings so that a longer label
# (``qq``, ``qp``) truncates to something that is still not a label.
_KEY_CSV_DTYPE = np.dtype(
    [
        ("index", np.int64),
        ("alice_basis", "S2"),
        ("bob_basis", "S2"),
        ("alpha", np.float64),
        ("beta", np.float64),
        ("matched", np.int64),
    ]
)
# Symbols per block of the draws and of the record checks.
_DRAW_BLOCK = 1 << 14
# Rows formatted and written per block by write_key_records.
_WRITE_CHUNK_ROWS = 1 << 11


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _blocks(n: int, size: int = _DRAW_BLOCK):
    """Consecutive slices of at most `size` covering 0..n-1."""
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


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
    bases = _fair_coins(rng, n_symbols)
    symbols = rng.standard_normal(n_symbols)
    symbols *= math.sqrt(variance)
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
        # block-wise, so checking a record needs no N-length temporary
        for bases in (self.alice_bases, self.bob_bases):
            if not all(((bases[rows] == 0) | (bases[rows] == 1)).all() for rows in _blocks(n)):
                raise ValueError(f"basis codes must be 0 or 1 ({BASIS_LABELS})")
        if not all(
            np.array_equal(self.matched[rows], self.alice_bases[rows] == self.bob_bases[rows])
            for rows in _blocks(n)
        ):
            raise ValueError("matched flags inconsistent with basis columns")
        for column in ("alice_symbols", "outcomes"):
            values = getattr(self, column)
            if not all(np.isfinite(values[rows]).all() for rows in _blocks(n)):
                raise ValueError(f"{column} must be finite")

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
    matched = codebook.bases == bob_bases

    # The chain is symmetric under swapping q and p, so only matched-ness
    # matters for the affine decomposition of the record.
    slope_m, var_m = response_and_noise(chain, channel, matched=True)
    slope_x, var_x = response_and_noise(chain, channel, matched=False)
    # estimation and the bootstrap sum squares of the m matched records,
    # E[beta^2] times a chi-square of m degrees of freedom (or a resample of
    # it): bounded 8 sd, 8 sqrt(2m), above its mean. The gain is >= 1, so
    # var_x <= var_m.
    m = int(np.count_nonzero(matched))
    if not (m + 8.0 * math.sqrt(2.0 * m)) * (slope_m * slope_m * codebook.variance + var_m) < math.inf:
        raise ValueError(
            f"measurement_gain_db={float(chain.measurement_gain_db)!r} with noise_photons="
            f"{channel.noise_photons!r} at loss={channel.loss!r} overflows the record variance"
            f" or the sums of squares of its {m} matched records"
        )
    sigma_m, sigma_x = math.sqrt(var_m), math.sqrt(var_x)
    # outcome = slope * symbol + sigma * noise, formed in place on the noise
    outcomes = rng.standard_normal(n)
    for rows in _blocks(n):
        noise = outcomes[rows]
        noise *= np.where(matched[rows], sigma_m, sigma_x)
        noise += np.where(matched[rows], slope_m, slope_x) * codebook.symbols[rows]
    return KeyRecord(codebook.symbols, codebook.bases, bob_bases, outcomes, matched)


def sift(record: KeyRecord) -> tuple[np.ndarray, np.ndarray]:
    """Matched (alpha, beta) pairs, in transmission order."""
    # boolean indexing already copies
    mask = record.matched
    return record.alice_symbols[mask], record.outcomes[mask]


def estimate_channel(
    alpha: np.ndarray, beta: np.ndarray, chain: DeviceChainParams
) -> ChannelEstimate:
    """Estimate channel loss and coupled noise from matched pairs.

    Regression of beta on alpha through the origin gives the slope, which
    the known trusted-chain gain converts to a loss estimate; the
    residual variance minus the trusted noise contributions gives the
    coupled-noise estimate. Standard errors are the asymptotic
    slope-error and chi-square variance-error formulas propagated through
    the same referral. Fewer than MIN_ESTIMATION_SAMPLES pairs, or pairs
    whose alpha are all 0, raise InsufficientDataError.
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
    """Write a transcript as CSV with the frozen column schema.

    The bytes are those of ``csv.writer`` in its default dialect: comma
    separated, ``\\r\\n`` line ends, floats as ``repr``, and nothing quoted,
    since no field can hold a comma, quote or line break. The two label
    columns and the matched column are written from one basis-pair code
    per row, ``2 * alice + bob``; ``KeyRecord`` guarantees that the
    matched flag is ``alice == bob``.

    Each block of rows is laid out as one byte buffer by
    ``_floatrepr.key_rows``. Its floats are the bytes of ``repr``: from a
    vectorised shortest-digit kernel for fixed notation, 1e-4 <= |x| <
    1e16, bar exact powers of two, and from ``repr`` itself for every
    other float (zeros, subnormals, exact powers of two and exponent
    notation). Memory stays flat in the number of symbols.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(KEY_CSV_COLUMNS) + "\r\n").encode())
        for rows in _blocks(record.n_symbols, _WRITE_CHUNK_ROWS):
            pair = 2 * record.alice_bases[rows] + record.bob_bases[rows]
            fh.write(
                _floatrepr.key_rows(
                    rows.start, pair, record.alice_symbols[rows], record.outcomes[rows]
                )
            )


def read_key_records(path) -> KeyRecord:
    """Read a transcript written by :func:`write_key_records`.

    The rows are parsed in one ``np.loadtxt`` call, which rounds every
    float exactly as ``float`` does, so a written record reads back
    bit-exact. Both ``\\r\\n`` and ``\\n`` line ends are read. A short row,
    a non-numeric field, a basis label other than ``q``/``p``, an index
    column other than 0..n-1, or a matched flag that disagrees with the
    bases raises ValueError.
    """
    with open(path) as fh:
        header = tuple(fh.readline().rstrip("\n").split(","))
        header_only = not fh.read(1)
    if header != KEY_CSV_COLUMNS:
        raise ValueError(f"unexpected key CSV header: {header!r}")
    if header_only:  # loadtxt would warn about empty input
        rows = np.empty(0, dtype=_KEY_CSV_DTYPE)
    else:
        rows = np.loadtxt(
            path, dtype=_KEY_CSV_DTYPE, delimiter=",", comments=None, skiprows=1, ndmin=1
        )
    alice = _basis_codes(rows["alice_basis"], "alice_basis")
    bob = _basis_codes(rows["bob_basis"], "bob_basis")
    matched = alice == bob
    if not np.array_equal(rows["index"], np.arange(rows.size)):
        raise ValueError("key CSV index column must run 0..n-1")
    if not np.array_equal(rows["matched"], matched):
        raise ValueError("key CSV matched column disagrees with the basis columns")
    return KeyRecord(rows["alpha"].copy(), alice, bob, rows["beta"].copy(), matched)


def _basis_codes(labels: np.ndarray, column: str) -> np.ndarray:
    """0/1 basis codes of a column of ``BASIS_LABELS`` read as bytes."""
    is_p = labels == b"p"
    if not np.all(is_p | (labels == b"q")):
        raise ValueError(f"key CSV {column} must be one of {BASIS_LABELS}")
    return is_p.astype(np.int8)


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
