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
floats. The reader, ``_floatparse``, is that kernel's inverse: a float
``[-]I.F`` of fewer than 20 significant digits rounds to its double by
one Eisel-Lemire step; any other float text, and about 1 in 256 of those
whose rounding the step leaves open, goes through ``float``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

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

# The key.csv columns.
KEY_CSV_COLUMNS = ("index", "alice_basis", "bob_basis", "alpha", "beta", "matched")
# Symbols per block of the draws and of the record checks.
_DRAW_BLOCK = 1 << 14
# Bytes per block of the key.csv reader: about 1 300 of the presets'
# 51-byte rows. With its work arrays the reader peaks about 0.55 MB above
# the record it returns, at any N (np.loadtxt: 0.70 MB at N = 16 665).
_READ_BLOCK = 1 << 16


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
    if not (m + 8.0 * math.sqrt(2.0 * m)) * (slope_m * slope_m * codebook.variance + var_m) < math.inf:
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
    per row, ``2 * alice + bob``; ``KeyRecord`` derives the matched flag
    as ``alice == bob``.

    Each block of ``_floatrepr.BLOCK_CELLS`` floats, 2 048 rows, is laid
    out as one byte buffer by ``_floatrepr.key_rows``. Its floats are the
    bytes of ``repr``: from a vectorised shortest-digit kernel for fixed
    notation, 1e-4 <= |x| < 1e16, bar exact powers of two, and from
    ``repr`` itself for every other float (zeros, subnormals, exact
    powers of two and exponent notation). Memory stays flat in N.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(KEY_CSV_COLUMNS) + "\r\n").encode())
        for rows in _blocks(record.n_symbols, _floatrepr.BLOCK_CELLS // 2):
            pair = 2 * record.alice_bases[rows] + record.bob_bases[rows]
            fh.write(
                _floatrepr.key_rows(
                    rows.start, pair, record.alice_symbols[rows], record.outcomes[rows]
                )
            )


def read_key_records(path) -> KeyRecord:
    """Read a transcript written by :func:`write_key_records`.

    A first pass counts the rows. The second reads the file into one
    buffer, ``_READ_BLOCK`` bytes at a time, and ``_floatparse.key_columns``
    parses the whole rows of each block; the partial row after them moves
    to the front of the next. Each float reads back as ``float`` rounds
    its text, so a written record reads back bit-exact. Both ``\\r\\n``
    and ``\\n`` line ends are read, and the last row may have none. A row
    without six fields, an index other than 0..n-1 in up to 16 digits, a
    basis label other than ``q``/``p``, a matched flag other than the
    ``0``/``1`` the basis columns give, or a float that ``np.loadtxt``
    would not read raises ValueError. Memory beyond the record is the
    buffer and one block's arrays, whatever N.
    """
    from . import _floatparse  # here: a run that only writes key.csv never compiles it

    with open(path, "rb") as fh:
        header = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
        if header != ",".join(KEY_CSV_COLUMNS).encode():
            raise ValueError(f"unexpected key CSV header: {header!r}")
        data_start = fh.tell()
        pad = _floatparse.PAD
        # whole aligned words, with room after the block for the kernel's
        # last word and for a line end after a last row that has none
        buf = np.zeros((pad + _READ_BLOCK) // 8 + 1, dtype=np.uint64).view(np.uint8)
        view = memoryview(buf)[pad : pad + _READ_BLOCK]
        n, last = 0, ord("\n")
        while got := fh.readinto(view):
            n += np.count_nonzero(buf[pad : pad + got] == ord("\n"))
            last = buf[pad + got - 1]
        n += last != ord("\n")
        alpha, beta = np.empty(n), np.empty(n)
        alice, bob = np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int8)
        fh.seek(data_start)
        row = tail = 0
        while row < n:
            got = fh.readinto(view[tail:])
            end = pad + tail + got
            if not got:  # the last row has no line end
                buf[end] = ord("\n")
                end += 1
            pair, block_alpha, block_beta, stop = _floatparse.key_columns(buf, end, row)
            if end == pad + _READ_BLOCK and stop == pad:
                raise ValueError(f"key CSV row {row} is longer than {_READ_BLOCK} bytes")
            rows = slice(row, row + pair.size)
            np.right_shift(pair, 1, out=alice[rows])
            np.bitwise_and(pair, 1, out=bob[rows])
            alpha[rows], beta[rows] = block_alpha, block_beta
            row = rows.stop
            tail = end - stop
            buf[pad : pad + tail] = buf[stop:end]
    return KeyRecord(alpha, alice, bob, beta)


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
