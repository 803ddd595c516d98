"""Protocol simulation: codebooks, transcripts, sifting, estimation."""

import csv
import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mwqkd
from mwqkd import _floatparse, _floatrepr
from mwqkd import protocol as proto
from mwqkd.devices import ChannelParams, response_and_noise
from mwqkd.errors import InsufficientDataError
from mwqkd.security import predicted_estimate

RUN1 = mwqkd.RUN1_CHAIN
RUN2 = mwqkd.RUN2_CHAIN
CHANNEL = ChannelParams(0.0115, 1.7e-6)


def test_codebook_is_seeded_and_sized():
    a = proto.generate_codebook(500, 1.17, seed=3)
    b = proto.generate_codebook(500, 1.17, seed=3)
    c = proto.generate_codebook(500, 1.17, seed=4)
    assert np.array_equal(a.symbols, b.symbols)
    assert np.array_equal(a.bases, b.bases)
    assert not np.array_equal(a.symbols, c.symbols)
    assert a.n_symbols == 500
    assert set(np.unique(a.bases)) <= {0, 1}


def test_codebook_moments():
    cb = proto.generate_codebook(200_000, 1.3294708852828510, seed=9)
    assert cb.symbols.mean() == pytest.approx(0.0, abs=0.01)
    assert cb.symbols.var() == pytest.approx(1.3294708852828510, rel=0.02)
    assert cb.bases.mean() == pytest.approx(0.5, abs=0.01)


def test_codebook_validation():
    with pytest.raises(ValueError):
        proto.generate_codebook(0, 1.0, seed=1)
    with pytest.raises(ValueError):
        proto.generate_codebook(10, -1.0, seed=1)


def test_transmission_is_deterministic():
    cb = proto.generate_codebook(400, RUN2.codebook_variance, seed=21)
    r1 = proto.simulate_transmission(cb, RUN2, CHANNEL, seed=22)
    r2 = proto.simulate_transmission(cb, RUN2, CHANNEL, seed=22)
    assert np.array_equal(r1.outcomes, r2.outcomes)
    assert np.array_equal(r1.bob_bases, r2.bob_bases)
    r3 = proto.simulate_transmission(cb, RUN2, CHANNEL, seed=23)
    assert not np.array_equal(r1.outcomes, r3.outcomes)


# The one-shot formulas the block-wise draws replaced: every random
# quantity drawn for all N symbols at once, coins before normals.
def _one_shot_codebook(n, variance, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    bases = (rng.random(n) < 0.5).astype(np.int8)
    symbols = math.sqrt(variance) * rng.standard_normal(n)
    return symbols, bases


def _one_shot_transmission(codebook, chain, channel, seed, announce_bases):
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = codebook.n_symbols
    coins = rng.random(n)
    noise = rng.standard_normal(n)
    if announce_bases:
        bob_bases = codebook.bases.copy()
    else:
        bob_bases = (coins < 0.5).astype(np.int8)
    matched = codebook.bases == bob_bases
    slope_m, var_m = response_and_noise(chain, channel, matched=True)
    slope_x, var_x = response_and_noise(chain, channel, matched=False)
    slope = np.where(matched, slope_m, slope_x)
    sigma = np.where(matched, math.sqrt(var_m), math.sqrt(var_x))
    return bob_bases, matched, slope * codebook.symbols + sigma * noise


def _bits(a):
    return a.dtype, a.tobytes()


_B = proto._DRAW_BLOCK
# rows of two floats per key.csv block
_KEY_BLOCK = _floatrepr.BLOCK_CELLS // 2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, _B - 1, _B, _B + 1, 3 * _B + 7]),
    chain=st.sampled_from([RUN1, RUN2]),
    announce=st.booleans(),
    seed=st.integers(0, 2**128 - 2),
)
def test_block_wise_draws_match_one_shot_draws(n, chain, announce, seed):
    cb = proto.generate_codebook(n, chain.codebook_variance, seed=seed)
    symbols, bases = _one_shot_codebook(n, chain.codebook_variance, seed)
    assert _bits(cb.symbols) == _bits(symbols)
    assert _bits(cb.bases) == _bits(bases)

    rec = proto.simulate_transmission(cb, chain, CHANNEL, seed=seed + 1, announce_bases=announce)
    bob_bases, matched, outcomes = _one_shot_transmission(cb, chain, CHANNEL, seed + 1, announce)
    assert _bits(rec.bob_bases) == _bits(bob_bases)
    assert _bits(rec.matched) == _bits(matched)
    assert _bits(rec.outcomes) == _bits(outcomes)
    assert _bits(rec.alice_symbols) == _bits(cb.symbols)
    assert _bits(rec.alice_bases) == _bits(cb.bases)


def _traced_peak(fn, *args, **kwargs):
    """(result, peak bytes traced while `fn` ran above what was live before)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def _nbytes(*arrays):
    return sum(a.nbytes for a in arrays)


# Working memory beyond the outputs is one block, whatever N: the traced
# peaks at 4 and 16 blocks (plus a partial one) differ by well under a block
# of float64, and both stay under 1 MB.
_FLAT = 32 * 1024
_CAP = 1 << 20


def test_key_csv_writer_memory_is_flat_in_n(tmp_path):
    peaks = []
    for n in (4 * _KEY_BLOCK + 17, 16 * _KEY_BLOCK + 17):
        cb = proto.generate_codebook(n, RUN2.codebook_variance, seed=5)
        rec = proto.simulate_transmission(cb, RUN2, CHANNEL, seed=6)
        _, peak = _traced_peak(proto.write_key_records, rec, tmp_path / f"{n}.csv")
        peaks.append(peak)
    assert max(peaks) < _CAP, peaks
    assert abs(peaks[1] - peaks[0]) < _FLAT, peaks


def _record_bytes(rec):
    return _nbytes(*(getattr(rec, column.name) for column in dataclasses.fields(proto.KeyRecord)))


def test_key_csv_reader_memory_is_flat_in_n(tmp_path):
    # The paper's N and four times it: the reader's peak above the record
    # it returns is its buffer and one block's arrays, whatever N. The
    # record's matched mask is formed after the last block, so the peak
    # is taken above the other columns. A first read fills numpy's caches.
    extra = {}
    for n in (100, 16665, 4 * 16665):
        cb = proto.generate_codebook(n, RUN2.codebook_variance, seed=5)
        rec = proto.simulate_transmission(cb, RUN2, CHANNEL, seed=6)
        proto.write_key_records(rec, tmp_path / f"{n}.csv")
        back, peak = _traced_peak(proto.read_key_records, tmp_path / f"{n}.csv")
        extra[n] = peak - _record_bytes(back) + back.matched.nbytes
    assert abs(extra[4 * 16665] - extra[16665]) < _FLAT, extra
    # no more than the np.loadtxt reader's peak above its whole record
    oracle, peak = _traced_peak(_loadtxt_reader_oracle, tmp_path / "16665.csv")
    assert extra[16665] <= peak - _record_bytes(oracle), (extra, peak)


@pytest.mark.parametrize("announce", [False, True])
def test_draw_memory_beyond_the_outputs_is_flat_in_n(announce):
    proto.generate_codebook(1, 1.0, seed=0)  # a process's first draw imports numpy.random
    codebook_extra, transmission_extra = [], []
    for n in (4 * _B + 17, 16 * _B + 17):
        cb, peak = _traced_peak(proto.generate_codebook, n, RUN1.codebook_variance, seed=8)
        codebook_extra.append(peak - _nbytes(cb.symbols, cb.bases))
        rec, peak = _traced_peak(
            proto.simulate_transmission, cb, RUN1, CHANNEL, seed=9, announce_bases=announce
        )
        # the record holds the codebook's symbols and bases, so it
        # allocates only its other three columns. Its matched mask is
        # formed after the draws, which may hold one block of float64
        # beside the two columns drawn before it: the peak is taken above
        # the larger of the two.
        drawn = _nbytes(rec.bob_bases, rec.outcomes)
        outputs = drawn + max(rec.matched.nbytes, _B * rec.outcomes.itemsize)
        transmission_extra.append(peak - outputs)
    for extra in (codebook_extra, transmission_extra):
        assert max(extra) < _CAP, extra
        assert abs(extra[1] - extra[0]) < _FLAT, extra


def test_transmission_moments_track_model():
    cb = proto.generate_codebook(120_000, RUN2.codebook_variance, seed=31)
    rec = proto.simulate_transmission(cb, RUN2, CHANNEL, seed=32)
    alpha, beta = proto.sift(rec)

    k, v = response_and_noise(RUN2, CHANNEL, matched=True)
    slope = float(alpha @ beta / (alpha @ alpha))
    resid = beta - slope * alpha
    assert slope == pytest.approx(k, rel=0.01)
    assert resid.var() == pytest.approx(v, rel=0.03)

    # mismatched pairs carry almost no signal
    mism = ~rec.matched
    kx, vx = response_and_noise(RUN2, CHANNEL, matched=False)
    x, y = cb.symbols[mism], rec.outcomes[mism]
    assert float(x @ y / (x @ x)) == pytest.approx(kx, abs=0.05)
    assert y.var() == pytest.approx(kx * kx * cb.variance + vx, rel=0.03)


def test_matched_flags_are_consistent():
    cb = proto.generate_codebook(1000, RUN1.codebook_variance, seed=41)
    rec = proto.simulate_transmission(cb, RUN1, CHANNEL, seed=42)
    assert np.array_equal(rec.matched, rec.alice_bases == rec.bob_bases)
    a, b = proto.sift(rec)
    assert a.size == b.size == int(rec.matched.sum())
    assert np.array_equal(a, rec.alice_symbols[rec.matched])


def test_announce_bases_removes_sifting_losses():
    cb = proto.generate_codebook(300, RUN1.codebook_variance, seed=51)
    rec = proto.simulate_transmission(cb, RUN1, CHANNEL, seed=52, announce_bases=True)
    assert rec.matched.all()
    a, b = proto.sift(rec)
    assert a.size == 300
    # outcomes agree with the coin-flip run wherever that run matched too
    coin = proto.simulate_transmission(cb, RUN1, CHANNEL, seed=52)
    assert np.array_equal(rec.outcomes[coin.matched], coin.outcomes[coin.matched])


def test_estimate_recovers_channel_parameters():
    true = ChannelParams(0.0115, 0.01)
    cb = proto.generate_codebook(60_000, RUN1.codebook_variance, seed=61)
    rec = proto.simulate_transmission(cb, RUN1, true, seed=62)
    a, b = proto.sift(rec)
    est = proto.estimate_channel(a, b, RUN1)
    assert est.samples == a.size
    assert est.loss == pytest.approx(true.loss, abs=3 * est.loss_sigma)
    assert est.noise_photons == pytest.approx(true.noise_photons, abs=3 * est.noise_sigma)
    assert est.loss_sigma > 0 and est.noise_sigma > 0


def test_estimate_uncertainty_shrinks_with_samples():
    true = ChannelParams(0.0115, 0.005)
    sig = {}
    for n, seed in ((4_000, 71), (64_000, 73)):
        cb = proto.generate_codebook(n, RUN1.codebook_variance, seed=seed)
        rec = proto.simulate_transmission(cb, RUN1, true, seed=seed + 1)
        a, b = proto.sift(rec)
        est = proto.estimate_channel(a, b, RUN1)
        sig[n] = (est.loss_sigma, est.noise_sigma)
    # 16x the data should give about 4x smaller sigmas
    assert sig[64_000][0] == pytest.approx(sig[4_000][0] / 4, rel=0.35)
    assert sig[64_000][1] == pytest.approx(sig[4_000][1] / 4, rel=0.35)


def test_estimate_sigma_matches_prediction():
    true = ChannelParams(0.0115, 0.01)
    cb = proto.generate_codebook(40_000, RUN1.codebook_variance, seed=81)
    rec = proto.simulate_transmission(cb, RUN1, true, seed=82)
    a, b = proto.sift(rec)
    est = proto.estimate_channel(a, b, RUN1)
    pred = predicted_estimate(RUN1, true, samples=a.size)
    assert est.loss_sigma == pytest.approx(pred.loss_sigma, rel=0.1)
    assert est.noise_sigma == pytest.approx(pred.noise_sigma, rel=0.1)


def test_estimate_clamps_negative_noise():
    # noiseless channel: sampling scatter pushes some estimates below zero
    true = ChannelParams(0.0115, 0.0)
    clamped_seen = False
    for seed in range(90, 102, 2):
        cb = proto.generate_codebook(2_000, RUN1.codebook_variance, seed=seed)
        rec = proto.simulate_transmission(cb, RUN1, true, seed=seed + 1)
        a, b = proto.sift(rec)
        est = proto.estimate_channel(a, b, RUN1)
        assert est.noise_photons >= 0.0
        clamped_seen = clamped_seen or est.clamped
    assert clamped_seen


def test_estimate_needs_minimum_samples():
    rng = np.random.default_rng(1)
    a = rng.normal(size=29)
    b = rng.normal(size=29)
    with pytest.raises(InsufficientDataError, match="30"):
        proto.estimate_channel(a, b, RUN1)


def test_key_csv_roundtrip(tmp_path):
    cb = proto.generate_codebook(257, RUN2.codebook_variance, seed=101)
    rec = proto.simulate_transmission(cb, RUN2, CHANNEL, seed=102)
    path = tmp_path / "key.csv"
    proto.write_key_records(rec, path)
    back = proto.read_key_records(path)
    assert np.array_equal(back.alice_symbols, rec.alice_symbols)
    assert np.array_equal(back.outcomes, rec.outcomes)
    assert np.array_equal(back.alice_bases, rec.alice_bases)
    assert np.array_equal(back.bob_bases, rec.bob_bases)
    assert np.array_equal(back.matched, rec.matched)


def test_key_csv_floats_read_back_bit_exact(tmp_path):
    extremes = np.array(
        [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, -2.5e-7]
    )
    bases = np.array([0, 1, 0, 1, 1, 0, 0], dtype=np.int8)
    rec = proto.KeyRecord(extremes, bases, bases, extremes[::-1].copy())
    proto.write_key_records(rec, tmp_path / "key.csv")
    back = proto.read_key_records(tmp_path / "key.csv")
    assert back.alice_symbols.view(np.uint64).tolist() == extremes.view(np.uint64).tolist()
    assert back.outcomes.view(np.uint64).tolist() == rec.outcomes.view(np.uint64).tolist()


def test_key_csv_header_is_checked(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        proto.read_key_records(path)


def _csv_writer_oracle(record, path):
    """The row-by-row ``csv.writer`` transcript writer: the byte reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(proto.KEY_CSV_COLUMNS)
        for i in range(record.n_symbols):
            writer.writerow(
                [
                    i,
                    proto.BASIS_LABELS[record.alice_bases[i]],
                    proto.BASIS_LABELS[record.bob_bases[i]],
                    repr(float(record.alice_symbols[i])),
                    repr(float(record.outcomes[i])),
                    int(record.matched[i]),
                ]
            )


# The key.csv columns as ``np.loadtxt`` parsed them. Basis labels are
# 2-byte strings, so that a longer label truncates to a non-label.
_LOADTXT_DTYPE = np.dtype(
    [
        ("index", np.int64),
        ("alice_basis", "S2"),
        ("bob_basis", "S2"),
        ("alpha", np.float64),
        ("beta", np.float64),
        ("matched", np.int64),
    ]
)


def _loadtxt_reader_oracle(path):
    """The ``np.loadtxt`` transcript reader: the parsing reference."""
    with open(path) as fh:
        header = tuple(fh.readline().rstrip("\n").split(","))
        header_only = not fh.read(1)
    if header != proto.KEY_CSV_COLUMNS:
        raise ValueError(f"unexpected key CSV header: {header!r}")
    if header_only:  # loadtxt would warn about empty input
        rows = np.empty(0, dtype=_LOADTXT_DTYPE)
    else:
        rows = np.loadtxt(
            path, dtype=_LOADTXT_DTYPE, delimiter=",", comments=None, skiprows=1, ndmin=1
        )
    codes = []
    for column in ("alice_basis", "bob_basis"):
        is_q, is_p = (rows[column] == label.encode() for label in proto.BASIS_LABELS)
        if not np.all(is_q | is_p):
            raise ValueError(f"key CSV {column} must be one of {proto.BASIS_LABELS}")
        codes.append(is_p.astype(np.int8))
    if not np.array_equal(rows["index"], np.arange(rows.size)):
        raise ValueError("key CSV index column must run 0..n-1")
    record = proto.KeyRecord(rows["alpha"].copy(), *codes, rows["beta"].copy())
    if not np.array_equal(rows["matched"], record.matched):
        raise ValueError("key CSV matched column disagrees with the basis columns")
    return record


@pytest.mark.parametrize("announce", [False, True])
@pytest.mark.parametrize("chain", [RUN1, RUN2], ids=["run1", "run2"])
def test_key_csv_bytes_match_csv_writer(tmp_path, chain, announce):
    # odd, and long enough for two full write chunks and a partial third
    n = 2 * _KEY_BLOCK + 101
    cb = proto.generate_codebook(n, chain.codebook_variance, seed=121)
    rec = proto.simulate_transmission(cb, chain, CHANNEL, seed=122, announce_bases=announce)
    proto.write_key_records(rec, tmp_path / "key.csv")
    _csv_writer_oracle(rec, tmp_path / "oracle.csv")
    assert (tmp_path / "key.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def _repr_cases() -> np.ndarray:
    """Doubles that probe every branch of the shortest-digit kernel, and
    its routing of the floats it does not take to ``repr``."""
    rng = np.random.default_rng(27)
    # random finite bit patterns: every exponent, both signs, subnormals
    random = rng.integers(0, 2**64, size=110_000, dtype=np.uint64).view(np.float64)
    # random mantissas over the kernel's exponents, 2**-14 <= |x| < 2**54
    biased = rng.integers(1023 - 14, 1023 + 54, size=200_000, dtype=np.uint64)
    sign = rng.integers(0, 2, size=biased.size, dtype=np.uint64)
    mantissa = rng.integers(0, 2**52, size=biased.size, dtype=np.uint64)
    kernel = (sign << np.uint64(63) | biased << np.uint64(52) | mantissa).view(np.float64)
    # k * 2**e with a small odd k: exact ties of the digit choice
    k = np.arange(1, 64, 2, dtype=np.float64)
    dyadic = np.ldexp(k[:, None], np.arange(-1074, 972)[None, :]).ravel()
    dyadic[::2] *= -1.0
    powers = np.concatenate(
        [np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{e}") for e in range(-323, 309)]]
    )
    # with their neighbours these hold the ends of the kernel's domain,
    # 2**-14, 1e-4, 1e16 and 2**54, and the powers of two inside it
    neighbours = np.concatenate([np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    cases = np.concatenate([random, kernel, dyadic, powers, neighbours])
    return cases[np.isfinite(cases)]


def test_key_csv_bytes_cross_repr_notation_switches(tmp_path):
    # repr switches to exponent notation below 1e-4 and at 1e16
    floats = np.array(
        [
            -0.0,
            5e-324,
            1e-05,
            9.999999999999999e-05,
            0.0001,
            1e16,
            9999999999999998.0,
            1.7976931348623157e308,
        ]
    )
    # the doubles on both sides of each switch, then the digit kernel's cases
    switches = np.array([1e-4, 1e16])
    more = np.concatenate(
        [np.nextafter(switches, 0.0), np.nextafter(switches, np.inf), -switches, _repr_cases()]
    )
    alice = np.resize(np.array([0, 0, 1, 1, 0, 1, 0, 1], dtype=np.int8), floats.size + more.size)
    bob = np.resize(np.array([0, 1, 0, 1, 1, 0, 0, 1], dtype=np.int8), alice.size)
    rec = proto.KeyRecord(
        np.concatenate([floats, more]),
        alice,
        bob,
        np.concatenate([floats[::-1], more[::-1]]),
    )
    proto.write_key_records(rec, tmp_path / "key.csv")
    _csv_writer_oracle(rec, tmp_path / "oracle.csv")
    written = (tmp_path / "key.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    for row in (
        b"0,q,q,-0.0,1.7976931348623157e+308,1",
        b"2,p,q,1e-05,1e+16,0",
        b"4,q,p,0.0001,9.999999999999999e-05,0",
        b"6,q,q,9999999999999998.0,5e-324,1",
    ):
        assert row + b"\r\n" in written
    for row in (
        b"8,q,q,9.999999999999999e-05,",
        b"9,q,p,9999999999999998.0,",
        b"10,p,q,0.00010000000000000002,",
        b"11,p,p,1.0000000000000002e+16,",
        b"12,q,p,-0.0001,",
        b"13,p,q,-1e+16,",
    ):
        assert b"\r\n" + row in written


def _repr_lines(table: np.ndarray) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


# Doubles inside and outside the kernel's domain: zeros, subnormals, exact
# powers of two, the notation switches at 1e-4 and 1e16 with their
# neighbours, large magnitudes and the non-finite values
_TABLE_EDGES = [
    0.0, -0.0, 5e-324, -2.225073858507201e-308, 2.0**-14, 0.5, -2.0, 2.0**53, 2.0**54,
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), -1e-4,
    1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), -1e16,
    1e300, -1e300, math.inf, -math.inf, math.nan,
]
# the finite branches: fixed notation, subnormals and exact powers of two
_finite_branches = (
    st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023)),
)
_table_floats = st.one_of(st.sampled_from(_TABLE_EDGES), st.floats(), *_finite_branches)


@st.composite
def _float_tables(draw):
    rows, columns = draw(st.integers(0, 40)), draw(st.integers(1, 7))
    cells = draw(st.lists(_table_floats, min_size=rows * columns, max_size=rows * columns))
    return np.array(cells, dtype=np.float64).reshape(rows, columns)


@given(table=_float_tables())
@example(table=np.empty((0, 1)))
@example(table=np.array([[1e-4], [-0.0], [math.nan]]))
@example(table=np.array([_TABLE_EDGES]))
def test_table_rows_are_the_repr_lines(table):
    assert _floatrepr.table_rows(table).tobytes() == _repr_lines(table)


def test_key_record_refuses_codes_and_symbols_it_cannot_write():
    alpha = np.array([0.5, -1.25, 2.0])
    beta = np.array([1.0, 0.25, -3.5])
    for code in (-1, 2):
        bases = np.array([0, code, 1], dtype=np.int8)
        with pytest.raises(ValueError, match="basis codes must be 0 or 1"):
            proto.KeyRecord(alpha, bases, bases.copy(), beta)
        with pytest.raises(ValueError, match="basis codes must be 0 or 1"):
            proto.KeyRecord(alpha, np.zeros(3, np.int8), bases, beta)
    bases = np.array([0, 1, 1], dtype=np.int8)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="alice_symbols must be finite"):
            proto.KeyRecord(np.array([0.5, bad, 2.0]), bases, bases, beta)


def test_key_record_derives_matched():
    alice = np.array([0, 0, 1, 1], dtype=np.int8)
    bob = np.array([0, 1, 0, 1], dtype=np.int8)
    rec = proto.KeyRecord(np.zeros(4), alice, bob, np.ones(4))
    assert rec.matched.tolist() == [True, False, False, True]
    # a replaced basis column gives a mask derived anew, not the old one
    assert dataclasses.replace(rec, bob_bases=alice).matched.all()
    with pytest.raises(TypeError):
        proto.KeyRecord(np.zeros(4), alice, bob, np.ones(4), alice == bob)


def _mask_bits(mask: int, n: int) -> np.ndarray:
    """The n low bits of `mask`, least significant first, as int8 0/1."""
    packed = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").astype(np.int8)


# Row counts a transcript strategy draws from: the empty and one-row
# transcripts, the byte edges of a basis mask, and the upper end. A fixed
# list bounds the rows, where st.integers let the derandomized examples
# drift to long transcripts.
_ROW_COUNTS = (0, 1, 2, 3, 4, 7, 8, 9, 64, 300)


@st.composite
def _key_records(
    draw, floats=st.floats(allow_nan=False, allow_infinity=False), min_size=0, max_size=300
):
    n = draw(st.sampled_from([n for n in _ROW_COUNTS if min_size <= n <= max_size]))
    # each basis column is one draw: a bitmask of n bits, one per row
    bases = st.integers(0, 2**n - 1)
    floats = st.lists(floats, min_size=n, max_size=n)
    alice = _mask_bits(draw(bases), n)
    bob = _mask_bits(draw(bases), n)
    alpha = np.array(draw(floats), dtype=np.float64)
    beta = np.array(draw(floats), dtype=np.float64)
    return proto.KeyRecord(alpha, alice, bob, beta)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rec=_key_records())
def test_key_csv_bytes_and_read_back_property(tmp_path, rec):
    path, oracle = tmp_path / "key.csv", tmp_path / "oracle.csv"
    proto.write_key_records(rec, path)
    _csv_writer_oracle(rec, oracle)
    assert path.read_bytes() == oracle.read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = proto.read_key_records(path)
    if rec.n_symbols == 0:
        assert path.read_bytes() == (",".join(proto.KEY_CSV_COLUMNS) + "\r\n").encode()
        assert back.n_symbols == 0
    # column for column, to the bit and the dtype, the derived matched too
    for column in dataclasses.fields(proto.KeyRecord):
        assert _bits(getattr(back, column.name)) == _bits(getattr(rec, column.name)), column
    agree = [a == b for a, b in zip(rec.alice_bases.tolist(), rec.bob_bases.tolist())]
    assert back.matched.tolist() == agree


def _same_records(got, want):
    # column for column, to the bit and the dtype, the derived matched too
    for column in dataclasses.fields(proto.KeyRecord):
        assert _bits(getattr(got, column.name)) == _bits(getattr(want, column.name)), column


# finite doubles of every kind the writer lays out: fixed and exponent
# notation, zeros, subnormals, exact powers of two. The finite branches of
# _table_floats, drawn as such rather than filtered from all of them.
_record_floats = st.one_of(
    st.sampled_from([x for x in _TABLE_EDGES if math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False),
    *_finite_branches,
)


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rec=_key_records(_record_floats), newline=st.sampled_from([b"\r\n", b"\n"]))
def test_key_csv_reader_is_the_loadtxt_reader_on_written_transcripts(tmp_path, rec, newline):
    path = tmp_path / "key.csv"
    proto.write_key_records(rec, path)
    path.write_bytes(path.read_bytes().replace(b"\r\n", newline))
    _same_records(proto.read_key_records(path), _loadtxt_reader_oracle(path))


@pytest.mark.parametrize("last_line_end", [True, False])
@pytest.mark.parametrize("newline", [b"\r\n", b"\n"])
def test_key_csv_reader_is_the_loadtxt_reader_across_blocks(tmp_path, newline, last_line_end):
    # every kind of float, in rows over several read blocks, which cut
    # rows at their ends wherever they fall; the last row may have no end
    floats = _repr_cases()[::20]
    n = floats.size // 2
    bases = np.resize(np.array([0, 1, 1, 0, 1], dtype=np.int8), n)
    rec = proto.KeyRecord(floats[:n], bases, bases[::-1].copy(), floats[n : 2 * n])
    path = tmp_path / "key.csv"
    proto.write_key_records(rec, path)
    data = path.read_bytes().replace(b"\r\n", newline)
    path.write_bytes(data if last_line_end else data.removesuffix(newline))
    assert path.stat().st_size > 4 * _floatparse.READ_BLOCK
    back = proto.read_key_records(path)
    _same_records(back, _loadtxt_reader_oracle(path))
    _same_records(back, rec)


# Float texts the writer does not write: blanks, signs, a point at either
# end, exponents, extra zeros, more digits than the kernel reads, and
# texts that np.loadtxt refuses
_FLOAT_TEXTS = [
    " 0.5", "0.5\t", "\xa00.5", "0.5\x1c", "+0.5", "-.5", "5.", "1e5", "1E-5", "00.50",
    "0.0", "-0.0", "1.00000000000000000000001", "1234567.12345678901234567", "12345678.5",
    "0." + "0" * 23 + "1", "9" * 19 + ".0", "0." + "9" * 24, "99999.99999999999999999",
    "1_0.5", "0.5\r", "0x1p-1",
    "\u0661.5", "0.5\x00", "inf", "nan", "", "-", ".",
]


@pytest.mark.parametrize("column", [3, 4], ids=["alpha", "beta"])
@pytest.mark.parametrize("text", _FLOAT_TEXTS)
def test_key_csv_float_texts_read_as_loadtxt_reads_them(tmp_path, text, column):
    fields = ["0", "q", "p", "0.25", "-0.5", "0"]
    fields[column] = text
    path = tmp_path / "key.csv"
    path.write_bytes(("\r\n".join([_KEY_ROWS[0], ",".join(fields)]) + "\r\n").encode())
    try:
        want = _loadtxt_reader_oracle(path)
    except ValueError:
        with pytest.raises(ValueError):
            proto.read_key_records(path)
    else:
        _same_records(proto.read_key_records(path), want)


def _near_midpoint_texts():
    """Decimals of 19 significant digits either side of the midpoint of
    two neighbouring doubles, 1e-4 <= x < 1e6, in fixed notation: where a
    64-bit power of ten cannot tell the rounding, the kernel must leave
    the text to float()."""
    texts = []
    for x in np.random.default_rng(33).uniform(1e-4, 1e6, size=400).tolist():
        mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
        places = 18 - math.floor(math.log10(mid))
        for digits in (math.floor(mid * 10**places), math.ceil(mid * 10**places)):
            text = str(digits).rjust(places + 1, "0")
            texts.append(f"{text[:-places]}.{text[-places:]}")
    return texts


def test_key_csv_reads_decimals_next_to_a_rounding_midpoint(tmp_path):
    texts = _near_midpoint_texts()
    n = len(texts) // 2
    rows = [f"{i},q,q,{texts[i]},{texts[n + i]},1" for i in range(n)]
    path = tmp_path / "key.csv"
    path.write_bytes(("\r\n".join([_KEY_ROWS[0], *rows]) + "\r\n").encode())
    back = proto.read_key_records(path)
    want = np.array([float(text) for text in texts])
    assert back.alice_symbols.tobytes() + back.outcomes.tobytes() == want.tobytes()
    _same_records(back, _loadtxt_reader_oracle(path))


def _fixed_field_takes(column, text):
    """Whether the reader takes `text` in a field other than a float: the
    index as 1 to 16 ASCII digits, a label or the matched flag as its one
    byte. ``np.loadtxt`` took more (CHANGES.md lists it): blanks and a
    sign around an integer, more digits, leading zeros on the matched
    flag, NUL bytes after a label."""
    if column == "index":
        return text.isascii() and text.isdigit() and len(text) <= 16
    if column == "matched":
        return text in ("0", "1")
    if column in ("alice_basis", "bob_basis"):
        return text in proto.BASIS_LABELS
    return True


# Texts for one field: digits, signs, points, exponents, labels, blanks,
# control bytes and non-ASCII; no comma or line feed, which would change
# the shape of the row rather than the field.
_FIELD_CHARS = "0123456789.-+eEqpx_ \t\r\x00\x0b\x0c\x1c\xa0\xe9"
_field_texts = st.one_of(
    st.text(_FIELD_CHARS, max_size=5),
    st.sampled_from([
        "inf", "nan", "1e400", "0x1", "5.", ".5", "-0.0", "1234567.5", "12345678.5",
        "0.000123456789012345678", "9" * 20, "0" * 17 + "1", "1" * 25 + ".5",
    ]),
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rec=_key_records(_record_floats, min_size=1, max_size=4), data=st.data())
def test_key_csv_reader_is_the_loadtxt_reader_on_one_changed_field(tmp_path, rec, data):
    path = tmp_path / "key.csv"
    proto.write_key_records(rec, path)
    lines = path.read_bytes().decode().split("\r\n")
    row = data.draw(st.integers(1, rec.n_symbols), label="row")
    column = data.draw(st.integers(0, 5), label="column")
    fields = lines[row].split(",")
    old = fields[column]
    at = data.draw(st.integers(0, len(old)), label="at")
    fields[column] = data.draw(
        st.one_of(
            _field_texts,
            st.builds(lambda a, b: a + old + b, _field_texts, _field_texts),
            st.builds(lambda c: old[:at] + c + old[at + 1 :], st.sampled_from(_FIELD_CHARS)),
        ),
        label="text",
    )
    lines[row] = ",".join(fields)
    path.write_bytes(data.draw(st.sampled_from(["\r\n", "\n"])).join(lines).encode())
    try:
        want = _loadtxt_reader_oracle(path)
    except ValueError:
        want = None
    if want is None or not _fixed_field_takes(proto.KEY_CSV_COLUMNS[column], fields[column]):
        with pytest.raises(ValueError):
            proto.read_key_records(path)
    else:
        _same_records(proto.read_key_records(path), want)


_KEY_ROWS = [
    "index,alice_basis,bob_basis,alpha,beta,matched",
    "0,q,q,0.5,1.25,1",
    "1,q,p,-0.75,0.125,0",
    "2,p,p,1e-05,-3.5,1",
]


def _with_row(i, row):
    lines = list(_KEY_ROWS)
    lines[i] = row
    return lines


# Rows np.loadtxt read that the reader refuses (CHANGES.md lists them)
@pytest.mark.parametrize(
    "lines",
    [
        _with_row(1, " 0,q,q,0.5,1.25,1"),
        _with_row(1, "+0,q,q,0.5,1.25,1"),
        _with_row(1, "0" * 17 + ",q,q,0.5,1.25,1"),
        _with_row(1, "0,q,q,0.5,1.25, 1"),
        _with_row(1, "0,q,q,0.5,1.25,01"),
        _with_row(1, "0,q\x00,q,0.5,1.25,1"),
        [*_KEY_ROWS, ""],
        _with_row(1, "0,q,q,0.5,1.25,1\r"),
        _with_row(1, "0,q,q,0.5" + " " * _floatparse.READ_BLOCK + ",1.25,1"),
    ],
    ids=[
        "index-blank", "index-sign", "index-17-digits", "matched-blank", "matched-zero",
        "label-nul", "blank-line", "lone-cr", "row-past-block",
    ],
)
def test_key_csv_rows_loadtxt_took_are_refused(tmp_path, lines):
    path = tmp_path / "key.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert _loadtxt_reader_oracle(path).n_symbols == 3
    with pytest.raises(ValueError):
        proto.read_key_records(path)


@pytest.mark.parametrize(
    "lines",
    [
        _with_row(2, "1,q,p,-0.75,0.125"),
        _with_row(2, "1,q,p,abc,0.125,0"),
        _with_row(2, "1,x,p,-0.75,0.125,0"),
        _with_row(2, "1,qq,p,-0.75,0.125,0"),
        _with_row(3, "2,p,pp,1e-05,-3.5,1"),
        _with_row(2, "5,q,p,-0.75,0.125,0"),
        _with_row(2, "1,q,p,-0.75,0.125,1"),
        _with_row(3, "2,p,p,1e-05,-3.5,2"),
        _with_row(2, "1,é,p,-0.75,0.125,0"),
        _with_row(2, "1,€,p,-0.75,0.125,0"),
        _with_row(2, "1,,p,-0.75,0.125,0"),
        _with_row(2, "1,qqq,p,-0.75,0.125,0"),
    ],
    ids=[
        "short",
        "alpha",
        "label-x",
        "label-qq",
        "label-pp",
        "index",
        "matched",
        "matched-2",
        "label-latin1",
        "label-non-latin1",
        "label-empty",
        "label-qqq",
    ],
)
def test_key_csv_malformed_rows_are_rejected(tmp_path, lines):
    path = tmp_path / "key.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    with pytest.raises(ValueError):
        proto.read_key_records(path)


@pytest.mark.parametrize("newline", ["\r\n", "\n"])
def test_key_csv_reads_either_line_end(tmp_path, newline):
    path = tmp_path / "key.csv"
    path.write_bytes((newline.join(_KEY_ROWS) + newline).encode())
    rec = proto.read_key_records(path)
    assert rec.alice_symbols.tolist() == [0.5, -0.75, 1e-05]
    assert rec.outcomes.tolist() == [1.25, 0.125, -3.5]
    assert rec.alice_bases.tolist() == [0, 0, 1]
    assert rec.bob_bases.tolist() == [0, 1, 1]
    assert rec.matched.tolist() == [True, False, True]


def test_key_csv_header_only_is_an_empty_record(tmp_path):
    path = tmp_path / "key.csv"
    path.write_bytes((_KEY_ROWS[0] + "\r\n").encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = proto.read_key_records(path)
    assert rec.n_symbols == 0


def test_manifest_reproduces_run(tmp_path):
    cfg = mwqkd.ExperimentConfig(chain=RUN1, n_symbols=64, seed=111,
                                 channel_loss=CHANNEL.loss, noise_photons=CHANNEL.noise_photons)
    cb = proto.generate_codebook(64, RUN1.codebook_variance, seed=111)
    rec = proto.simulate_transmission(cb, RUN1, CHANNEL, seed=112)
    man = proto.key_manifest(rec, cfg)
    assert man["codebook_seed"] == 111
    assert man["transmission_seed"] == 112
    assert man["n_symbols"] == 64
    assert man["n_matched"] == int(rec.matched.sum())
    assert man["chain"]["antisqueezing_db"] == 7.1
    assert man["channel"]["loss"] == 0.0115

    # the manifest alone is enough to regenerate the byte stream
    cb2 = proto.generate_codebook(
        man["n_symbols"], man["codebook_variance"], seed=man["codebook_seed"]
    )
    rec2 = proto.simulate_transmission(
        cb2, RUN1, CHANNEL, seed=man["transmission_seed"]
    )
    assert np.array_equal(rec2.outcomes, rec.outcomes)
