"""Protocol simulation: codebooks, transcripts, sifting, estimation."""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mwqkd
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
    for n in (4 * proto._WRITE_CHUNK_ROWS + 17, 16 * proto._WRITE_CHUNK_ROWS + 17):
        cb = proto.generate_codebook(n, RUN2.codebook_variance, seed=5)
        rec = proto.simulate_transmission(cb, RUN2, CHANNEL, seed=6)
        _, peak = _traced_peak(proto.write_key_records, rec, tmp_path / f"{n}.csv")
        peaks.append(peak)
    assert max(peaks) < _CAP, peaks
    assert abs(peaks[1] - peaks[0]) < _FLAT, peaks


@pytest.mark.parametrize("announce", [False, True])
def test_draw_memory_beyond_the_outputs_is_flat_in_n(announce):
    codebook_extra, transmission_extra = [], []
    for n in (4 * _B + 17, 16 * _B + 17):
        cb, peak = _traced_peak(proto.generate_codebook, n, RUN1.codebook_variance, seed=8)
        codebook_extra.append(peak - _nbytes(cb.symbols, cb.bases))
        rec, peak = _traced_peak(
            proto.simulate_transmission, cb, RUN1, CHANNEL, seed=9, announce_bases=announce
        )
        # the record holds the codebook's symbols and bases, so it
        # allocates only its other three columns
        transmission_extra.append(peak - _nbytes(rec.bob_bases, rec.outcomes, rec.matched))
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
    rec = proto.KeyRecord(extremes, bases, bases, extremes[::-1].copy(), bases == bases)
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


@pytest.mark.parametrize("announce", [False, True])
@pytest.mark.parametrize("chain", [RUN1, RUN2], ids=["run1", "run2"])
def test_key_csv_bytes_match_csv_writer(tmp_path, chain, announce):
    # odd, and long enough for two full write chunks and a partial third
    n = 2 * proto._WRITE_CHUNK_ROWS + 101
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
        alice == bob,
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


def test_key_record_refuses_codes_and_symbols_it_cannot_write():
    alpha = np.array([0.5, -1.25, 2.0])
    beta = np.array([1.0, 0.25, -3.5])
    for code in (-1, 2):
        bases = np.array([0, code, 1], dtype=np.int8)
        with pytest.raises(ValueError, match="basis codes must be 0 or 1"):
            proto.KeyRecord(alpha, bases, bases.copy(), beta, bases == bases)
        with pytest.raises(ValueError, match="basis codes must be 0 or 1"):
            proto.KeyRecord(alpha, np.zeros(3, np.int8), bases, beta, bases == 0)
    bases = np.array([0, 1, 1], dtype=np.int8)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="alice_symbols must be finite"):
            proto.KeyRecord(np.array([0.5, bad, 2.0]), bases, bases, beta, bases == bases)


@st.composite
def _key_records(draw):
    n = draw(st.integers(0, 300))
    bases = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    floats = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    alice = np.array(draw(bases), dtype=np.int8)
    bob = np.array(draw(bases), dtype=np.int8)
    alpha = np.array(draw(floats), dtype=np.float64)
    beta = np.array(draw(floats), dtype=np.float64)
    return proto.KeyRecord(alpha, alice, bob, beta, alice == bob)


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
    for got, want in ((back.alice_symbols, rec.alice_symbols), (back.outcomes, rec.outcomes)):
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert back.alice_bases.tolist() == rec.alice_bases.tolist()
    assert back.bob_bases.tolist() == rec.bob_bases.tolist()
    assert back.matched.tolist() == rec.matched.tolist()


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
    cb = proto.generate_codebook(64, RUN1.codebook_variance, seed=111)
    rec = proto.simulate_transmission(cb, RUN1, CHANNEL, seed=112)
    man = proto.key_manifest(cb, rec, RUN1, CHANNEL, transmission_seed=112)
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
