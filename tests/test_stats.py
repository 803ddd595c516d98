"""Distribution comparison and empirical information measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwqkd import stats


def _rng(seed):
    return np.random.default_rng(np.random.Philox(key=seed))


def test_histogram_construction():
    x = _rng(1).normal(size=5000)
    hist = stats.build_histogram(x)
    assert hist.total == 5000
    assert hist.counts.sum() == 5000
    probs = hist.probabilities()
    assert probs.sum() == pytest.approx(1.0)
    dens = hist.densities()
    widths = np.diff(hist.bin_edges)
    assert float(dens @ widths) == pytest.approx(1.0)


def test_histogram_validation():
    with pytest.raises(ValueError):
        stats.Histogram(np.array([0.0, 1.0, 0.5]), np.array([1, 1]))
    with pytest.raises(ValueError):
        stats.Histogram(np.array([0.0, 1.0]), np.array([1, 2]))


def test_gaussian_bin_probabilities_integrate_cdf():
    edges = np.array([-8.0, -1.0, 0.0, 1.0, 8.0], dtype=float)
    p = stats.gaussian_bin_probabilities(edges, 0.0, 1.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-8)
    # symmetric bins carry symmetric mass
    assert p[1] == pytest.approx(p[2], rel=1e-12)
    assert p[1] == pytest.approx(0.3413447460685429, rel=1e-9)
    with pytest.raises(ValueError):
        stats.gaussian_bin_probabilities(edges, 0.0, -1.0)


def test_gaussian_bin_probabilities_match_scipy_erf_oracle():
    from scipy.special import erf

    edges = np.linspace(-8.0, 8.0, 4001)
    for mean, variance in ((0.0, 0.5), (0.3, 0.7), (-1.2, 2.5)):
        want = np.diff(0.5 * (1.0 + erf((edges - mean) / math.sqrt(2.0 * variance))))
        got = stats.gaussian_bin_probabilities(edges, mean, variance)
        assert np.max(np.abs(got - want)) <= 4e-16


def test_hellinger_relations():
    b = 0.9997
    assert stats.hellinger_from_coefficient(b) == pytest.approx(0.0173205, abs=1e-6)
    assert stats.hellinger_from_coefficient(0.9992) == pytest.approx(
        0.0282843, abs=1e-6
    )


def test_histogram_matches_its_own_gaussian():
    x = _rng(2).normal(1.5, 2.0, size=200_000)
    hist = stats.build_histogram(x)
    b = stats.histogram_vs_gaussian(hist, 1.5, 4.0)
    assert b > 0.999
    # against the wrong model the overlap drops
    assert stats.histogram_vs_gaussian(hist, 0.0, 4.0) < 0.99


def test_empirical_mi_matches_gaussian_formula():
    rng = _rng(3)
    n = 400_000
    x = rng.normal(size=n)
    y = 0.8 * x + rng.normal(size=n)
    rho2 = 0.64 / (0.64 + 1.0)
    want = -0.5 * math.log2(1 - rho2)
    assert stats.empirical_mutual_information(x, y) == pytest.approx(want, rel=0.01)
    # independent data carries about zero information
    assert stats.empirical_mutual_information(x, rng.normal(size=n)) < 0.001


def test_empirical_mi_validation():
    with pytest.raises(ValueError):
        stats.empirical_mutual_information(np.zeros(5), np.zeros(4))
    with pytest.raises(ValueError):
        stats.empirical_mutual_information(np.zeros(1), np.zeros(1))


def test_bootstrap_sigma_behaves_like_standard_error():
    rng = _rng(4)
    x = rng.normal(size=2000)
    y = x + rng.normal(size=2000)
    sig = stats.bootstrap_mi_sigma(x, y, seed=5)
    assert sig == stats.bootstrap_mi_sigma(x, y, seed=5)  # seeded
    assert 0.0 < sig < 0.1
    # quadruple the data, roughly halve the error bar
    x4 = rng.normal(size=8000)
    y4 = x4 + rng.normal(size=8000)
    sig4 = stats.bootstrap_mi_sigma(x4, y4, seed=6)
    assert sig4 == pytest.approx(sig / 2, rel=0.4)


def test_bootstrap_sigma_covers_sampling_spread():
    # the bootstrap sigma should match the spread of MI over fresh draws
    mis = []
    for seed in range(20):
        rng = _rng(100 + seed)
        x = rng.normal(size=3000)
        y = x + rng.normal(size=3000)
        mis.append(stats.empirical_mutual_information(x, y))
    spread = float(np.std(mis, ddof=1))
    rng = _rng(200)
    x = rng.normal(size=3000)
    y = x + rng.normal(size=3000)
    sig = stats.bootstrap_mi_sigma(x, y, seed=7)
    assert sig == pytest.approx(spread, rel=0.5)


def _bootstrap_oracle(x, y, n_boot=200, seed=0):
    """The per-resample ``np.corrcoef`` bootstrap: the reference."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, x.size, size=x.size)
        values[b] = stats.empirical_mutual_information(x[idx], y[idx])
    return float(values.std(ddof=1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(30, 600),
    rho=st.floats(-0.99, 0.99),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_matches_corrcoef_oracle(n, rho, data_seed, seed):
    rng = _rng(data_seed)
    x = rng.normal(size=n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.normal(size=n)
    sig = stats.bootstrap_mi_sigma(x, y, seed=seed)
    assert sig == pytest.approx(_bootstrap_oracle(x, y, seed=seed), rel=1e-12, abs=0.0)
    assert sig == stats.bootstrap_mi_sigma(x, y, seed=seed)


def test_bootstrap_zero_variance_gives_nan():
    assert math.isnan(stats.bootstrap_mi_sigma(np.ones(50), np.arange(50.0)))
    assert math.isnan(stats.bootstrap_mi_sigma(np.arange(50.0), np.full(50, 2.0)))


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        stats.bootstrap_mi_sigma(np.zeros(5), np.zeros(4))
    with pytest.raises(ValueError):
        stats.bootstrap_mi_sigma(np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        stats.bootstrap_mi_sigma(np.arange(5.0), np.arange(5.0), n_boot=1)


def _bootstrap_int_counts(x, y, n_boot=200, seed=0):
    """The bootstrap with each resample's int64 counts straight in
    ``terms @ counts``, which casts them into a fresh float64 array."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = x.size
    centred = np.stack([x - x.mean(), y - y.mean()])
    terms = np.concatenate([centred, centred**2, centred[:1] * centred[1:]])
    sums = np.empty((n_boot, 5))
    for b in range(n_boot):
        sums[b] = terms @ np.bincount(rng.integers(0, n, size=n), minlength=n)
    mx, my, mxx, myy, mxy = (sums / n).T
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.clip((mxy - mx * my) / np.sqrt((mxx - mx * mx) * (myy - my * my)), -1.0, 1.0)
    values = np.array([-0.5 * math.log2(max(1.0 - r * r, 1e-300)) for r in rho.tolist()])
    return float(values.std(ddof=1))


@pytest.mark.parametrize("n", [2, 31, 1000, 16665])
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
def test_bootstrap_float_counts_keep_the_bits(n, seed):
    rng = _rng(n + seed)
    x = rng.normal(size=n)
    y = 0.8 * x + 0.6 * rng.normal(size=n)
    sig = stats.bootstrap_mi_sigma(x, y, seed=seed)
    want = _bootstrap_int_counts(x, y, seed=seed)
    assert np.float64(sig).view(np.uint64) == np.float64(want).view(np.uint64)
