"""Distribution diagnostics: histograms, the Bhattacharyya overlap of a
histogram with the model's Gaussian and its Hellinger distance, and a
Gaussian mutual-information estimator with bootstrap errors. These
validate sampled protocol data against the analytic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Histogram:
    """Counts over strictly increasing bin edges."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts)
        if edges.ndim != 1 or counts.ndim != 1 or edges.size != counts.size + 1:
            raise ValueError("need len(bin_edges) == len(counts) + 1")
        if not np.all(np.diff(edges) > 0.0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("counts must be >= 0")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts.astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def probabilities(self) -> np.ndarray:
        """Per-bin probability mass."""
        return self.counts / self.total

    def densities(self) -> np.ndarray:
        """Per-bin probability density (mass over width)."""
        return self.probabilities() / np.diff(self.bin_edges)


def build_histogram(samples) -> Histogram:
    """Histogram with Freedman-Diaconis bins."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1:
        raise ValueError("need at least one sample")
    counts, edges = np.histogram(samples, bins=np.histogram_bin_edges(samples, bins="fd"))
    return Histogram(edges, counts)


def gaussian_bin_probabilities(bin_edges, mean: float, variance: float) -> np.ndarray:
    """Exact Gaussian probability mass of each bin (integrated, not
    midpoint-sampled, so the comparison carries no O(width^2) bias).

    Mass outside the edges is not folded back in; against a histogram
    spanning its own samples the missing tail mass is negligible.
    """
    if not variance > 0.0:
        raise ValueError("variance must be > 0")
    edges = np.asarray(bin_edges, dtype=float)
    z = (edges - mean) / math.sqrt(2.0 * variance)
    cdf = 0.5 * (1.0 + np.array([math.erf(x) for x in z.tolist()]))
    return np.diff(cdf)


def hellinger_from_coefficient(coefficient: float) -> float:
    """Hellinger distance from a Bhattacharyya coefficient."""
    if not -1e-12 <= coefficient <= 1.0 + 1e-12:
        raise ValueError("coefficient must be in [0, 1]")
    return math.sqrt(max(1.0 - coefficient, 0.0))


def histogram_vs_gaussian(hist: Histogram, mean: float, variance: float) -> float:
    """Bhattacharyya coefficient between a histogram and a Gaussian density
    integrated over the same bins."""
    return float(
        np.sqrt(
            hist.probabilities()
            * gaussian_bin_probabilities(hist.bin_edges, mean, variance)
        ).sum()
    )


def empirical_mutual_information(x, y) -> float:
    """Gaussian mutual-information estimate from the sample correlation.

    -log2(1 - rho^2)/2 in bits. Invariant under affine rescaling of
    either variable (any a*x + b with a != 0), since the correlation
    coefficient is.
    """
    x, y = _paired_samples(x, y)
    return _gaussian_mi_bits(float(np.corrcoef(x, y)[0, 1]))


def bootstrap_mi_sigma(x, y, n_boot: int = 200, seed: int = 0) -> float:
    """Bootstrap standard error of :func:`empirical_mutual_information`.

    Each resample draws n indices with replacement, as
    ``rng.integers(0, n, size=n)`` from a Philox stream keyed by `seed`.
    Its correlation comes from five moments of the data, centred once on
    the full-sample means and weighted by how often each pair was drawn,
    so no resampled copy of the data is built. The five moment rows are
    filled in place, and each resample's sums are one ``terms @ counts``
    product, the counts turned into float64 in place; the product's
    summation order fixes the bits of the result. A
    resample with zero variance in either variable has no correlation and
    gives nan, as ``np.corrcoef`` does.
    """
    x, y = _paired_samples(x, y)
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = x.size
    terms = np.empty((5, n))
    xc, yc, xx, yy, xy = terms
    np.subtract(x, x.mean(), out=xc)
    np.subtract(y, y.mean(), out=yc)
    np.multiply(xc, xc, out=xx)
    np.multiply(yc, yc, out=yy)
    np.multiply(xc, yc, out=xy)
    sums = np.empty((n_boot, terms.shape[0]))
    for b in range(n_boot):
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        # the counts as float64 in their own memory, element by element,
        # where the product would cast them into a fresh array
        weights = counts.view(np.float64)
        np.copyto(weights, counts, casting="unsafe")
        np.matmul(terms, weights, out=sums[b])
    mx, my, mxx, myy, mxy = (sums / n).T
    cov = mxy - mx * my
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.clip(cov / np.sqrt((mxx - mx * mx) * (myy - my * my)), -1.0, 1.0)
    values = np.array([_gaussian_mi_bits(r) for r in rho.tolist()])
    return float(values.std(ddof=1))


def _paired_samples(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("x and y must be 1-D with equal length >= 2")
    return x, y


def _gaussian_mi_bits(rho: float) -> float:
    return -0.5 * math.log2(max(1.0 - rho * rho, 1e-300))
