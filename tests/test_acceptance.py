"""End-to-end acceptance checks.

Each test covers one shipping criterion and prints a single PASS/FAIL
line with the measured values (visible with `pytest -rA` or `-s`).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import mwqkd
from mwqkd import gaussian as g
from mwqkd import protocol as proto
from mwqkd import security as sec
from mwqkd import stats
from mwqkd.devices import ChannelParams, channel_input_response, response_and_noise
from mwqkd.gaussian import channel_input_state

RUN1 = mwqkd.RUN1_CHAIN
RUN2 = mwqkd.RUN2_CHAIN
LOSS = 0.0115
QUIET = ChannelParams(LOSS, 1.7e-6)


def _report(number, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}: criterion {number} ({name}) - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_asymptotic_noise_tolerance():
    results = {}
    runtimes = {}
    for label, chain, lo, hi in (
        ("run1", RUN1, 0.052, 0.072),
        ("run2", RUN2, 0.061, 0.081),
    ):
        t0 = time.perf_counter()
        crossing = sec.noise_tolerance(chain, LOSS)
        runtimes[label] = time.perf_counter() - t0
        results[label] = (crossing, lo <= crossing <= hi)
    ok = all(flag for _, flag in results.values()) and all(
        t < 1.0 for t in runtimes.values()
    )
    _report(
        1,
        "asymptotic noise tolerance",
        ok,
        f"run1 crossing {results['run1'][0]:.4f} (want 0.062+-0.010), "
        f"run2 crossing {results['run2'][0]:.4f} (want 0.071+-0.010), "
        f"sweep times {runtimes['run1']:.2f}s/{runtimes['run2']:.2f}s (< 1 s)",
    )


def test_criterion_2_key_magnitude_and_snr():
    key = sec.asymptotic_key(RUN2, QUIET)
    snr = sec.snr(RUN2, QUIET)
    ok = abs(key - 0.74) <= 0.10 and abs(snr - 2.16) <= 0.35
    _report(
        2,
        "secret key magnitude",
        ok,
        f"K = {key:.4f} bits/symbol (want 0.74+-0.10), "
        f"SNR = {snr:.3f} (want 2.16+-0.35)",
    )


def test_criterion_3_codebook_ratio():
    ratio = RUN2.codebook_variance / RUN1.codebook_variance
    ok = abs(ratio - 1.13) <= 0.01
    _report(3, "codebook variance ratio", ok,
            f"ratio = {ratio:.5f} (want 1.13+-0.01)")


def test_criterion_4_trusted_noise_benefit():
    # identical hardware except the antisqueezing level, so the only
    # difference between the two chains is the codebook variance
    low = RUN1
    high = replace(RUN1, antisqueezing_db=RUN2.antisqueezing_db)
    margins = []
    for nbar in np.linspace(0.0, 0.05, 26):
        ch = ChannelParams(LOSS, float(nbar))
        margins.append(sec.asymptotic_key(high, ch) - sec.asymptotic_key(low, ch))
    worst = min(margins)
    ok = worst > 0.0
    _report(
        4,
        "larger codebook wins at every noise",
        ok,
        f"min K(A=7.6) - K(A=7.1) margin over nbar in [0, 0.05]: {worst:+.5f} bits",
    )


def _ablation_crossing(chain, n_raw, *, delta, pe, n_ec=None):
    def key_fn(nbar):
        return sec.composite_key(
            chain,
            ChannelParams(LOSS, nbar),
            n_raw=n_raw,
            n_ec=n_ec,
            include_delta=delta,
            include_estimation_penalty=pe,
        ).bits_per_symbol

    return sec.noise_crossing(key_fn, upper=0.5)


def _best_pe_crossing(chain, n_raw):
    # the estimation split is a free protocol choice; take the best one
    best = 0.0
    for frac in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        n_ec = max(1, round(frac * (n_raw // 2)))
        if n_raw // 2 - n_ec < 2:
            continue
        best = max(best, _ablation_crossing(chain, n_raw, delta=False, pe=True,
                                            n_ec=n_ec))
    return best


def test_criterion_5_finite_size_ablations():
    checks = []

    for label, chain, lo, hi in (("run1", RUN1, 0.000, 0.010),
                                 ("run2", RUN2, 0.005, 0.015)):
        x = _ablation_crossing(chain, 16665, delta=True, pe=False)
        checks.append((f"{label} delta-only {x:.4f} in [{lo}, {hi}]",
                       lo <= x <= hi))

    for label, chain, lo, hi in (("run1", RUN1, 0.01, 0.03),
                                 ("run2", RUN2, 0.02, 0.04)):
        x = _best_pe_crossing(chain, 16665)
        checks.append((f"{label} estimation-only {x:.4f} in [{lo}, {hi}]",
                       lo <= x <= hi))

    for label, chain in (("run1", RUN1), ("run2", RUN2)):
        asym = sec.noise_tolerance(chain, LOSS)
        d = _ablation_crossing(chain, 10**6, delta=True, pe=False)
        p = _best_pe_crossing(chain, 10**6)
        checks.append((f"{label} delta-only at 1e6 recovers "
                       f"{d / asym:.1%} (want >= 90%)", d / asym >= 0.9))
        checks.append((f"{label} estimation-only at 1e6 recovers "
                       f"{p / asym:.1%} (want >= 90%)", p / asym >= 0.9))

    ok = all(flag for _, flag in checks)
    _report(5, "finite-size ablations", ok,
            "; ".join(text for text, _ in checks))


def test_criterion_6_link_budget():
    from mwqkd import linkbudget as lb

    d_cryo = lb.distance_limit(RUN2, lb.CRYO_LINK)
    d_open = lb.distance_limit(RUN2, lb.OPEN_AIR)
    rate = lb.raw_key_rate(RUN2, QUIET, 400e3)
    ok = (
        abs(d_cryo - 1186.0) <= 0.15 * 1186.0
        and abs(d_open - 83.0) <= 0.15 * 83.0
        and abs(rate - 300e3) <= 30e3
    )
    _report(
        6,
        "link budget",
        ok,
        f"cryo reach {d_cryo:.0f} m (want 1186+-15%), "
        f"open-air reach {d_open:.1f} m (want 83+-15%), "
        f"rate {rate / 1e3:.1f} kbit/s (want 300+-30)",
    )


def test_criterion_7_monte_carlo_vs_analytic():
    t0 = time.perf_counter()
    codebook = proto.generate_codebook(2 * 16665, RUN2.codebook_variance, seed=7)
    record = proto.simulate_transmission(codebook, RUN2, QUIET, seed=8)
    alpha, beta = proto.sift(record)

    k, v = response_and_noise(RUN2, QUIET, matched=True)
    hist = stats.build_histogram(beta)
    overlap = stats.histogram_vs_gaussian(
        hist, 0.0, k * k * RUN2.codebook_variance + v
    )

    mi_model = sec.mutual_information(sec.snr(RUN2, QUIET))
    mi_emp = stats.empirical_mutual_information(alpha, beta)
    sigma = stats.bootstrap_mi_sigma(alpha, beta, seed=9)
    pulls = abs(mi_emp - mi_model) / sigma

    mism = ~record.matched
    mi_mism = stats.empirical_mutual_information(
        record.alice_symbols[mism], record.outcomes[mism]
    )
    elapsed = time.perf_counter() - t0

    ok = overlap >= 0.999 and pulls <= 3.0 and mi_mism < 0.01 and elapsed < 10.0
    _report(
        7,
        "Monte Carlo vs analytic",
        ok,
        f"{alpha.size} matched samples, Bhattacharyya {overlap:.5f} (>= 0.999), "
        f"MI {mi_emp:.4f} vs {mi_model:.4f} = {pulls:.2f} sigma (<= 3), "
        f"mismatched MI {mi_mism:.5f} (< 0.01), {elapsed:.1f}s (< 10 s)",
    )


def _random_physical_chain_suite(n_chains):
    rng = np.random.default_rng(np.random.Philox(key=42))
    worst = math.inf
    for _ in range(n_chains):
        modes = int(rng.integers(1, 4))
        st = g.make_thermal(float(rng.uniform(0.0, 3.0)))
        for _ in range(modes - 1):
            st = g.tensor(st, g.make_thermal(float(rng.uniform(0.0, 3.0))))
        for _ in range(int(rng.integers(1, 6))):
            op = int(rng.integers(0, 5))
            mode = int(rng.integers(0, st.modes))
            if op == 0:
                st = g.apply_squeeze(st, float(rng.uniform(-1.0, 1.0)),
                                     angle=float(rng.uniform(0, np.pi)), mode=mode)
            elif op == 1 and st.modes >= 2:
                a, b = rng.choice(st.modes, size=2, replace=False)
                st = g.apply_beamsplitter(st, float(rng.uniform(0.05, 0.95)),
                                          modes=(int(a), int(b)))
            elif op == 2:
                st = g.apply_loss(st, float(rng.uniform(0.0, 0.9)),
                                  environment_photons=float(rng.uniform(0.0, 2.0)),
                                  mode=mode)
            elif op == 3:
                st = g.apply_phase_sensitive_amp(
                    st, float(rng.uniform(1.0, 100.0)),
                    quadrature="q" if rng.random() < 0.5 else "p", mode=mode)
            else:
                st = g.displace(st, float(rng.uniform(-3, 3)),
                                quadrature="q" if rng.random() < 0.5 else "p",
                                mode=mode)
        worst = min(worst, float(g.symplectic_eigenvalues(st).min()))
    return worst


def _amp_identities_exact(n_cases):
    rng = np.random.default_rng(np.random.Philox(key=43))
    for _ in range(n_cases):
        st = g.apply_squeeze(
            g.make_thermal(float(rng.uniform(0.0, 2.0))),
            float(rng.uniform(-0.8, 0.8)),
            angle=float(rng.uniform(0.0, np.pi)),
        )
        gain = float(rng.uniform(1.0, 200.0))
        out = g.apply_phase_sensitive_amp(st, gain)
        if out.cov[0, 0] != gain * st.cov[0, 0]:
            return False
        if out.cov[1, 1] != st.cov[1, 1] / gain:
            return False
        if out.cov[0, 1] != st.cov[0, 1]:
            return False
    return True


def _entropy_invariance(n_cases):
    rng = np.random.default_rng(np.random.Philox(key=44))
    worst = 0.0
    for _ in range(n_cases):
        st = g.tensor(g.make_thermal(float(rng.uniform(0.1, 2.0))),
                      g.make_thermal(float(rng.uniform(0.1, 2.0))))
        before = g.von_neumann_entropy(st)
        st = g.apply_squeeze(st, float(rng.uniform(-0.9, 0.9)),
                             angle=float(rng.uniform(0, np.pi)))
        st = g.apply_beamsplitter(st, float(rng.uniform(0.05, 0.95)))
        st = g.displace(st, float(rng.uniform(-2, 2)), "p", mode=1)
        st = g.apply_squeeze(st, float(rng.uniform(-0.5, 0.5)), mode=1)
        worst = max(worst, abs(g.von_neumann_entropy(st) - before))
    return worst


def _holevo_collapse_error():
    """Check the Gaussian-ensemble average against explicit integration.

    The conditional environment state has a symbol-independent covariance,
    so the ensemble-average entropy collapses to the entropy of a single
    Gaussian whose covariance adds the modulation term. Verified two ways:
    Monte Carlo over symbols for the conditional term, and Gauss-Hermite
    quadrature of the mixture covariance for the average-state term.
    """
    sigma2 = RUN2.codebook_variance
    base = channel_input_state(RUN2, basis="q", symbol=0.0)
    env = g.two_mode_squeezed_thermal(QUIET.environment_photons)
    joint = g.apply_beamsplitter(g.tensor(base, env), QUIET.transmissivity,
                                 modes=(0, 1))
    response = np.zeros(6)
    response[2] = -math.sqrt(QUIET.loss) * channel_input_response(RUN2)
    cond, uncond = g.condition_on_classical_gaussian(joint, response, sigma2,
                                                     keep=(1, 2))
    zero = np.zeros(4)
    s_cond = g.von_neumann_entropy(g.GaussianState(zero, cond))
    chi_closed = sec.holevo_dr(RUN2, QUIET)

    # Monte Carlo over symbols: the conditional entropy never moves
    t = np.zeros(4)
    t[0], t[2] = response[2], response[4]
    rng = np.random.default_rng(np.random.Philox(key=45))
    drift = max(
        abs(g.von_neumann_entropy(g.GaussianState(alpha * t, cond)) - s_cond)
        for alpha in rng.normal(0.0, math.sqrt(sigma2), size=256)
    )

    # Gauss-Hermite quadrature of the mixture's second moments
    nodes, weights = np.polynomial.hermite_e.hermegauss(61)
    w = weights / weights.sum()
    alphas = nodes * math.sqrt(sigma2)
    mean_avg = np.einsum("i,ij->j", w, np.outer(alphas, t))
    second = np.einsum("i,ij,ik->jk", w, np.outer(alphas, t), np.outer(alphas, t))
    mix_cov = cond + second - np.outer(mean_avg, mean_avg)
    s_mix = g.von_neumann_entropy(g.GaussianState(zero, 0.5 * (mix_cov + mix_cov.T)))

    return max(drift, abs((s_mix - s_cond) - chi_closed),
               float(np.abs(mix_cov - uncond).max()))


def _estimator_coverage(n_reps):
    true = ChannelParams(LOSS, 0.01)
    hits = 0
    for rep in range(n_reps):
        cb = proto.generate_codebook(16665, RUN1.codebook_variance,
                                     seed=1000 + 2 * rep)
        rec = proto.simulate_transmission(cb, RUN1, true, seed=1001 + 2 * rep)
        a, b = proto.sift(rec)
        est = proto.estimate_channel(a, b, RUN1)
        if (abs(est.loss - true.loss) <= 3 * est.loss_sigma
                and abs(est.noise_photons - true.noise_photons)
                <= 3 * est.noise_sigma):
            hits += 1
    return hits


def test_criterion_8_property_suites():
    worst_nu = _random_physical_chain_suite(10_000)
    amp_exact = _amp_identities_exact(100)
    entropy_drift = _entropy_invariance(100)
    collapse_err = _holevo_collapse_error()
    hits = _estimator_coverage(100)

    ok = (
        worst_nu >= 1.0 - 1e-9
        and amp_exact
        and entropy_drift <= 1e-9
        and collapse_err <= 1e-6
        and hits >= 99
    )
    _report(
        8,
        "property suites",
        ok,
        f"min nu over 1e4 chains {worst_nu:.12f} (>= 1-1e-9), "
        f"gain identities exact: {amp_exact}, "
        f"entropy drift {entropy_drift:.2e} (<= 1e-9), "
        f"ensemble-average collapse error {collapse_err:.2e} (<= 1e-6), "
        f"coverage {hits}/100 within 3 sigma (>= 99)",
    )
