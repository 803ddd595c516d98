"""Key-rate bounds: information quantities, finite-size terms, reports."""

import functools
import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mwqkd
from mwqkd import cli, devices
from mwqkd import gaussian as g
from mwqkd import linkbudget as lb
from mwqkd import security as sec
from mwqkd.devices import ChannelParams, DeviceChainParams
from mwqkd.errors import PhysicalityError
from mwqkd.protocol import ChannelEstimate

RUN1 = mwqkd.RUN1_CHAIN
RUN2 = mwqkd.RUN2_CHAIN
QUIET = ChannelParams(0.0115, 1.7e-6)


def test_snr_and_mutual_information():
    assert sec.snr(RUN2, QUIET) == pytest.approx(2.480461077211082, rel=1e-12)
    assert sec.snr(RUN1, QUIET) == pytest.approx(2.1947256064777627, rel=1e-12)
    assert sec.mutual_information(2.480461077211082) == pytest.approx(
        0.8996392205287942, rel=1e-12
    )
    assert sec.mutual_information(0.0) == 0.0
    with pytest.raises(ValueError):
        sec.mutual_information(-0.5)


def test_holevo_pinned_values():
    assert sec.holevo_dr(RUN1, QUIET) == pytest.approx(0.08149342215643486, rel=1e-9)
    assert sec.holevo_dr(RUN2, QUIET) == pytest.approx(0.08925951730281491, rel=1e-9)
    assert sec.holevo_dr(RUN1, ChannelParams(0.0115, 0.03)) == pytest.approx(
        0.546737045389451, rel=1e-9
    )
    # hot environment (v = 1 + 2 * 2e4): 50-digit mpmath eigenvalues of the
    # 4x4 environment covariance; the covariance oracle is off by 3e-8 here
    assert sec.holevo_dr(RUN1, ChannelParams(1e-5, 0.1)) == pytest.approx(
        0.94065874859531632, abs=1e-12
    )


def _oracle_holevo(chain, channel):
    """chi_E from the covariance pipeline, built as the acceptance suite does."""
    signal = g.channel_input_state(chain, basis="q")
    env = g.two_mode_squeezed_thermal(channel.environment_photons)
    joint = g.apply_beamsplitter(g.tensor(signal, env), channel.transmissivity,
                                 modes=(0, 1))
    response = np.zeros(6)
    response[2] = -math.sqrt(channel.loss) * devices.channel_input_response(chain)
    cond, uncond = g.condition_on_classical_gaussian(
        joint, response, chain.codebook_variance, keep=(1, 2)
    )
    zero = np.zeros(4)
    return g.von_neumann_entropy(g.GaussianState(zero, uncond)) - g.von_neumann_entropy(
        g.GaussianState(zero, cond)
    )


@st.composite
def _chains(draw):
    squeezing = draw(st.floats(0.0, 10.0))
    four = st.tuples(*[st.floats(0.0, 0.3)] * 4)
    return DeviceChainParams(
        squeezing_db=squeezing,
        antisqueezing_db=squeezing + draw(st.floats(0.0, 10.0)),
        quantum_efficiency=draw(st.floats(0.3, 1.0)),
        measurement_gain_db=draw(st.floats(0.0, 30.0)),
        hemt_noise_photons=draw(st.floats(0.0, 60.0)),
        displacement_coupler_transmissivity=draw(st.floats(0.5, 1.0)),
        path_losses=draw(four),
        path_environment_photons=tuple(6.0 * x for x in draw(four)),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    loss=st.floats(1e-3, 0.95),
    nbar=st.floats(0.0, 0.5),
)
def test_runtime_chain_model_matches_covariance_oracle(chain, loss, nbar):
    # environment occupations up to 1e3; the oracle's own eigensolver
    # error there is a few 1e-10
    channel = ChannelParams(loss, nbar)
    assert sec.holevo_dr(chain, channel) == pytest.approx(
        _oracle_holevo(chain, channel), abs=1e-8
    )
    for matched, bob_basis in ((True, "q"), (False, "p")):
        slope, var = devices.response_and_noise(chain, channel, matched)
        mean, want = g.bob_output_distribution(chain, channel, 1.0, "q", bob_basis)
        assert slope == pytest.approx(mean, rel=1e-12)
        assert var == pytest.approx(want, rel=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chain=_chains())
def test_modulated_input_variance_matches_covariance_oracle(chain):
    # conditional channel-input variance plus the codebook's spread of the
    # symbol's mean shift, from the covariance pipeline
    for case in (RUN1, RUN2, chain):
        (mean0, _), (mean1, _) = (
            g.channel_input_state(case, "q", symbol).mean for symbol in (0.0, 1.0)
        )
        want = (
            g.channel_input_state(case, "q", 0.0).cov[0, 0]
            + case.codebook_variance * (mean1 - mean0) ** 2
        )
        assert case.modulated_input_variance == pytest.approx(want, rel=1e-12)


def test_holevo_edge_cases():
    assert sec.holevo_dr(RUN1, ChannelParams(0.0, 0.0)) == 0.0
    # a lossless channel with noise takes chi's loss -> 0+ limit
    assert sec.holevo_dr(RUN1, ChannelParams(0.0, 0.01)) == pytest.approx(
        sec.holevo_dr(RUN1, ChannelParams(1e-10, 0.01)), rel=1e-8
    )
    # no modulation leaks nothing
    flat = replace(RUN1, squeezing_db=0.0, antisqueezing_db=0.0)
    assert sec.holevo_dr(flat, QUIET) == 0.0


def test_lossless_holevo_is_the_loss_limit():
    # chi at zero loss is its loss -> 0+ limit at fixed nbar: finite,
    # continuous in the loss, 0 only without noise, and the same closed
    # form below the smallest normal loss, where 2 nbar / loss overflows
    assert sec.holevo_dr(RUN2, ChannelParams(0.0, 0.01)) == pytest.approx(
        0.2740723164436815, rel=1e-12
    )
    for chain in (RUN1, RUN2):
        previous = 0.0
        for nbar in (1e-6, 0.01, 0.05, 1.0):
            limit = sec.holevo_dr(chain, ChannelParams(0.0, nbar))
            assert limit > previous
            assert abs(limit - sec.holevo_dr(chain, ChannelParams(1e-10, nbar))) < 1e-7
            assert sec.holevo_dr(chain, ChannelParams(5e-324, nbar)) == limit
            assert sec.asymptotic_key(chain, ChannelParams(0.0, nbar)) == (
                sec.mutual_information(sec.snr(chain, ChannelParams(0.0, nbar))) - limit
            )
            previous = limit


def _mp_entropy(nu):
    """g(nu) in bits, from an mpmath nu at the working precision."""
    mpmath = pytest.importorskip("mpmath")
    n = (nu - 1) / 2
    return 0 if n <= 0 else ((n + 1) * mpmath.log(n + 1) - n * mpmath.log(n)) / mpmath.log(2)


def _mp_holevo(chain, loss, nbar):
    """chi from the environment invariants in mpmath, with 50 digits beyond
    the ones the variance v = 1 + 4 nbar / loss cancels in x - y."""
    mpmath = pytest.importorskip("mpmath")
    loss, nbar = mpmath.mpf(loss), mpmath.mpf(nbar)
    with mpmath.workdps(50 + 2 * max(0, int(mpmath.log10(1 + 4 * nbar / loss)))):
        t, v = 1 - loss, 1 + 4 * nbar / loss
        b = 4 * mpmath.mpf(chain.readout.orthogonal_input_variance)

        def environment(v_q):
            a = 4 * mpmath.mpf(v_q)
            det = (loss * a * v + t) * (loss * b * v + t)
            trace = loss**2 * (a * b + v * v) + loss * t * v * (a + b) + 2 * t
            x, y = a - v, b - v
            gap = (v * (x - y)) ** 2 + x * y * (4 * t + loss * (loss * x * y + 2 * v * (a + b)))
            nu_plus_sq = (trace + loss * mpmath.sqrt(gap)) / 2
            return _mp_entropy(mpmath.sqrt(nu_plus_sq)) + _mp_entropy(mpmath.sqrt(det / nu_plus_sq))

        chi = environment(chain.modulated_input_variance)
        return float(max(chi - environment(chain.readout.channel_input_variance), 0))


@pytest.mark.parametrize("chain", [RUN1, RUN2])
@pytest.mark.parametrize("nbar", [1e-6, 0.01, 1.0])
@pytest.mark.parametrize("ratio", [1e4, 1e6, 1e8, 5e8, 1e9, 1e11, 1e13, 1e200])
def test_holevo_matches_mpmath_as_the_loss_vanishes(chain, nbar, ratio):
    # one closed form in m = loss + 4 nbar at every ratio 4 nbar / loss
    loss = 4.0 * nbar / ratio
    assert sec.holevo_dr(chain, ChannelParams(loss, nbar)) == pytest.approx(
        _mp_holevo(chain, loss, nbar), abs=1e-12
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    loss=st.sampled_from([0.0, 5e-324]) | st.floats(-300.0, math.log10(0.999)).map(
        lambda exponent: 10.0**exponent
    ),
    nbar=st.floats(0.0, 30.0),
)
@example(chain=RUN1, loss=7e-14, nbar=0.0)  # nu - 1 < 1e-12: chi is 1.1e-11 bits
@example(chain=RUN2, loss=0.0, nbar=30.0)
@example(chain=RUN2, loss=0.999, nbar=30.0)
@example(chain=RUN1, loss=0.0115, nbar=1e150)  # finite while m^2 is
def test_holevo_matches_mpmath_at_every_loss(chain, loss, nbar):
    # _mp_holevo divides by the loss; at loss 0 and below the smallest
    # normal float chi is its loss -> 0+ limit, which loss 1e-40 gives to
    # far below 1e-12 bits
    reference = _mp_holevo(chain, 1e-40 if loss < g.LOSSLESS_BELOW else loss, nbar)
    assert abs(sec.holevo_dr(chain, ChannelParams(loss, nbar)) - reference) <= 1e-12


def test_entropy_of_nu_matches_mpmath_from_one_to_1e300():
    # one cancellation-free form: the nu just above 1, where g is mostly
    # its log term, and nu up to 1e300, where (n + 1) log(n + 1) - n log n
    # cancels all but log10(n) of its digits (mpmath keeps 50 beyond them)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    nus = [1.0 + k * 2.0**-52 for k in (1, 2, 3, 5, 1000, 2**20)] + [
        1.0 + 10.0**e for e in np.concatenate([np.linspace(-15.0, 300.0, 316),
                                                rng.uniform(-15.0, 300.0, 200)])
    ]
    for nu in [*nus, 3.0, 1e300]:
        with mpmath.workdps(50 + int(math.log10(nu))):
            want = _mp_entropy(mpmath.mpf(nu))
            assert abs(g.entropy_of_nu(nu) - want) <= 1e-15 * want, nu


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    loss=st.sampled_from([0.0115, 0.2, 0.9]) | st.floats(1e-3, 0.999),
    nbar=st.floats(0.0, 40.0).map(lambda exponent: 10.0**exponent),
)
@example(chain=RUN1, loss=0.0115, nbar=1e6)  # (n+1)log(n+1) - n log n loses 1.7e-8 bits
@example(chain=RUN1, loss=0.9, nbar=1e10)
@example(chain=RUN2, loss=0.2, nbar=1e40)
def test_holevo_matches_mpmath_at_large_noise(chain, loss, nbar):
    # symplectic eigenvalues up to ~1e42, where (n+1)log(n+1) - n log n
    # cancels ~42 digits
    reference = _mp_holevo(chain, loss, nbar)
    assert abs(sec.holevo_dr(chain, ChannelParams(loss, nbar)) - reference) <= 1e-13


@pytest.mark.parametrize("squeezing_db, antisqueezing_db", [(60, 60), (100, 100), (100, 103.5)])
@pytest.mark.parametrize("loss", [0.999999, 1 - 1e-8, 1 - 1e-10, 1 - 1e-12])
@pytest.mark.parametrize("nbar", [0.0, 1e-6, 0.01, 1.0, 30.0])
def test_holevo_matches_mpmath_near_full_loss_for_strong_squeezing(
    squeezing_db, antisqueezing_db, loss, nbar
):
    # v between a and b with t -> 0: the gap's mixed term keeps its digits
    chain = replace(RUN1, squeezing_db=squeezing_db, antisqueezing_db=antisqueezing_db)
    reference = _mp_holevo(chain, loss, nbar)
    assert abs(sec.holevo_dr(chain, ChannelParams(loss, nbar)) - reference) <= 1e-13


def test_a_strongly_squeezed_chain_near_full_loss_exits_0(tmp_path, capsys):
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps(
        {"preset": "run1", "chain": {"squeezing_db": 100, "antisqueezing_db": 100}}
    ))
    argv = ["report", "--config", str(cfg), "--no-pe", "--loss", "0.999999999999"]
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    chain = cli.resolve_config(cli.build_parser().parse_args(argv)).chain
    assert json.loads(out.read_text())["holevo_bits"] == pytest.approx(
        _mp_holevo(chain, 0.999999999999, 0.0), abs=1e-13
    )


@pytest.mark.parametrize("argv", [
    ["report", "--preset", "run2", "--loss", "1e-13", "--nbar", "0.01"],
    ["report", "--loss", "1e-200", "--nbar", "0.01", "--no-pe"],
    ["sweep", "--preset", "run2", "--loss", "1e-13", "--format", "json"],
])
def test_tiny_losses_exit_0_with_the_precise_chi(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    chain = cli.resolve_config(cli.build_parser().parse_args(argv)).chain
    data = json.loads(out.read_text())
    if argv[0] == "sweep":
        points = [merge_point(data["settings"], point) for point in data["reports"]]
        assert len(points) == 41
    else:
        points = [data]
    for point in points:
        channel = point["inputs"]["channel"]
        assert math.isfinite(point["holevo_bits"])
        assert point["holevo_bits"] == pytest.approx(
            _mp_holevo(chain, channel["loss"], channel["noise_photons"]), abs=1e-12
        )


def test_tiny_loss_grid_points_are_the_scalar_reports():
    # grids at tiny and zero loss, where 4 nbar / loss spans 0 to inf,
    # point by point the scalar report's bits
    grid = [0.0, 1e-8, 2.5e-5, 0.01, 0.5]
    for loss in (1e-13, 1e-12, 0.0):
        constant, points = sec.sweep_noise(RUN2, loss, grid, n_raw=16665,
                                           include_estimation_penalty=False).split_grid()
        want = [_to_json(sec.build_report(RUN2, ChannelParams(loss, nbar), n_raw=16665,
                                          include_estimation_penalty=False))
                for nbar in grid]
        got = [json.dumps(merge_point(constant, p), indent=2, sort_keys=True) for p in points]
        assert got == want


def test_holevo_monotone_in_loss_and_noise():
    base = sec.holevo_dr(RUN1, ChannelParams(0.0115, 0.001))
    assert sec.holevo_dr(RUN1, ChannelParams(0.05, 0.001)) > base
    assert sec.holevo_dr(RUN1, ChannelParams(0.0115, 0.01)) > base


# Both crossings bisect on a key that does not increase: noise_tolerance in
# nbar at a fixed loss, max_tolerable_loss in the loss along nbar = n_th eps / 2.
# The allowance is rounding of a difference of two O(1) terms.
_KEY_ROUNDING = 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    loss=st.floats(0.0, 0.999),
    nbars=st.tuples(*[st.floats(0.0, 1.0) | st.floats(0.0, 30.0)] * 2).map(sorted),
)
def test_asymptotic_key_does_not_increase_with_noise(chain, loss, nbars):
    low, high = (sec.asymptotic_key(chain, ChannelParams(loss, nbar)) for nbar in nbars)
    assert high <= low + _KEY_ROUNDING


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    background=st.just(0.0) | st.floats(-6.0, 6.0).map(lambda exponent: 10.0**exponent),
    losses=st.tuples(*[st.floats(1e-12, 1.0 - 1e-9)] * 2).map(sorted),
)
def test_asymptotic_key_does_not_increase_along_the_link_budget_path(chain, background, losses):
    low, high = (
        sec.asymptotic_key(chain, ChannelParams(eps, 0.5 * background * eps)) for eps in losses
    )
    assert high <= low + _KEY_ROUNDING


def test_asymptotic_key_value_and_sign():
    assert sec.asymptotic_key(RUN2, QUIET) == pytest.approx(
        0.8103797032259793, rel=1e-9
    )
    hot = ChannelParams(0.0115, 0.08)
    assert sec.asymptotic_key(RUN2, hot) < 0.0


def test_noise_tolerance_bisection():
    assert sec.noise_tolerance(RUN1, 0.0115) == pytest.approx(0.062379, abs=2e-5)
    assert sec.noise_tolerance(RUN2, 0.0115) == pytest.approx(0.063025, abs=2e-5)
    # a lossier channel tolerates less added noise
    assert sec.noise_tolerance(RUN2, 0.2) < sec.noise_tolerance(RUN2, 0.0115)


def count_calls(monkeypatch, name, *modules):
    """Route `name` in each of `modules` through one counting wrapper of the
    first module's function; returns the list of recorded calls."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def pinned(cases):
    """Parametrize (chain, point, want, evals) cases with the ids
    chain<i>-<point>-<want>, which stay stable when a count changes."""
    return [pytest.param(*case, id=f"chain{i}-{case[1]}-{case[2]}") for i, case in enumerate(cases)]


@pytest.mark.parametrize(
    "chain, loss, want, evals",
    pinned([
        (RUN1, 0.005, 0.06490150094032288, 12),
        (RUN1, 0.0115, 0.06237933039665222, 12),
        (RUN1, 0.2, 0.004460960626602173, 11),
        (RUN2, 0.005, 0.06553915143013, 12),
        (RUN2, 0.0115, 0.06302526593208313, 12),
        (RUN2, 0.2, 0.005085676908493042, 11),
    ]),
)
def test_noise_tolerance_is_pinned_to_the_bit(monkeypatch, chain, loss, want, evals):
    # every bisection midpoint depends on the sign of the key there, so a
    # faster core must keep these floats exactly; plain bisection makes 26
    # evaluations (two end points, 24 halvings), the bracket-guided loop
    # skips the midpoints whose sign is implied; all of them go through
    # the chain's KeyEvaluator.key
    calls = count_calls(monkeypatch, "key", sec.KeyEvaluator)
    assert sec.noise_tolerance(chain, loss) == want
    assert len(calls) == evals


@pytest.mark.parametrize(
    "chain, background, want, evals",
    pinned([
        (RUN1, lb.CRYO_LINK.background_photons, 0.23112535453648922, 10),
        (RUN1, lb.OPEN_AIR.background_photons, 0.00010728836148830747, 14),
        (RUN1, 1e4, 1.382827857404852e-05, 14),
        (RUN2, lb.CRYO_LINK.background_photons, 0.23473405814615816, 9),
        (RUN2, lb.OPEN_AIR.background_photons, 0.00010824203580375911, 14),
        (RUN2, 1e4, 1.382827857404852e-05, 14),
    ]),
)
def test_max_tolerable_loss_is_pinned_to_the_bit(monkeypatch, chain, background, want, evals):
    # plain bisection: two end points and 20 halvings; all evaluations go
    # through the chain's KeyEvaluator.key
    calls = count_calls(monkeypatch, "key", sec.KeyEvaluator)
    assert lb.max_tolerable_loss(chain, background) == want
    assert len(calls) == evals


def test_elementwise_matches_the_float_function_bitwise():
    rng = np.random.default_rng(8)
    x = np.concatenate([[1e-300, 0.5, 1.0, 2.0], rng.lognormal(0.0, 20.0, 300)])
    # g(nu) near nu = 1, then over the physical range
    edges = np.array([0.0, 1e-13, 1e-12, 2e-12, 1e-10, 1e-8, 2e-8])
    nu = 1.0 + np.concatenate([edges, rng.exponential(3.0, 300)])
    ops = sec._array_ops()
    cases = [
        (ops.log2, (x,), [math.log2(v) for v in x.tolist()]),
        (ops.hypot, (0.25, x), [math.hypot(0.25, v) for v in x.tolist()]),
        (ops.hypot, (x, 0.25), [math.hypot(v, 0.25) for v in x.tolist()]),
        (ops.entropy, (nu,), [g.entropy_of_nu(v) for v in nu.tolist()]),
        (ops.log2, (np.array([]),), []),
        (ops.hypot, (0.25, np.array([])), []),
        (ops.entropy, (np.array([]),), []),
    ]
    for op, args, want in cases:
        got = op(*args)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes()
    table = ops.hypot(np.array([[1.0], [2.0]]), np.array([3.0, 4.0, 5.0]))
    assert table.tolist() == [[math.hypot(a, b) for b in (3.0, 4.0, 5.0)] for a in (1.0, 2.0)]


def test_noise_crossing_degenerate_cases():
    assert sec.noise_crossing(lambda n: -1.0) == 0.0
    assert sec.noise_crossing(lambda n: 1.0) == math.inf


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, -math.inf])
def test_noise_crossing_rejects_a_tolerance_that_is_not_positive(tol):
    calls = []
    with pytest.raises(ValueError, match="tol must be > 0"):
        sec.noise_crossing(lambda n: calls.append(n) or 0.0625 - n, tol=tol)
    assert calls == []


@pytest.mark.parametrize(
    "lower, upper",
    [(0.8, 0.2), (0.5, 0.5), (0.0, math.inf), (0.0, math.nan), (-math.inf, 1.0), (math.nan, 1.0)],
)
def test_noise_crossing_rejects_a_bracket_that_is_not_finite_and_ordered(lower, upper):
    calls = []
    with pytest.raises(ValueError, match="lower and upper must be finite, with lower < upper"):
        sec.noise_crossing(lambda x: calls.append(x) or 0.5 - x, upper, lower=lower)
    assert calls == []


@pytest.mark.parametrize("guess", [math.nan, math.inf, -math.inf])
def test_noise_crossing_rejects_a_guess_that_is_not_finite(guess):
    calls = []
    with pytest.raises(ValueError, match="guess must be finite"):
        sec.noise_crossing(lambda x: calls.append(x) or 0.5 - x, guess=guess)
    assert calls == []


@pytest.mark.parametrize("guess", [-5.0, 0.0, 0.25, 0.5, 1.0, 7.0])
def test_noise_crossing_clamps_the_guess_into_the_bracket(guess):
    calls = []
    got = sec.noise_crossing(lambda x: calls.append(x) or 0.5 - x, guess=guess)
    assert got == sec.noise_crossing(lambda x: 0.5 - x)
    assert calls[0] == min(max(guess, 0.0), 1.0)
    assert all(0.0 <= x <= 1.0 for x in calls)


def test_noise_crossing_evaluates_an_end_only_if_the_walk_reaches_it():
    # a close guess brackets the root without touching 0 or 1; a guess at
    # an end on the wrong side of the root settles the crossing at once
    calls = []
    sec.noise_crossing(lambda x: calls.append(x) or 0.5 - x, guess=0.45)
    assert 0.0 not in calls and 1.0 not in calls
    for guess, sign, want in ((0.0, -1.0, 0.0), (1.0, 1.0, math.inf)):
        calls = []
        assert sec.noise_crossing(lambda x: calls.append(x) or sign, guess=guess) == want
        assert calls == [guess]


def test_noise_crossing_stops_at_adjacent_floats():
    # below the float spacing at the root, hi - lo stops shrinking once
    # lo and hi are adjacent; the loop must end there, not spin
    for key in (lambda n: 0.0625 - n, lambda n: 0.1 - n):
        calls = []
        got = sec.noise_crossing(lambda n: calls.append(n) or key(n), tol=1e-18)
        assert abs(got - key(0.0)) <= math.ulp(key(0.0))
        assert len(calls) <= 2 + 60


def _plain_bisection(key_fn, upper, tol, lower):
    """Reference: bisection that evaluates every midpoint."""
    if key_fn(lower) <= 0.0:
        return 0.0
    if key_fn(upper) > 0.0:
        return math.inf
    lo, hi = lower, upper
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if key_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Illinois points noise_crossing may spend beyond plain bisection's count
STRIKES = 6
# steps the walk from a guess may spend beyond plain bisection's count
WALK = 4


def assert_plain_bisection(fn, upper, tol, lower, guess=None):
    """noise_crossing returns plain bisection's float bit for bit, raises
    nothing plain bisection would not, evaluates the key only inside
    [lower, upper], and at most STRIKES (and, with a guess, WALK) times
    more often than plain bisection; returns the float."""
    plain, fast = [], []

    def counted(calls):
        return lambda x: calls.append(x) or fn(x)

    try:
        want = _plain_bisection(counted(plain), upper, tol, lower)
    except Exception as exc:  # the fast path may skip the failing point, nothing more
        with pytest.raises(type(exc)):
            sec.noise_crossing(counted(fast), upper, tol, lower=lower, guess=guess)
        return None
    got = sec.noise_crossing(counted(fast), upper, tol, lower=lower, guess=guess)
    assert got.hex() == want.hex()
    assert all(lower <= x <= upper for x in fast)
    assert len(fast) <= len(plain) + STRIKES + (0 if guess is None else WALK)
    return got


# A guess for a crossing on [lower, upper]: none, a point at a fraction of
# the bracket (inside, at its ends or outside it), or a fixed point that
# is tiny, huge or negative
_GUESSES = st.one_of(
    st.none(),
    st.tuples(st.just("fraction"), st.floats(-1.0, 2.0)),
    st.tuples(st.just("point"), st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, -1e-12, 1e300])),
)


def _place(guess, lower, upper):
    if guess is None:
        return None
    kind, value = guess
    return lower + value * (upper - lower) if kind == "fraction" else value


_SYNTHETIC_KEYS = {
    "affine": lambda r: lambda x: r - x,
    "step": lambda r: lambda x: 1.0 if x < r else -1.0,
    "step to zero": lambda r: lambda x: 1.0 if x < r else 0.0,
    "flat root": lambda r: lambda x: (r - x) ** 3,
    "log": lambda r: lambda x: math.log(r / x) if x > 0.0 else math.inf,
    "underflowing exp": lambda r: lambda x: math.exp(-x / 1e-4) - math.exp(-r / 1e-4),
    # subnormal near the root, where Illinois halving underflows to 0
    "subnormal exp": lambda r: lambda x: math.exp(-744.0 * x / r) - math.exp(-744.0),
    "tiny": lambda r: lambda x: 1e-300 * (r - x),
    "huge": lambda r: lambda x: 1e300 * (r - x),
    "tiny above, huge below": lambda r: lambda x: 1e-300 if x < r else -1e300,
}


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from(sorted(_SYNTHETIC_KEYS)),
    root=st.one_of(st.floats(0.0, 1.0), st.floats(-9.0, 0.0).map(lambda e: 10.0**e)),
    lower=st.floats(0.0, 0.5),
    width=st.floats(1e-6, 2.0),
    tol=st.floats(-16.0, -1.0).map(lambda e: 10.0**e),
    guess=_GUESSES,
)
@example(shape="flat root", root=0.3, lower=0.0, width=1.0, tol=1e-12, guess=None)
@example(shape="underflowing exp", root=0.5, lower=0.0, width=1.0, tol=1e-12, guess=None)
@example(shape="affine", root=1e-9, lower=0.0, width=1.0, tol=1e-16, guess=("point", 0.0))
@example(shape="log", root=0.3, lower=0.0, width=1.0, tol=1e-12, guess=("point", 5e-324))
@example(shape="subnormal exp", root=1e-9, lower=0.0, width=2.0, tol=1e-16,
         guess=("fraction", 1.0))
def test_noise_crossing_is_plain_bisection_on_synthetic_keys(shape, root, lower, width, tol, guess):
    upper = lower + width
    assert_plain_bisection(
        _SYNTHETIC_KEYS[shape](root), upper, tol, lower, _place(guess, lower, upper)
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    loss=st.floats(1e-3, 0.95),
    background=st.floats(0.0, 1e5),
    guesses=st.tuples(_GUESSES, _GUESSES),
)
def test_noise_crossing_is_plain_bisection_on_real_keys(chain, loss, background, guesses):
    want = assert_plain_bisection(
        lambda nbar: sec.asymptotic_key(chain, ChannelParams(loss, nbar)),
        1.0, 1e-7, 0.0, _place(guesses[0], 0.0, 1.0),
    )
    assert sec.noise_tolerance(chain, loss) == want
    upper = 1.0 - 1e-9
    guess = _place(guesses[1], 1e-12, upper)
    # the loss tolerance of max_tolerable_loss, tightened with the PLOB zero
    tol = min(lb.BISECTION_TOL, 0.02 / (1.0 + background))
    want = assert_plain_bisection(
        lambda eps: sec.asymptotic_key(chain, ChannelParams(eps, 0.5 * background * eps)),
        upper, tol, 1e-12, guess,
    )
    assert lb.max_tolerable_loss(chain, background) == min(want, upper)
    assert lb.max_tolerable_loss(chain, background, guess=guess) == min(want, upper)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    occupancies=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 1e5),
            st.floats(-8.0, 5.0).map(lambda e: 10.0**e),
        ),
        min_size=1,
        max_size=6,
    ),
)
@example(chain=RUN1, occupancies=[1e4, 0.0, 1e4, 1e-8, lb.OPEN_AIR.background_photons, 0.0])
def test_warm_started_sweep_rows_are_the_cold_rows(chain, occupancies):
    # each row's crossing starts from the previous row's root; unsorted,
    # repeated and zero occupations must still give the cold floats
    gamma = lb.OPEN_AIR.attenuation_db_per_m
    got = lb.sweep_occupancy(chain, occupancies, gamma)
    want = []
    for n_th in occupancies:
        eps = lb.max_tolerable_loss(chain, n_th)
        want.append((n_th, eps, lb.loss_to_distance(eps, gamma)))
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in want]


def plob_bound(channel: ChannelParams) -> float:
    """Repeaterless secret-key capacity of the thermal-loss channel in bits
    per use (Pirandola, Laurenza, Ottaviani and Banchi, Nat. Commun. 8,
    15043 (2017)): -log2(loss * eta**n) - h(n) for n < eta / loss, else 0,
    with eta = 1 - loss and n the environment occupation."""
    loss, n = channel.loss, channel.environment_photons
    eta = 1.0 - loss
    if not n < eta / loss:
        return 0.0
    h = (n + 1.0) * math.log2(n + 1.0) - (n * math.log2(n) if n > 0.0 else 0.0)
    return -math.log2(loss) - n * math.log2(eta) - h


def test_plob_bound_values():
    # pure loss: -log2(loss); at n = eta / loss the bound reaches 0
    assert plob_bound(ChannelParams(0.5, 0.0)) == 1.0
    assert plob_bound(ChannelParams(0.01, 0.0)) == pytest.approx(-math.log2(0.01))
    assert plob_bound(ChannelParams(0.5, 0.125)) == pytest.approx(
        -math.log2(0.5 * 0.5**0.5) - (1.5 * math.log2(1.5) - 0.5 * math.log2(0.5))
    )
    assert plob_bound(ChannelParams(0.5, 0.5)) == 0.0
    just_below = ChannelParams(0.2, 0.5 * 0.2 * 4.0 * (1.0 - 1e-6))
    assert 0.0 < plob_bound(just_below) < 1e-5


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    loss=st.floats(-5.0, math.log10(0.98)).map(lambda e: 10.0**e),
    ratio=st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e)),
)
def test_asymptotic_key_stays_below_the_plob_bound(chain, loss, ratio):
    channel = ChannelParams(loss, ratio * loss)
    assert sec.asymptotic_key(chain, channel) <= plob_bound(channel)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    background=st.one_of(
        st.floats(0.0, 1e5), st.floats(5.0, 11.0).map(lambda e: 10.0**e)
    ),
)
@example(chain=RUN1, background=lb.OPEN_AIR.background_photons)
@example(chain=RUN2, background=1e5)
@example(chain=RUN1, background=1e7)
@example(chain=RUN2, background=1e11)
def test_max_tolerable_loss_stays_below_the_plob_reach(chain, background):
    # the environment of the loss key holds `background` photons at every
    # loss, and the PLOB bound is 0 from loss = 1 / (1 + background) on
    assert lb.max_tolerable_loss(chain, background) < 1.0 / (1.0 + background)


@pytest.mark.parametrize("chain", [RUN1, RUN2], ids=["run1", "run2"])
def test_max_tolerable_loss_is_near_the_root_at_large_backgrounds(chain):
    # past a background of 2e4 the PLOB zero, and the root at about 0.135
    # of it, shrink below BISECTION_TOL; the crossing's tolerance shrinks
    # with them, so the loss stays within 10 % of the converged root
    for background in (1e5, 1e7, 1e9, 1e11):
        root = sec.noise_crossing(
            lambda eps: sec.asymptotic_key(chain, ChannelParams(eps, 0.5 * background * eps)),
            1.0 - 1e-9, 1e-15, lower=1e-12,
        )
        assert abs(lb.max_tolerable_loss(chain, background) - root) < 0.1 * root, background


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chain=_chains())
@example(chain=RUN1)
@example(chain=RUN2)
def test_no_key_where_max_tolerable_loss_stops_looking(chain):
    # from this background on, max_tolerable_loss returns 0.0 unevaluated:
    # the PLOB bound is 0 at its lowest loss, and so is no worse a key
    lower = 1e-12
    channel = ChannelParams(lower, 0.5 * lower * ((1.0 - lower) / lower))
    assert plob_bound(channel) == 0.0
    assert sec.asymptotic_key(chain, channel) <= 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    loss=st.floats(-5.0, math.log10(0.98)).map(lambda e: 10.0**e),
    ratio=st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e)),
    n_raw=st.integers(8, 10**9),
)
@example(chain=RUN1, loss=0.0115, ratio=1.7e-6 / 0.0115, n_raw=16665)
@example(chain=RUN2, loss=0.0115, ratio=1.7e-6 / 0.0115, n_raw=16665)
@example(
    chain=replace(RUN1, squeezing_db=0.0, antisqueezing_db=0.0),
    loss=0.0115, ratio=1e-3, n_raw=16665,
)
def test_composite_key_stays_below_asymptotic_and_plob(chain, loss, ratio, n_raw):
    # composite <= asymptotic <= PLOB; the raw-symbol rate never beats the
    # asymptotic key, and dropping either finite-size term never lowers it
    channel = ChannelParams(loss, ratio * loss)
    report = sec.build_report(chain, channel, n_raw=n_raw)
    bound = report.finite_size
    assert bound.bits_per_symbol <= report.asymptotic_key_bits <= plob_bound(channel)
    assert bound.bits_per_raw_symbol <= max(report.asymptotic_key_bits, 0.0)
    for ablation in ("include_delta", "include_estimation_penalty"):
        relaxed = sec.composite_key(chain, channel, n_raw=n_raw, **{ablation: False})
        assert relaxed.bits_per_raw_symbol >= bound.bits_per_raw_symbol, ablation


def test_confidence_w():
    from scipy.special import erf

    w = sec.confidence_w(1e-10)
    assert w == pytest.approx(6.361340889697423, rel=1e-12)
    # round trip through the Gaussian tail: P(|Z| > w) = 2 e_ec
    assert 1.0 - erf(w / math.sqrt(2)) == pytest.approx(2e-10, rel=1e-6)
    assert sec.confidence_w(0.5 - 1e-12) == pytest.approx(0.0, abs=1e-5)
    for bad in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError):
            sec.confidence_w(bad)


def test_confidence_w_against_bisection_oracle():
    # independent inversion of the tail probability via bisection on erf;
    # at e_ec = 1e-10 the tail slope is ~6e-10 per unit w, so the last
    # representable digits of erf limit the agreement to a few 1e-8
    from scipy.special import erf

    for e_ec in (1e-10, 1e-6, 0.01):
        want = sec.confidence_w(e_ec)
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * (1.0 - erf(mid / math.sqrt(2))) > e_ec:
                lo = mid
            else:
                hi = mid
        assert want == pytest.approx(0.5 * (lo + hi), abs=5e-7)


def test_confidence_w_matches_scipy_erfinv_oracle():
    from scipy.special import erfinv

    grid = np.append(np.geomspace(1e-14, 0.49, 2001), 1e-10).tolist()
    for e_ec in grid:
        want = math.sqrt(2.0) * float(erfinv(1.0 - 2.0 * e_ec))
        assert abs(sec.confidence_w(e_ec) - want) <= 1e-15 * want
    # at or below 2**-55 (~2.8e-17), 1 - 2e rounds to 1 and w would be infinite
    with pytest.raises(ValueError, match="too small"):
        sec.confidence_w(1e-17)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(e_ec=st.floats(-20.0, -15.0).map(lambda exponent: 10.0**exponent))
@example(e_ec=2.0**-55)
@example(e_ec=math.nextafter(2.0**-55, 1.0))
def test_key_settings_take_e_ec_exactly_where_confidence_w_does(e_ec):
    # the whole domain is checked where the settings resolve, without
    # computing w, so a configuration w refuses never reaches a command
    try:
        sec.confidence_w(e_ec)
    except ValueError:
        with pytest.raises(ValueError, match="e_ec"):
            sec.key_settings(16665, e_ec=e_ec, include_estimation_penalty=False)
    else:
        assert sec.key_settings(16665, e_ec=e_ec)["e_ec"] == e_ec


def test_composite_key_worst_case_stays_in_range():
    # the widened loss is clamped below 1 and the noise at 0
    est = ChannelEstimate(
        loss=0.99, loss_sigma=0.3, noise_photons=0.0, noise_sigma=0.0, samples=100
    )
    bound = sec.composite_key(RUN1, estimate=est, n_raw=16665)
    assert bound.worst_case_loss < 1.0
    assert bound.worst_case_noise == 0.0
    est = ChannelEstimate(
        loss=-0.001, loss_sigma=0.0, noise_photons=0.0, noise_sigma=0.0, samples=100
    )
    assert sec.composite_key(RUN1, estimate=est, n_raw=16665).worst_case_loss == 0.0


def test_finite_size_delta_values():
    assert sec.finite_size_delta(8332) == pytest.approx(0.4565734692692913, rel=1e-12)
    assert sec.finite_size_delta(4166) == pytest.approx(0.6503633968404844, rel=1e-12)
    assert sec.finite_size_delta(250_000) == pytest.approx(
        0.08216190230095935, rel=1e-12
    )
    assert sec.finite_size_delta(10**9) < 0.002
    with pytest.raises(ValueError):
        sec.finite_size_delta(0)


def test_finite_size_delta_shrinks():
    sizes = [10**3, 10**4, 10**5, 10**6]
    deltas = [sec.finite_size_delta(n) for n in sizes]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_composite_key_accounting():
    bound = sec.composite_key(RUN2, QUIET, n_raw=16665)
    assert bound.n_sifted == 8332
    assert bound.n_ec == 4166
    assert bound.prefactor == pytest.approx(4166 / 16665)
    assert bound.delta_bits == pytest.approx(sec.finite_size_delta(4166))
    assert bound.bits_per_symbol == pytest.approx(
        bound.mi_bits - bound.holevo_bits - bound.delta_bits
    )
    assert bound.bits_per_raw_symbol == pytest.approx(
        bound.prefactor * bound.bits_per_symbol
    )


def test_composite_key_books_the_estimate_counts():
    # an estimate books the pairs it had, not half of half of N; the
    # counts it books move no key value
    estimate = sec.predicted_estimate(RUN2, QUIET, 4122)
    bound = sec.composite_key(RUN2, estimate=estimate, n_raw=16665)
    assert (bound.n_sifted, bound.n_ec, bound.n_estimation) == (8288, 4166, 4122)
    assert sec.build_report(RUN2, estimate=estimate, n_raw=16665).finite_size == bound
    expected = sec.composite_key(RUN2, estimate=replace(estimate, samples=4166), n_raw=16665)
    assert (expected.n_sifted, expected.n_estimation) == (8332, 4166)
    assert bound.bits_per_raw_symbol == expected.bits_per_raw_symbol


def test_composite_key_ablations_reduce_to_asymptotic():
    bound = sec.composite_key(
        RUN2, QUIET, n_raw=16665, include_delta=False,
        include_estimation_penalty=False,
    )
    assert bound.delta_bits == 0.0
    assert bound.bits_per_symbol == pytest.approx(
        sec.asymptotic_key(RUN2, QUIET), rel=1e-9
    )


def test_composite_key_never_beats_asymptotic():
    for nbar in (0.0, 0.01, 0.03):
        ch = ChannelParams(0.0115, nbar)
        bound = sec.composite_key(RUN2, ch, n_raw=10**6)
        assert bound.bits_per_symbol <= sec.asymptotic_key(RUN2, ch) + 1e-12


def test_composite_key_estimation_penalty_uses_confidence_width():
    est = ChannelEstimate(
        loss=0.0115, loss_sigma=0.001, noise_photons=0.002, noise_sigma=0.0005,
        samples=4166,
    )
    bound = sec.composite_key(RUN2, estimate=est, n_raw=16665)
    assert bound.w == pytest.approx(sec.confidence_w(1e-10))
    assert bound.worst_case_loss == pytest.approx(0.0115 + bound.w * 0.001)
    assert bound.worst_case_noise == pytest.approx(0.002 + bound.w * 0.0005)
    assert bound.bits_per_symbol < sec.asymptotic_key(
        RUN2, ChannelParams(est.loss, est.noise_photons)
    )


def test_composite_key_needs_exactly_one_channel_source():
    est = ChannelEstimate(
        loss=0.01, loss_sigma=0.001, noise_photons=0.0, noise_sigma=0.001, samples=100
    )
    with pytest.raises(ValueError):
        sec.composite_key(RUN2, QUIET, estimate=est, n_raw=1000)
    with pytest.raises(ValueError):
        sec.composite_key(RUN2, n_raw=1000)


@pytest.mark.parametrize("e_ec", [0.7, 0.5, 0.0, -1.0, math.nan])
@pytest.mark.parametrize("penalty", [True, False])
def test_composite_key_checks_e_ec_whatever_the_penalty(e_ec, penalty):
    # without the penalty e_ec is never used, but out of range it is still wrong
    for fn in (sec.composite_key, sec.build_report):
        with pytest.raises(ValueError, match="e_ec"):
            fn(RUN2, QUIET, n_raw=16665, e_ec=e_ec, include_estimation_penalty=penalty)
    with pytest.raises(ValueError, match="e_ec"):
        sec.sweep_noise(RUN2, 0.0115, [0.0, 1e-3], n_raw=16665, e_ec=e_ec,
                        include_estimation_penalty=penalty)


def test_composite_key_respects_beta_and_pec():
    full = sec.composite_key(RUN2, QUIET, n_raw=16665, include_delta=False,
                             include_estimation_penalty=False)
    lossy = sec.composite_key(RUN2, QUIET, n_raw=16665, beta_ec=0.95, p_ec=0.9,
                              include_delta=False, include_estimation_penalty=False)
    assert lossy.bits_per_symbol == pytest.approx(
        0.95 * full.mi_bits - full.holevo_bits
    )
    assert lossy.prefactor == pytest.approx(0.9 * full.prefactor)


def test_predicted_estimate_structure():
    pred = sec.predicted_estimate(RUN1, ChannelParams(0.0115, 0.01), samples=4166)
    assert pred.loss == pytest.approx(0.0115)
    assert pred.noise_photons == pytest.approx(0.01)
    assert pred.loss_sigma > 0 and pred.noise_sigma > 0
    wider = sec.predicted_estimate(RUN1, ChannelParams(0.0115, 0.01), samples=1000)
    assert wider.loss_sigma > pred.loss_sigma


def _to_json(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def test_report_serializes_with_inputs(tmp_path):
    rep = sec.build_report(RUN2, QUIET, n_raw=16665, extra_inputs={"tag": 7})
    data = json.loads(_to_json(rep))
    assert data["snr"] == pytest.approx(2.480461077211082)
    assert data["asymptotic_key_bits"] == pytest.approx(0.8103797032259793)
    assert data["finite_size"]["n_raw"] == 16665
    assert data["inputs"]["chain"]["quantum_efficiency"] == 0.68
    assert data["inputs"]["channel"]["loss"] == 0.0115
    assert data["inputs"]["tag"] == 7
    # serialization is stable
    assert _to_json(rep) == _to_json(
        sec.build_report(RUN2, QUIET, n_raw=16665, extra_inputs={"tag": 7})
    )


@pytest.mark.parametrize(
    "field, bad",
    [(field, bad)
     for field in ("squeezing_db", "antisqueezing_db", "measurement_gain_db",
                   "hemt_noise_photons", "path_environment_photons")
     for bad in (math.nan, math.inf, -math.inf)]
    # finite levels whose linear ratio 10 ** (level / 10) overflows
    + [("squeezing_db", -4000.0), ("antisqueezing_db", 4000.0),
       ("measurement_gain_db", 4000.0)],
)
def test_non_finite_chain_values_are_rejected(field, bad):
    value = (0.0, 0.0, bad, 0.0) if field == "path_environment_photons" else bad
    # the chain itself refuses, so neither the scalar report nor the grid
    # can turn the value into a NaN key or a misleading late error
    message = f"{field} must be finite" if field.endswith("_db") else "finite"
    with pytest.raises(ValueError, match=message):
        sec.build_report(replace(RUN1, **{field: value}), QUIET, n_raw=16665)
    with pytest.raises(ValueError, match=message):
        sec.sweep_noise(replace(RUN1, **{field: value}), 0.0115, [0.0, 0.01], n_raw=16665)


def test_chains_are_refused_only_near_where_chi_overflows_alone():
    # the chain check bounds chi's invariants at zero noise and any loss;
    # 768 dB passes with a finite chi, 775 dB is refused, and at 775 dB
    # chi's invariants do overflow at zero noise
    accepted = replace(RUN1, squeezing_db=768.0, antisqueezing_db=768.0)
    for loss in (0.0, 0.0115, 0.5, 0.999):
        assert math.isfinite(sec.holevo_dr(accepted, ChannelParams(loss, 0.0)))
    with pytest.raises(ValueError, match="chain channel-input variances"):
        replace(RUN1, squeezing_db=775.0, antisqueezing_db=775.0)
    v = devices.level_to_variance(775.0, "antisqueezed")
    with pytest.raises(ValueError, match="overflows chi's invariants"), np.errstate(over="ignore"):
        sec._environment_entropy(sec._array_ops(), 0.999, np.zeros(1), v, v)


def test_build_report_always_books_the_finite_size_block():
    with pytest.raises(TypeError):
        sec.build_report(RUN1, QUIET)
    data = sec.build_report(RUN1, QUIET, n_raw=16665).to_dict()
    assert data["finite_size"]["n_raw"] == 16665


SETTINGS_ENTRY_POINTS = [
    lambda **settings: sec.composite_key(RUN1, QUIET, **settings),
    lambda **settings: sec.build_report(RUN1, QUIET, **settings),
    lambda **settings: sec.sweep_noise(RUN1, 0.0115, [0.0, 1e-3], **settings),
]


@pytest.mark.parametrize("entry", SETTINGS_ENTRY_POINTS, ids=["composite", "report", "sweep"])
def test_every_entry_point_takes_exactly_the_key_settings(entry):
    with pytest.raises(TypeError, match="n_raw"):
        entry()
    with pytest.raises(TypeError, match="n_est"):
        entry(n_raw=16665, n_est=100)
    with pytest.raises(TypeError, match="n_raw"):
        entry(beta_ec=0.9)


def test_reports_echo_the_resolved_settings_defaults_included():
    want = sec.key_settings(n_raw=16665)
    assert want["n_ec"] == 16665 // 2 // 2
    for report in (sec.build_report(RUN1, QUIET, n_raw=16665),
                   sec.sweep_noise(RUN1, 0.0115, [0.0, 1e-3], n_raw=16665)):
        echoed = {k: v for k, v in report.inputs.items()
                  if k not in ("chain", "channel", "parameter_source")}
        assert echoed == want
    bound = sec.composite_key(RUN1, QUIET, n_raw=16665)
    assert (bound.n_ec, bound.include_delta, bound.include_estimation_penalty) == (
        want["n_ec"], want["include_delta"], want["include_estimation_penalty"]
    )


def test_the_config_defaults_are_the_key_settings_defaults():
    # the default config resolves to the library's defaults at its N, so
    # the two definitions cannot drift apart
    config = mwqkd.ExperimentConfig()
    assert config.key_settings == sec.key_settings(config.n_symbols)


@st.composite
def _report_settings(draw):
    n_raw = draw(st.integers(100, 10**6))
    return dict(
        n_raw=n_raw,
        n_ec=draw(st.none() | st.integers(1, n_raw // 2 - 2)),
        beta_ec=draw(st.floats(0.0, 1.0, exclude_min=True)),
        p_ec=draw(st.floats(0.0, 1.0, exclude_min=True)),
        e_ec=draw(st.floats(1e-12, 0.4)),
        include_delta=draw(st.booleans()),
        include_estimation_penalty=draw(st.booleans()),
    )


BRANCH_GRID = [0.0, 1e-15, 1e-12, 1e-9, 0.05]
# the reach table's backgrounds, whose points are (loss, n_th * loss / 2)
REACH_BACKGROUNDS = [1e-8, 1e-4, 1.0, 2.0, 1250.0, 1e8, 1e12]
PAPER_SETTINGS = dict(
    n_raw=16665, n_ec=None, beta_ec=1.0, p_ec=1.0, e_ec=sec.DEFAULT_CORRECTNESS_EPSILON,
    include_delta=True, include_estimation_penalty=True,
)


def _reach_points(loss: float, backgrounds) -> list:
    """The coupled noise of each background at `loss`, as the reach
    crossings take it (ChannelParams.from_environment)."""
    return [ChannelParams.from_environment(loss, n_th).noise_photons for n_th in backgrounds]


@st.composite
def _channel_grids(draw):
    """(loss, noise grid) over the whole channel domain: loss 0, or up to
    1 - 1e-12; a grid of nbar from 0 to 1e30, or of the reach table's
    points for n_th from 1e-8 to 1e12."""
    loss = draw(st.just(0.0) | st.floats(0.0, 0.5) | st.floats(0.5, 1.0 - 1e-12))
    if draw(st.booleans()):
        backgrounds = st.floats(-8.0, 12.0).map(lambda k: 10.0**k)
        return loss, _reach_points(loss, draw(st.lists(backgrounds, max_size=6)))
    nbars = st.just(0.0) | st.floats(0.0, 0.5) | st.floats(-12.0, 30.0).map(lambda k: 10.0**k)
    return loss, draw(st.lists(nbars, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain=_chains(), channel_grid=_channel_grids(), report_settings=_report_settings())
# a grid that reaches g(nu) at nu <= 1 (its guard), just above 1 and far
# above it, and both branches of the eigenvalue gap; the reach table's
# points, also both branches; the ends of the channel domain
@example(chain=RUN1, channel_grid=(0.0115, BRANCH_GRID), report_settings=PAPER_SETTINGS)
@example(chain=RUN2, channel_grid=(0.0115, BRANCH_GRID), report_settings=PAPER_SETTINGS)
@example(chain=RUN1, channel_grid=(0.0115, _reach_points(0.0115, REACH_BACKGROUNDS)),
         report_settings=PAPER_SETTINGS)
@example(chain=RUN2, channel_grid=(0.0, [0.0, 1e-12, 1.0, 1e30]), report_settings=PAPER_SETTINGS)
@example(chain=RUN2, channel_grid=(1.0 - 1e-12, [0.0, 1e-12, 1.0, 1e30]),
         report_settings=PAPER_SETTINGS)
def test_sweep_noise_matches_scalar_reports_bitwise(chain, channel_grid, report_settings):
    # KeyEvaluator gives each scalar report its chi, and asymptotic_key
    # its SNR too; the ops formula on numpy gives the grid's. The per-point
    # scalar reports are the reference
    loss, grid = channel_grid
    want = []
    # settings errors do not depend on the point, so an empty grid is
    # probed at nbar = 0
    for nbar in grid or [0.0]:
        channel = ChannelParams(loss, nbar)
        try:
            report = sec.build_report(chain, channel, **report_settings)
        except ValueError as exc:
            # the point alone raises the same type and message on the grid
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                sec.sweep_noise(chain, loss, [nbar] if grid else [], **report_settings)
            with pytest.raises(ValueError):
                sec.sweep_noise(chain, loss, grid, **report_settings)
            return
        assert repr(sec.asymptotic_key(chain, channel)) == repr(report.asymptotic_key_bits)
        want.append(_to_json(report))
    constant, points = sec.sweep_noise(chain, loss, grid, **report_settings).split_grid()
    # JSON text carries every field, inputs included, with repr'd floats
    got = [json.dumps(merge_point(constant, point), indent=2, sort_keys=True) for point in points]
    assert got == want[: len(grid)]


def _gap_branches(chain, loss: float, grid) -> set:
    """Which branches of chi's eigenvalue gap the points (loss, nbar) of
    `grid` take, the modulated and the conditional environment's: True
    where X = (eps a - m)(eps b - m) < 0."""
    b = 4.0 * chain.readout.orthogonal_input_variance
    inputs = (chain.modulated_input_variance, chain.readout.channel_input_variance)
    return {
        (loss * 4.0 * v - m) * (loss * b - m) < 0.0
        for v in inputs
        for m in (loss + 4.0 * nbar for nbar in grid)
    }


def test_the_bitwise_examples_reach_both_branches_of_the_gap():
    for chain in (RUN1, RUN2):
        assert _gap_branches(chain, 0.0115, BRANCH_GRID) == {False, True}
    assert _gap_branches(RUN1, 0.0115, _reach_points(0.0115, REACH_BACKGROUNDS)) == {False, True}


@pytest.mark.parametrize(
    "loss, nbar, tol",
    [(0.0115, 1e160, None), (0.0, 1e160, None), (0.5, 1e200, None),
     (0.0115, 0.0, -1e-3), (0.0, 0.0, -1e-3)],
)
def test_chi_errors_are_the_same_on_both_paths(monkeypatch, loss, nbar, tol):
    # chi's invariants overflow past nbar ~1e154; a physicality guard
    # tightened past the uncertainty bound rejects the pure environment
    if tol is not None:
        monkeypatch.setattr(sec, "PHYSICALITY_TOL", tol)
    with pytest.raises(ValueError) as grid_error:
        sec.sweep_noise(RUN1, loss, [nbar], n_raw=16665)
    want = f"^{re.escape(str(grid_error.value))}$"
    channel = ChannelParams(loss, nbar)
    for scalar in (sec.holevo_dr, sec.asymptotic_key,
                   functools.partial(sec.build_report, n_raw=16665)):
        with pytest.raises(type(grid_error.value), match=want):
            scalar(RUN1, channel)
    if tol is None:
        assert str(grid_error.value) == (
            f"noise_photons={nbar!r} at loss={loss!r} overflows chi's invariants"
        )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    loss=st.floats(1e-3, 0.5),
    nbar=st.floats(0.0, 0.5),
    report_settings=_report_settings(),
)
def test_composite_key_is_the_report_bound(chain, loss, nbar, report_settings):
    channel = ChannelParams(loss, nbar)
    try:
        report = sec.build_report(chain, channel, **report_settings)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            sec.composite_key(chain, channel, **report_settings)
        return
    bound = sec.composite_key(chain, channel, **report_settings)
    # repr tells every float apart, signed zeros included
    for field in fields(bound):
        got, want = getattr(bound, field.name), getattr(report.finite_size, field.name)
        assert repr(got) == repr(want), field.name
    assert bound.bits_per_symbol <= sec.asymptotic_key(chain, channel) + 1e-12


def merge_point(constant: dict, point: dict) -> dict:
    """A grid report's constant fields with one point's fields merged in;
    no field may be in both."""
    merged = dict(constant)
    for name, value in point.items():
        if isinstance(value, dict):
            merged[name] = merge_point(constant.get(name, {}), value)
        else:
            assert name not in constant, name
            merged[name] = value
    return merged


def test_split_grid_keeps_only_arrays_per_point():
    with_pe = sec.sweep_noise(RUN1, 0.0115, [0.0, 0.01], n_raw=16665)
    without_pe = sec.sweep_noise(
        RUN1, 0.0115, [0.0, 0.01], n_raw=16665, include_estimation_penalty=False
    )
    varying = {"snr", "mi_bits", "holevo_bits", "asymptotic_key_bits"}
    bound = {"bits_per_symbol", "bits_per_raw_symbol", "mi_bits", "holevo_bits"}
    for sweep, worst in ((with_pe, {"worst_case_loss", "worst_case_noise"}), (without_pe, set())):
        constant, points = sweep.split_grid()
        assert len(points) == 2
        for point, nbar in zip(points, (0.0, 0.01)):
            assert set(point) == varying | {"finite_size", "inputs"}
            assert set(point["finite_size"]) == bound | worst
            assert point["inputs"] == {"channel": {"noise_photons": nbar}}
        assert constant["provenance"] == "exact"
        assert constant["inputs"]["channel"] == {"loss": 0.0115}
        assert set(constant["finite_size"]).isdisjoint(bound | worst)
    assert without_pe.split_grid()[0]["finite_size"]["worst_case_loss"] is None
    empty = sec.sweep_noise(RUN1, 0.0115, [], n_raw=16665)
    assert empty.split_grid()[1] == []
    for column in (empty.snr, empty.mi_bits, empty.holevo_bits, empty.asymptotic_key_bits,
                   empty.finite_size.bits_per_raw_symbol, empty.finite_size.worst_case_noise):
        assert column.dtype == np.float64 and column.shape == (0,)


def test_sweep_noise_rejects_bad_points_like_the_scalar_path():
    for bad in (-0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            sec.sweep_noise(RUN1, 0.0115, [0.0, bad], n_raw=16665)
    # zero loss is a valid point, with noise too: each grid point is the
    # scalar report, bit for bit
    grid = [0.0, 0.01]
    constant, points = sec.sweep_noise(RUN1, 0.0, grid, n_raw=16665).split_grid()
    assert [json.dumps(merge_point(constant, p), indent=2, sort_keys=True) for p in points] == [
        _to_json(sec.build_report(RUN1, ChannelParams(0.0, nbar), n_raw=16665)) for nbar in grid
    ]
    # a noiseless grid at zero loss leaks nothing
    assert sec.sweep_noise(RUN1, 0.0, [0.0], n_raw=16665).holevo_bits.tolist() == [0.0]
    assert cli.main(["sweep", "--preset", "run1", "--loss", "0"]) == 0


def test_physicality_guard_raises_on_one_bad_grid_point(monkeypatch):
    # a guard tightened past the uncertainty bound rejects the nearly pure
    # environment at nbar = 0 but not the noisier ones, at loss 0 too
    monkeypatch.setattr(sec, "PHYSICALITY_TOL", -1e-3)
    for loss in (0.0115, 0.0):
        with pytest.raises(PhysicalityError):
            sec.holevo_dr(RUN1, ChannelParams(loss, 0.0))
        good = [0.01, 0.1]
        sec.sweep_noise(RUN1, loss, good, n_raw=16665)
        # the error names the bad point's nu_-^2, not the whole grid
        with pytest.raises(PhysicalityError, match=r"nu_minus_sq=[-+.e\d]+$") as grid_error:
            sec.sweep_noise(RUN1, loss, [0.01, 0.0, 0.1], n_raw=16665)
        with pytest.raises(PhysicalityError) as point_error:
            sec.holevo_dr(RUN1, ChannelParams(loss, 0.0))
        assert str(grid_error.value) == str(point_error.value)
