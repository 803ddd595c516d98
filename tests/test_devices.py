"""Device chain modeling: conversions, preparation, readout moments."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwqkd
from mwqkd import devices as d
from mwqkd import gaussian as g

from test_security import _chains

RUN1 = mwqkd.RUN1_CHAIN
RUN2 = mwqkd.RUN2_CHAIN


def test_level_to_variance_db_convention():
    assert d.level_to_variance(0.0, "squeezed") == pytest.approx(0.25)
    assert d.level_to_variance(10.0, "squeezed") == pytest.approx(0.025)
    assert d.level_to_variance(10.0, "antisqueezed") == pytest.approx(2.5)
    with pytest.raises(ValueError):
        d.level_to_variance(3.0, "sideways")


def test_efficiency_noise_conversions_invert():
    for eta in (0.5, 0.65, 0.68, 0.99):
        nbar = d.efficiency_to_noise(eta)
        assert 1.0 / (1.0 + 2.0 * nbar) == pytest.approx(eta)
    assert d.efficiency_to_noise(1.0) == 0.0
    with pytest.raises(ValueError):
        d.efficiency_to_noise(0.0)
    with pytest.raises(ValueError):
        d.efficiency_to_noise(1.2)


def test_codebook_variance_covering_difference():
    # sigma_A^2 fills the gap between anti-squeezed and squeezed variances
    assert d.codebook_variance(3.6, 7.1) == pytest.approx(1.1730245019183707)
    assert d.codebook_variance(3.6, 7.6) == pytest.approx(1.329470885282851)
    with pytest.raises(ValueError):
        d.codebook_variance(5.0, 3.0)


def test_codebook_variance_needs_the_uncertainty_bound_and_the_covering_condition():
    # A >= S and A >= -S: the messages name both levels
    assert d.codebook_variance(-1.0, 1.0) == 0.0
    with pytest.raises(ValueError, match=r"antisqueezing_db=3.0, squeezing_db=5.0: A < S"):
        d.codebook_variance(5.0, 3.0)
    with pytest.raises(ValueError, match=r"antisqueezing_db=0.5, squeezing_db=-1.0: A < -S"):
        d.codebook_variance(-1.0, 0.5)


def test_chain_validation():
    with pytest.raises(ValueError):
        replace(RUN1, quantum_efficiency=0.0)
    with pytest.raises(ValueError):
        replace(RUN1, measurement_gain_db=-1.0)
    with pytest.raises(ValueError):
        replace(RUN1, hemt_noise_photons=-2.0)
    with pytest.raises(ValueError):
        replace(RUN1, displacement_coupler_transmissivity=0.0)
    with pytest.raises(ValueError):
        replace(RUN1, path_losses=(0.1, 0.2))


def test_chain_derived_properties():
    assert RUN1.squeezed_variance == pytest.approx(0.25 * 10 ** -0.36)
    assert RUN1.antisqueezed_variance == pytest.approx(0.25 * 10 ** 0.71)
    assert RUN1.measurement_gain == pytest.approx(10 ** 1.91)
    assert RUN1.amp_noise_photons == pytest.approx((1 / 0.65 - 1) / 2)
    assert RUN2.codebook_variance / RUN1.codebook_variance == pytest.approx(
        1.13337, abs=2e-5
    )


def test_channel_environment_referral():
    ch = d.ChannelParams(loss=0.0115, noise_photons=0.03)
    assert ch.transmissivity == pytest.approx(0.9885)
    # injected photons = eps * n_env / 2 must give back nbar
    assert ch.loss * ch.environment_photons / 2 == pytest.approx(0.03)
    with pytest.raises(ValueError):
        d.ChannelParams(loss=0.0, noise_photons=0.01).environment_photons
    assert d.ChannelParams(loss=0.0).environment_photons == 0.0


@pytest.mark.parametrize("nbar", [-0.1, math.inf, math.nan])
def test_channel_rejects_negative_or_non_finite_noise(nbar):
    with pytest.raises(ValueError, match="noise_photons"):
        d.ChannelParams(0.0115, nbar)


def test_prepared_state_variances():
    st = g.prepared_state(RUN1, basis="q")
    assert st.cov[0, 0] == pytest.approx(RUN1.squeezed_variance)
    assert st.cov[1, 1] == pytest.approx(RUN1.antisqueezed_variance)
    st = g.prepared_state(RUN1, basis="p")
    assert st.cov[1, 1] == pytest.approx(RUN1.squeezed_variance)
    assert st.cov[0, 0] == pytest.approx(RUN1.antisqueezed_variance)


def test_prepared_state_is_physical_mixed():
    from mwqkd.gaussian import symplectic_eigenvalues

    nus = symplectic_eigenvalues(g.prepared_state(RUN1))
    assert nus.min() >= 1.0  # finite squeezing with excess antisqueezing noise


def test_modulated_ensemble_covers_thermal():
    # symbol variance plus squeezed variance equals the anti-squeezed one,
    # so the average output looks isotropic to an eavesdropper
    st = g.channel_input_state(RUN1, basis="q", symbol=0.0)
    total_q = st.cov[0, 0] + RUN1.codebook_variance
    assert total_q == pytest.approx(st.cov[1, 1], rel=1e-12)


def test_channel_input_symbol_displaces_encoding_axis():
    st_q = g.channel_input_state(RUN1, basis="q", symbol=1.3)
    assert st_q.mean[0] == pytest.approx(1.3)
    assert st_q.mean[1] == 0.0
    st_p = g.channel_input_state(RUN1, basis="p", symbol=-0.4)
    assert st_p.mean[1] == pytest.approx(-0.4)


def test_bob_output_matched_moments():
    ch = d.ChannelParams(0.0115, 1.7e-6)
    mean, var = g.bob_output_distribution(RUN1, ch, symbol=1.0)
    assert mean == pytest.approx(8.963721131473314, rel=1e-12)
    assert var == pytest.approx(42.94410209207484, rel=1e-12)
    # slope is sqrt(G (1 - eps)) for the lossless-path presets
    assert mean == pytest.approx(math.sqrt(RUN1.measurement_gain * 0.9885))


def test_bob_output_mismatched_moments():
    ch = d.ChannelParams(0.0115, 1.7e-6)
    mean, var = g.bob_output_distribution(RUN1, ch, symbol=1.0, bob_basis="p")
    assert mean == pytest.approx(0.1102778617832264, rel=1e-12)
    assert var == pytest.approx(23.00301866200614, rel=1e-12)
    # deamplified axis: slope collapses by the gain
    assert mean == pytest.approx(math.sqrt(0.9885 / RUN1.measurement_gain))


def test_bob_output_scales_linearly_in_symbol():
    ch = d.ChannelParams(0.0115, 1.7e-6)
    m1, v1 = g.bob_output_distribution(RUN2, ch, symbol=0.5)
    m2, v2 = g.bob_output_distribution(RUN2, ch, symbol=-1.5)
    assert m2 == pytest.approx(-3.0 * m1)
    assert v2 == pytest.approx(v1)


def test_basis_symmetry_of_readout():
    # p-encoded symbols read along p behave like q-encoded along q
    ch = d.ChannelParams(0.0115, 0.01)
    mq, vq = g.bob_output_distribution(RUN2, ch, symbol=0.8, basis="q", bob_basis="q")
    mp, vp = g.bob_output_distribution(RUN2, ch, symbol=0.8, basis="p", bob_basis="p")
    assert mp == pytest.approx(mq)
    assert vp == pytest.approx(vq)


def test_response_and_noise_agrees_with_distribution():
    ch = d.ChannelParams(0.0115, 0.004)
    for matched, bob_basis in ((True, "q"), (False, "p")):
        k, v = d.response_and_noise(RUN2, ch, matched=matched)
        mean, var = g.bob_output_distribution(RUN2, ch, symbol=1.0, bob_basis=bob_basis)
        assert k == pytest.approx(mean, rel=1e-12)
        assert v == pytest.approx(var, rel=1e-12)


def test_lossless_channel_still_adds_its_noise():
    # zero loss is the loss -> 0+ limit at fixed nbar: the record keeps the
    # coupled noise, in the closed form and in the covariance oracle alike
    for nbar in (0.0, 0.05):
        lossless = d.ChannelParams(0.0, nbar)
        for matched, bob_basis in ((True, "q"), (False, "p")):
            k, v = d.response_and_noise(RUN2, lossless, matched=matched)
            mean, var = g.bob_output_distribution(RUN2, lossless, 1.0, "q", bob_basis)
            assert k == pytest.approx(mean, rel=1e-12)
            assert v == pytest.approx(var, rel=1e-12)
            near = d.response_and_noise(RUN2, d.ChannelParams(1e-12, nbar), matched=matched)
            assert v == pytest.approx(near[1], rel=1e-9)
            # a subnormal loss rounds to the lossless record
            assert d.response_and_noise(RUN2, d.ChannelParams(5e-324, nbar), matched) == (k, v)
    model = RUN2.readout
    quiet, loud = (model.moments(0.0, nbar)[1] for nbar in (0.0, 0.05))
    assert loud == pytest.approx(quiet + model.variance_gain * 0.05, rel=1e-12)
    # a noise grid at zero loss gets each point's float bits
    grid = model.moments(0.0, np.array([0.0, 0.05]))[1]
    assert grid.tolist() == [quiet, loud]


@pytest.mark.parametrize("chain", [RUN1, RUN2], ids=["run1", "run2"])
@pytest.mark.parametrize("matched", [True, False], ids=["matched", "mismatched"])
def test_readout_moments_match_an_exact_rational_oracle(chain, matched):
    # v = G_v ((1 - eps) v_in + eps / 4 + nbar) + offset in exact rationals
    # of the model's floats; the readout is finite and within 2 ulp of it
    # on the whole channel domain, at vanishing and subnormal losses too
    model = chain.readout if matched else chain.mismatched_readout
    for loss in (0.0, 5e-324, 1e-300, 1e-12, 0.0115, 0.999):
        for nbar in (0.0, 1.7e-6, 1e12, 1e150):
            slope, variance = model.moments(loss, nbar)
            eps = Fraction(loss)
            v_out = (1 - eps) * Fraction(model.channel_input_variance) + eps / 4 + Fraction(nbar)
            exact = Fraction(model.variance_gain) * v_out + Fraction(model.variance_offset)
            assert math.isfinite(slope) and math.isfinite(variance)
            assert abs(Fraction(variance) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def test_trusted_readout_constants_match_op_chain():
    # the closed-form readout model must reproduce the covariance oracle,
    # for a matched (G) and a mismatched (G -> 1/G) receiver
    chain = replace(
        RUN2,
        displacement_coupler_transmissivity=0.97,
        path_losses=(0.01, 0.02, 0.015, 0.03),
        path_environment_photons=(0.1, 0.0, 0.4, 0.2),
    )
    for matched, bob_basis in ((True, "q"), (False, "p")):
        model = d.trusted_readout_constants(chain, matched)
        for eps, nbar in ((0.0115, 0.002), (0.15, 0.03)):
            ch = d.ChannelParams(eps, nbar)
            mean, var = g.bob_output_distribution(chain, ch, 1.0, "q", bob_basis)
            assert model.slope_gain * (1 - eps) == pytest.approx(mean * mean, rel=1e-10)
            v_channel_out = (1 - eps) * model.channel_input_variance + eps * (
                1 + 2 * ch.environment_photons
            ) * 0.25
            assert model.variance_gain * v_channel_out + model.variance_offset == (
                pytest.approx(var, rel=1e-10)
            )
    # the orthogonal quadrature enters the channel anti-squeezed
    model = d.trusted_readout_constants(chain)
    state = g.channel_input_state(chain, "q")
    assert model.channel_input_variance == pytest.approx(state.cov[0, 0], rel=1e-12)
    assert model.orthogonal_input_variance == pytest.approx(state.cov[1, 1], rel=1e-12)


def test_noise_raises_output_variance_only():
    quiet = d.ChannelParams(0.0115, 0.0)
    loud = d.ChannelParams(0.0115, 0.05)
    kq, vq = d.response_and_noise(RUN1, quiet)
    kl, vl = d.response_and_noise(RUN1, loud)
    assert kq == kl
    assert vl > vq


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    chain=_chains(),
    matched=st.booleans(),
    loss=st.floats(0.0, 1.0, exclude_max=True),
    nbar=st.floats(0.0, 1e3),
)
def test_readout_inverse_returns_the_channel_of_its_moments(chain, matched, loss, nbar):
    # invert(moments(L, n)) is (L, n) up to rounding: the slope's square
    # carries a few ulp of the transmissivity, and the referral
    # (v - offset) / G_v a few ulp of v / G_v (the largest errors over
    # 3 000 random examples: 2.1 eps and 0.81 eps * scale)
    model = chain.readout if matched else chain.mismatched_readout
    slope, variance = model.moments(loss, nbar)
    back_loss, back_nbar = model.invert(slope, variance)
    eps = sys.float_info.epsilon
    assert abs(back_loss - loss) <= 4 * eps
    scale = variance / model.variance_gain + model.channel_input_variance + 0.25 + nbar
    assert abs(back_nbar - nbar) <= 4 * eps * scale


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    loss=st.floats(0.0, 1.0, exclude_max=True),
    n_th=st.one_of(st.just(0.0), st.floats(1e-150, 1e150)),
)
def test_background_coupling_inverts_to_its_environment(loss, n_th):
    # the tap couples in nbar = n_th * loss / 2, correctly rounded, and
    # environment_photons returns n_th to 2 ulp wherever nbar is normal
    channel = d.ChannelParams.from_environment(loss, n_th)
    assert channel.loss == loss
    nbar = channel.noise_photons
    assert abs(Fraction(nbar) - Fraction(n_th) * Fraction(loss) / 2) <= Fraction(math.ulp(nbar)) / 2
    if loss == 0.0:
        assert channel.environment_photons == 0.0
    elif nbar >= sys.float_info.min:
        eps = sys.float_info.epsilon
        assert channel.environment_photons == pytest.approx(n_th, rel=2 * eps, abs=0)
