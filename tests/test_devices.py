"""Device chain modeling: conversions, preparation, readout moments."""

import math
from dataclasses import replace

import numpy as np
import pytest

import mwqkd
from mwqkd import devices as d

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
    st = d.prepared_state(RUN1, basis="q")
    assert st.cov[0, 0] == pytest.approx(RUN1.squeezed_variance)
    assert st.cov[1, 1] == pytest.approx(RUN1.antisqueezed_variance)
    st = d.prepared_state(RUN1, basis="p")
    assert st.cov[1, 1] == pytest.approx(RUN1.squeezed_variance)
    assert st.cov[0, 0] == pytest.approx(RUN1.antisqueezed_variance)


def test_prepared_state_is_physical_mixed():
    from mwqkd.gaussian import symplectic_eigenvalues

    nus = symplectic_eigenvalues(d.prepared_state(RUN1))
    assert nus.min() >= 1.0  # finite squeezing with excess antisqueezing noise


def test_modulated_ensemble_covers_thermal():
    # symbol variance plus squeezed variance equals the anti-squeezed one,
    # so the average output looks isotropic to an eavesdropper
    st = d.channel_input_state(RUN1, basis="q", symbol=0.0)
    total_q = st.cov[0, 0] + RUN1.codebook_variance
    assert total_q == pytest.approx(st.cov[1, 1], rel=1e-12)


def test_channel_input_symbol_displaces_encoding_axis():
    st_q = d.channel_input_state(RUN1, basis="q", symbol=1.3)
    assert st_q.mean[0] == pytest.approx(1.3)
    assert st_q.mean[1] == 0.0
    st_p = d.channel_input_state(RUN1, basis="p", symbol=-0.4)
    assert st_p.mean[1] == pytest.approx(-0.4)


def test_bob_output_matched_moments():
    ch = d.ChannelParams(0.0115, 1.7e-6)
    mean, var = d.bob_output_distribution(RUN1, ch, symbol=1.0)
    assert mean == pytest.approx(8.963721131473314, rel=1e-12)
    assert var == pytest.approx(42.94410209207484, rel=1e-12)
    # slope is sqrt(G (1 - eps)) for the lossless-path presets
    assert mean == pytest.approx(math.sqrt(RUN1.measurement_gain * 0.9885))


def test_bob_output_mismatched_moments():
    ch = d.ChannelParams(0.0115, 1.7e-6)
    mean, var = d.bob_output_distribution(RUN1, ch, symbol=1.0, bob_basis="p")
    assert mean == pytest.approx(0.1102778617832264, rel=1e-12)
    assert var == pytest.approx(23.00301866200614, rel=1e-12)
    # deamplified axis: slope collapses by the gain
    assert mean == pytest.approx(math.sqrt(0.9885 / RUN1.measurement_gain))


def test_bob_output_scales_linearly_in_symbol():
    ch = d.ChannelParams(0.0115, 1.7e-6)
    m1, v1 = d.bob_output_distribution(RUN2, ch, symbol=0.5)
    m2, v2 = d.bob_output_distribution(RUN2, ch, symbol=-1.5)
    assert m2 == pytest.approx(-3.0 * m1)
    assert v2 == pytest.approx(v1)


def test_basis_symmetry_of_readout():
    # p-encoded symbols read along p behave like q-encoded along q
    ch = d.ChannelParams(0.0115, 0.01)
    mq, vq = d.bob_output_distribution(RUN2, ch, symbol=0.8, basis="q", bob_basis="q")
    mp, vp = d.bob_output_distribution(RUN2, ch, symbol=0.8, basis="p", bob_basis="p")
    assert mp == pytest.approx(mq)
    assert vp == pytest.approx(vq)


def test_response_and_noise_agrees_with_distribution():
    ch = d.ChannelParams(0.0115, 0.004)
    for matched, bob_basis in ((True, "q"), (False, "p")):
        k, v = d.response_and_noise(RUN2, ch, matched=matched)
        mean, var = d.bob_output_distribution(RUN2, ch, symbol=1.0, bob_basis=bob_basis)
        assert k == pytest.approx(mean, rel=1e-12)
        assert v == pytest.approx(var, rel=1e-12)


def test_lossless_channel_still_adds_its_noise():
    # zero loss is the loss -> 0+ limit at fixed nbar: the record keeps the
    # coupled noise, in the closed form and in the covariance oracle alike
    for nbar in (0.0, 0.05):
        lossless = d.ChannelParams(0.0, nbar)
        for matched, bob_basis in ((True, "q"), (False, "p")):
            k, v = d.response_and_noise(RUN2, lossless, matched=matched)
            mean, var = d.bob_output_distribution(RUN2, lossless, 1.0, "q", bob_basis)
            assert k == pytest.approx(mean, rel=1e-12)
            assert v == pytest.approx(var, rel=1e-12)
            near = d.response_and_noise(RUN2, d.ChannelParams(1e-12, nbar), matched=matched)
            assert v == pytest.approx(near[1], rel=1e-9)
            # a subnormal loss is lossless too: 2 nbar / loss would overflow
            assert d.response_and_noise(RUN2, d.ChannelParams(5e-324, nbar), matched) == (k, v)
    model = RUN2.readout
    quiet, loud = (model.moments(0.0, nbar)[1] for nbar in (0.0, 0.05))
    assert loud == pytest.approx(quiet + model.variance_gain * 0.05, rel=1e-12)
    # a noise grid at zero loss gets each point's float bits
    grid = model.moments(0.0, np.array([0.0, 0.05]))[1]
    assert grid.tolist() == [quiet, loud]


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
            mean, var = d.bob_output_distribution(chain, ch, 1.0, "q", bob_basis)
            assert model.slope_gain * (1 - eps) == pytest.approx(mean * mean, rel=1e-10)
            v_channel_out = (1 - eps) * model.channel_input_variance + eps * (
                1 + 2 * ch.environment_photons
            ) * 0.25
            assert model.variance_gain * v_channel_out + model.variance_offset == (
                pytest.approx(var, rel=1e-10)
            )
    # the orthogonal quadrature enters the channel anti-squeezed
    model = d.trusted_readout_constants(chain)
    state = d.channel_input_state(chain, "q")
    assert model.channel_input_variance == pytest.approx(state.cov[0, 0], rel=1e-12)
    assert model.orthogonal_input_variance == pytest.approx(state.cov[1, 1], rel=1e-12)


def test_noise_raises_output_variance_only():
    quiet = d.ChannelParams(0.0115, 0.0)
    loud = d.ChannelParams(0.0115, 0.05)
    kq, vq = d.response_and_noise(RUN1, quiet)
    kl, vl = d.response_and_noise(RUN1, loud)
    assert kq == kl
    assert vl > vq
