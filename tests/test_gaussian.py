"""Covariance-level behavior: ops, symplectic spectra, entropies."""

import math

import numpy as np
import pytest

from mwqkd import gaussian as g
from mwqkd.config import RUN1_CHAIN
from mwqkd.devices import ChannelParams
from mwqkd.errors import PhysicalityError


def test_vacuum_state():
    st = g.make_vacuum(2)
    assert st.modes == 2
    assert np.array_equal(st.mean, np.zeros(4))
    assert np.array_equal(st.cov, 0.25 * np.eye(4))
    assert g.von_neumann_entropy(st) == 0.0


def test_thermal_state_entropy_is_g_of_nu():
    # nbar = 1 gives nu = 3 and g(3) = 2 log2 2 - 1 log2 1 = 2 bits
    st = g.make_thermal(1.0)
    assert g.symplectic_eigenvalues(st) == pytest.approx([3.0])
    assert g.von_neumann_entropy(st) == pytest.approx(2.0, abs=1e-12)


def test_thermal_negative_occupation_rejected():
    with pytest.raises(ValueError):
        g.make_thermal(-0.1)


def test_state_requires_symmetric_covariance():
    cov = 0.25 * np.eye(2)
    cov[0, 1] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        g.GaussianState(np.zeros(2), cov)


def test_state_shape_validation():
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(3), 0.25 * np.eye(3))
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), 0.25 * np.eye(4))


def test_tensor_and_partial_trace_roundtrip():
    a = g.make_thermal(0.3)
    b = g.make_thermal(1.7)
    joint = g.tensor(a, b)
    assert joint.modes == 2
    back = g.partial_trace(joint, keep=(1,))
    assert np.array_equal(back.cov, b.cov)
    assert np.array_equal(back.mean, b.mean)


def test_squeeze_scales_variances():
    r = 0.4
    st = g.apply_squeeze(g.make_vacuum(1), r)
    assert st.cov[0, 0] == pytest.approx(0.25 * math.exp(-2 * r))
    assert st.cov[1, 1] == pytest.approx(0.25 * math.exp(2 * r))
    # squeezing is unitary: still a pure state
    assert g.von_neumann_entropy(st) == pytest.approx(0.0, abs=1e-12)


def test_squeeze_angle_rotates_squeezed_axis():
    st = g.apply_squeeze(g.make_vacuum(1), 0.5, angle=math.pi / 2)
    assert st.cov[1, 1] < 0.25 < st.cov[0, 0]


def test_beamsplitter_mixes_two_thermals():
    # tau * n1 + (1 - tau) * n2 lands on output mode 0
    tau = 0.3
    joint = g.tensor(g.make_thermal(2.0), g.make_thermal(0.5))
    out = g.apply_beamsplitter(joint, tau)
    want = 0.25 * (1 + 2 * (tau * 2.0 + (1 - tau) * 0.5))
    assert out.cov[0, 0] == pytest.approx(want)
    # total photon number is conserved
    n_tot = (np.trace(out.cov) - 4 * 0.25) / (4 * 0.25) * 2
    assert n_tot == pytest.approx(2.5 * 2)


def test_beamsplitter_transmissivity_range():
    joint = g.make_vacuum(2)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            g.apply_beamsplitter(joint, bad)


def test_loss_pulls_toward_environment():
    st = g.apply_loss(g.make_thermal(3.0), 1.0, environment_photons=0.2)
    assert np.allclose(st.cov, 0.25 * 1.4 * np.eye(2))
    st = g.apply_loss(g.make_thermal(3.0), 0.0)
    assert np.allclose(st.cov, 0.25 * 7.0 * np.eye(2))


def test_loss_on_one_mode_scales_cross_covariance():
    joint = g.two_mode_squeezed_thermal(0.8)
    eps = 0.3
    out = g.apply_loss(joint, eps, mode=0)
    assert out.cov[0, 2] == pytest.approx(math.sqrt(1 - eps) * joint.cov[0, 2])
    assert out.cov[2, 2] == pytest.approx(joint.cov[2, 2])


def test_amp_diagonal_identities_are_exact():
    st = g.apply_squeeze(g.make_thermal(0.4), 0.3, angle=0.7)
    gain = 81.2830516164099
    out = g.apply_phase_sensitive_amp(st, gain)
    # the gain matrix acts on the block elementwise
    assert out.cov[0, 0] == gain * st.cov[0, 0]
    assert out.cov[1, 1] == st.cov[1, 1] / gain
    assert out.cov[0, 1] == st.cov[0, 1]


def test_amp_added_noise_sits_in_qp_basis():
    noise = np.diag([0.3, 0.7])
    st = g.make_vacuum(1)
    out = g.apply_phase_sensitive_amp(st, 4.0, quadrature="p", added_noise=noise)
    assert out.cov[0, 0] == pytest.approx(0.25 / 4.0 + 0.3)
    assert out.cov[1, 1] == pytest.approx(0.25 * 4.0 + 0.7)


def test_amp_rejects_attenuation_and_bad_noise():
    st = g.make_vacuum(1)
    with pytest.raises(ValueError, match="gain"):
        g.apply_phase_sensitive_amp(st, 0.5)
    with pytest.raises(ValueError):
        g.apply_phase_sensitive_amp(st, 2.0, added_noise=np.diag([-0.1, 0.0]))


def test_amp_scales_mean():
    st = g.displace(g.make_vacuum(1), 1.5, "q")
    out = g.apply_phase_sensitive_amp(st, 9.0)
    assert out.mean[0] == pytest.approx(4.5)
    assert out.mean[1] == 0.0


def test_displace_leaves_covariance_alone():
    st = g.make_thermal(0.9)
    out = g.displace(st, -2.0, "p")
    assert np.array_equal(out.cov, st.cov)
    assert out.mean[1] == -2.0


def test_two_mode_squeezed_thermal_is_pure_with_thermal_margins():
    nbar = 0.7
    tm = g.two_mode_squeezed_thermal(nbar)
    nus = g.symplectic_eigenvalues(tm)
    assert nus == pytest.approx([1.0, 1.0], abs=1e-9)
    assert g.von_neumann_entropy(tm) == pytest.approx(0.0, abs=1e-9)
    red = g.partial_trace(tm, keep=(0,))
    assert np.allclose(red.cov, g.make_thermal(nbar).cov)


def test_unphysical_covariance_raises():
    squeezed_both = g.GaussianState(np.zeros(2), 0.1 * np.eye(2))
    with pytest.raises(PhysicalityError):
        g.symplectic_eigenvalues(squeezed_both)


def test_symplectic_spectrum_of_direct_sum():
    joint = g.tensor(g.make_thermal(1.0), g.make_thermal(0.25))
    assert g.symplectic_eigenvalues(joint) == pytest.approx([3.0, 1.5])


def test_entropy_series_branch_agrees_with_log1p_oracle():
    # g must track an independently computed (n+1)log2(n+1) - n log2 n
    # with log1p for the tiny n, down to the smallest n (g(1 + 1e-13) is
    # 2.3e-12 bits)
    for nu in (1.0 + 2.2e-16, 1.0 + 1e-13, 1.0 + 5e-9, 1.0 + 9.9e-9, 1.0 + 1.01e-8,
               1.0 + 2e-8, 1.0 + 1e-6):
        n = 0.5 * (nu - 1.0)
        want = (n + 1.0) * math.log1p(n) / math.log(2.0) - n * math.log2(n)
        assert g.entropy_of_nu(nu) == pytest.approx(want, abs=1e-12)
    assert g.entropy_of_nu(1.0) == 0.0
    assert g.entropy_of_nu(1.0 - 5e-13) == 0.0


def test_conditioning_adds_rank_one_modulation():
    joint = g.tensor(g.make_thermal(0.2), g.make_thermal(0.1))
    response = np.array([0.6, 0.0, -0.3, 0.0])
    sigma2 = 1.2
    cond, uncond = g.condition_on_classical_gaussian(joint, response, sigma2, keep=(0, 1))
    assert np.array_equal(cond, joint.cov)
    t = response
    assert np.allclose(uncond, cond + sigma2 * np.outer(t, t))


def test_conditioning_restricts_to_kept_modes():
    joint = g.tensor(g.make_thermal(0.2), g.make_thermal(0.1))
    response = np.array([0.6, 0.0, -0.3, 0.0])
    cond, uncond = g.condition_on_classical_gaussian(joint, response, 1.0, keep=(1,))
    assert cond.shape == (2, 2)
    assert uncond[0, 0] == pytest.approx(cond[0, 0] + 0.09)


def test_conditioning_validates_inputs():
    joint = g.make_vacuum(1)
    with pytest.raises(ValueError):
        g.condition_on_classical_gaussian(joint, np.zeros(4), 1.0, keep=(0,))
    with pytest.raises(ValueError):
        g.condition_on_classical_gaussian(joint, np.zeros(2), -1.0, keep=(0,))


def test_random_op_chains_stay_physical():
    rng = np.random.default_rng(np.random.Philox(key=11))
    for _ in range(300):
        st = g.make_thermal(float(rng.uniform(0.0, 2.0)))
        st = g.tensor(st, g.make_thermal(float(rng.uniform(0.0, 2.0))))
        for _ in range(int(rng.integers(1, 5))):
            pick = int(rng.integers(0, 4))
            mode = int(rng.integers(0, 2))
            if pick == 0:
                st = g.apply_squeeze(st, float(rng.uniform(-0.8, 0.8)), mode=mode)
            elif pick == 1:
                st = g.apply_beamsplitter(st, float(rng.uniform(0.1, 0.9)))
            elif pick == 2:
                st = g.apply_loss(st, float(rng.uniform(0.0, 0.8)),
                                  environment_photons=float(rng.uniform(0.0, 1.0)),
                                  mode=mode)
            else:
                st = g.apply_phase_sensitive_amp(st, float(rng.uniform(1.0, 50.0)),
                                                 mode=mode)
        assert g.symplectic_eigenvalues(st).min() >= 1.0 - 1e-9


def test_entropy_invariant_under_symplectic_unitaries():
    rng = np.random.default_rng(np.random.Philox(key=12))
    for _ in range(50):
        st = g.tensor(g.make_thermal(float(rng.uniform(0.1, 2.0))),
                      g.make_thermal(float(rng.uniform(0.1, 2.0))))
        before = g.von_neumann_entropy(st)
        st = g.apply_squeeze(st, float(rng.uniform(-0.9, 0.9)),
                             angle=float(rng.uniform(0.0, math.pi)))
        st = g.apply_beamsplitter(st, float(rng.uniform(0.05, 0.95)))
        st = g.displace(st, float(rng.uniform(-2, 2)), "q", mode=1)
        assert g.von_neumann_entropy(st) == pytest.approx(before, abs=1e-9)


_VACUUM, _PAIR = g.make_vacuum(1), g.make_vacuum(2)
_ANY_QUADRATURE = "quadrature must be 'q' or 'p'"
_OUT_OF_RANGE = "mode index out of range"

# The oracle's refusals: call -> its ValueError's message. An infinite
# photon number is refused before numpy turns it into inf - inf.
_ORACLE_REFUSALS = {
    "make_vacuum-0": (lambda: g.make_vacuum(0), "modes must be >= 1"),
    "make_thermal-inf": (lambda: g.make_thermal(math.inf), "n_photons must be finite and >= 0"),
    "two_mode_squeezed_thermal-negative": (
        lambda: g.two_mode_squeezed_thermal(-1.0), "n_thermal must be finite and >= 0"),
    "two_mode_squeezed_thermal-inf": (
        lambda: g.two_mode_squeezed_thermal(math.inf), "n_thermal must be finite and >= 0"),
    "tensor-empty": (lambda: g.tensor(), "tensor needs at least one state"),
    "partial_trace-empty": (
        lambda: g.partial_trace(_PAIR, ()), "keep must list at least one mode"),
    "partial_trace-repeated": (
        lambda: g.partial_trace(_PAIR, (1, 1)), "invalid mode selection (1, 1)"),
    "apply_squeeze-inf": (lambda: g.apply_squeeze(_VACUUM, math.inf), "r and angle must be finite"),
    "apply_squeeze-mode": (lambda: g.apply_squeeze(_VACUUM, 0.1, mode=1), _OUT_OF_RANGE),
    "apply_beamsplitter-repeated": (
        lambda: g.apply_beamsplitter(_PAIR, 0.5, (0, 0)), "invalid mode pair (0, 0)"),
    "apply_phase_sensitive_amp-x": (
        lambda: g.apply_phase_sensitive_amp(_VACUUM, 2.0, "x"), _ANY_QUADRATURE),
    "apply_phase_sensitive_amp-mode": (
        lambda: g.apply_phase_sensitive_amp(_VACUUM, 2.0, mode=1), _OUT_OF_RANGE),
    "apply_phase_sensitive_amp-asymmetric": (
        lambda: g.apply_phase_sensitive_amp(_VACUUM, 2.0, added_noise=[[1.0, 0.5], [0.0, 1.0]]),
        "added_noise must be a symmetric 2x2 matrix"),
    "apply_loss-1.5": (lambda: g.apply_loss(_VACUUM, 1.5), "loss must be in [0, 1]"),
    "apply_loss-negative": (
        lambda: g.apply_loss(_VACUUM, 0.5, -1.0), "environment_photons must be finite and >= 0"),
    "apply_loss-inf": (
        lambda: g.apply_loss(_VACUUM, 0.5, environment_photons=math.inf),
        "environment_photons must be finite and >= 0"),
    "apply_loss-mode": (lambda: g.apply_loss(_VACUUM, 0.5, mode=1), _OUT_OF_RANGE),
    "displace-inf": (lambda: g.displace(_VACUUM, math.inf), "amplitude must be finite"),
    "displace-x": (lambda: g.displace(_VACUUM, 1.0, "x"), _ANY_QUADRATURE),
    "displace-mode": (lambda: g.displace(_VACUUM, 1.0, mode=1), _OUT_OF_RANGE),
    "prepared_state-x": (lambda: g.prepared_state(RUN1_CHAIN, "x"), "basis must be 'q' or 'p'"),
    "bob_output_distribution-x": (
        lambda: g.bob_output_distribution(RUN1_CHAIN, ChannelParams(0.01), 0.0, bob_basis="x"),
        "bob_basis must be 'q' or 'p'"),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_REFUSALS))
def test_oracle_refusals_name_what_they_refuse(case):
    call, message = _ORACLE_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
