"""Gaussian bosonic states as mean vectors and covariance matrices.

Conventions
-----------
Quadratures are ordered ``q1, p1, ..., qM, pM``. The vacuum quadrature
variance is 0.25 (commutation convention ``[q, ip] = 1/2``). Symplectic
eigenvalues are reported vacuum-normalized, so ``nu = 1`` for every pure
mode; the conversion from 0.25-variance units is the factor 4 inside
:func:`symplectic_eigenvalues`.

All operations are pure functions that return new states; inputs are never
mutated. Covariances are re-symmetrized after every operation to contain
floating-point drift.

The vacuum variance, g(nu) (:func:`entropy_of_nu`) and the absolute
physicality tolerance are shared with the numpy-free runtime modules and
defined there (:mod:`mwqkd.devices`, :mod:`mwqkd.security`); they are
re-exported here.

This module is the oracle the closed forms are tested against, and no
command runs it. :func:`prepared_state`, :func:`channel_input_state` and
:func:`bob_output_distribution` build the trusted device chain of
:mod:`mwqkd.devices` step by step from the operations above.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .devices import VACUUM_VARIANCE, ChannelParams, DeviceChainParams
from .errors import PhysicalityError
from .security import PHYSICALITY_TOL, entropy_of_nu

# For very hot states (covariance elements thousands of vacuum units) the
# eigensolve below carries absolute error proportional to the matrix norm,
# so its floor loosens with scale rather than rejecting physical states.
# chi's closed form in `security` needs no such slack.
PHYSICALITY_TOL_REL = 1e-11

QUADRATURES = ("q", "p")

# The device-chain oracle treats a channel loss below this, the smallest
# normal float, as lossless: the loss -> 0+ limit at fixed coupled noise
# nbar, where the environment's 2 nbar / loss photons can overflow.
LOSSLESS_BELOW = sys.float_info.min


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.T)


def _quad_indices(mode: int) -> tuple[int, int]:
    """Return the (q, p) row indices of a mode."""
    return 2 * mode, 2 * mode + 1


def symplectic_form(modes: int) -> np.ndarray:
    """The block-diagonal form Omega with [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * modes, 2 * modes))
    for m in range(modes):
        q, p = _quad_indices(m)
        omega[q, p] = 1.0
        omega[p, q] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of M bosonic modes.

    Parameters
    ----------
    mean : array_like, shape (2M,)
        Quadrature expectation values in q1, p1, ..., qM, pM order.
    cov : array_like, shape (2M, 2M)
        Symmetric covariance matrix in quadrature-variance units
        (vacuum variance 0.25).

    Shape and symmetry are validated at construction; physicality
    (uncertainty bound) is checked lazily by
    :func:`symplectic_eigenvalues`, which every entropy computation goes
    through.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"inconsistent shapes: mean {mean.shape}, cov {cov.shape}"
            )
        if mean.size == 0 or mean.size % 2 != 0:
            raise ValueError("mean length must be 2M with M >= 1")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ValueError("covariance matrix is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _symmetrize(cov))

    @property
    def modes(self) -> int:
        return self.mean.size // 2


def make_vacuum(modes: int) -> GaussianState:
    """Vacuum state of `modes` modes: zero mean, covariance 0.25*I."""
    if modes < 1:
        raise ValueError("modes must be >= 1")
    dim = 2 * modes
    return GaussianState(np.zeros(dim), VACUUM_VARIANCE * np.eye(dim))


def make_thermal(n_photons: float) -> GaussianState:
    """Single-mode thermal state with occupation `n_photons`.

    Both quadrature variances equal (1 + 2n) * 0.25.
    """
    if not 0.0 <= n_photons < math.inf:
        raise ValueError("n_photons must be finite and >= 0")
    var = (1.0 + 2.0 * n_photons) * VACUUM_VARIANCE
    return GaussianState(np.zeros(2), var * np.eye(2))


def two_mode_squeezed_thermal(n_thermal: float) -> GaussianState:
    """Two-mode squeezed state whose marginals are thermal(n_thermal).

    Block form 0.25 * [[v*I, c*Z], [c*Z, v*I]] with v = 1 + 2n,
    c = sqrt(v^2 - 1) and Z = diag(1, -1). The joint state is pure
    (both symplectic eigenvalues 1) for every finite n_thermal >= 0.
    """
    if not 0.0 <= n_thermal < math.inf:
        raise ValueError("n_thermal must be finite and >= 0")
    v = 1.0 + 2.0 * n_thermal
    c = math.sqrt(v * v - 1.0)
    cov = VACUUM_VARIANCE * np.array(
        [
            [v, 0.0, c, 0.0],
            [0.0, v, 0.0, -c],
            [c, 0.0, v, 0.0],
            [0.0, -c, 0.0, v],
        ]
    )
    return GaussianState(np.zeros(4), cov)


def tensor(*states: GaussianState) -> GaussianState:
    """Join independent states into one composite state."""
    if not states:
        raise ValueError("tensor needs at least one state")
    mean = np.concatenate([s.mean for s in states])
    dim = mean.size
    cov = np.zeros((dim, dim))
    offset = 0
    for s in states:
        d = s.mean.size
        cov[offset : offset + d, offset : offset + d] = s.cov
        offset += d
    return GaussianState(mean, cov)


def partial_trace(state: GaussianState, keep: tuple[int, ...]) -> GaussianState:
    """Reduced state of the modes listed in `keep` (in the given order)."""
    if len(keep) == 0:
        raise ValueError("keep must list at least one mode")
    if len(set(keep)) != len(keep) or any(
        m < 0 or m >= state.modes for m in keep
    ):
        raise ValueError(f"invalid mode selection {keep!r}")
    idx = np.concatenate([_quad_indices(m) for m in keep])
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


def apply_squeeze(
    state: GaussianState, r: float, angle: float = 0.0, mode: int = 0
) -> GaussianState:
    """Single-mode squeeze by factor e^{-2r} along the axis at `angle`.

    The symplectic is R(angle) diag(e^-r, e^r) R(angle)^T where R is the
    rotation by `angle` from the +q axis; `angle` is the orientation of
    the squeezed axis. r may be negative (squeezes the orthogonal axis).
    Pure states remain pure.
    """
    if not (math.isfinite(r) and math.isfinite(angle)):
        raise ValueError("r and angle must be finite")
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    local = rot @ np.diag([math.exp(-r), math.exp(r)]) @ rot.T
    full = np.eye(2 * state.modes)
    q, p = _quad_indices(mode)
    full[q : p + 1, q : p + 1] = local
    return GaussianState(full @ state.mean, _symmetrize(full @ state.cov @ full.T))


def apply_beamsplitter(
    state: GaussianState, transmissivity: float, modes: tuple[int, int] = (0, 1)
) -> GaussianState:
    """Two-mode beamsplitter with the given power transmissivity.

    Sign convention: a' = sqrt(tau) a + sqrt(1-tau) b and
    b' = -sqrt(1-tau) a + sqrt(tau) b, applied identically to q and p.
    transmissivity=0 therefore swaps the modes up to a sign on the
    reflected arm.
    """
    tau = float(transmissivity)
    if not 0.0 <= tau <= 1.0:
        raise ValueError("transmissivity must be in [0, 1]")
    a, b = modes
    if a == b or not (0 <= a < state.modes and 0 <= b < state.modes):
        raise ValueError(f"invalid mode pair {modes!r}")
    t = math.sqrt(tau)
    rfl = math.sqrt(1.0 - tau)
    full = np.eye(2 * state.modes)
    for qa, qb in zip(_quad_indices(a), _quad_indices(b)):
        full[qa, qa] = t
        full[qa, qb] = rfl
        full[qb, qa] = -rfl
        full[qb, qb] = t
    return GaussianState(full @ state.mean, _symmetrize(full @ state.cov @ full.T))


def apply_phase_sensitive_amp(
    state: GaussianState,
    gain: float,
    quadrature: str = "q",
    added_noise: np.ndarray | None = None,
    mode: int = 0,
) -> GaussianState:
    """Degenerate parametric gain on one quadrature of one mode.

    The 2x2 covariance block transforms as V' = J^T V J + N with
    J = diag(sqrt(G), 1/sqrt(G)) for q amplification (swapped for p) and
    N the optional symmetric PSD `added_noise`. The diagonal elements are
    computed as G*V_11 + N_11 and V_22/G + N_22 directly so those
    identities hold exactly in floating point; the mean scales by J.
    gain=1 with a nonzero N models a unit-gain stage that only adds noise.
    """
    g = float(gain)
    if not g >= 1.0:
        raise ValueError("gain must be >= 1 (use apply_loss to attenuate)")
    if quadrature not in QUADRATURES:
        raise ValueError("quadrature must be 'q' or 'p'")
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    if added_noise is None:
        noise = np.zeros((2, 2))
    else:
        noise = np.asarray(added_noise, dtype=float)
        if noise.shape != (2, 2) or np.abs(noise - noise.T).max() > 1e-12 * max(
            1.0, float(np.abs(noise).max())
        ):
            raise ValueError("added_noise must be a symmetric 2x2 matrix")
        if np.linalg.eigvalsh(noise).min() < -1e-12:
            raise ValueError("added_noise must be positive semidefinite")

    root = math.sqrt(g)
    q, p = _quad_indices(mode)
    up, down = (q, p) if quadrature == "q" else (p, q)

    cov = state.cov.copy()
    # Cross-covariances with untouched quadratures scale with the mean.
    scale = np.ones(2 * state.modes)
    scale[up] = root
    scale[down] = 1.0 / root
    cov *= np.outer(scale, scale)
    # Overwrite the target block with the exact element identities.
    cov[up, up] = g * state.cov[up, up]
    cov[down, down] = state.cov[down, down] / g
    cov[up, down] = state.cov[up, down]
    cov[down, up] = state.cov[down, up]
    cov[q : p + 1, q : p + 1] += noise  # N is given in (q, p) basis

    mean = state.mean.copy()
    mean[up] *= root
    mean[down] /= root
    return GaussianState(mean, _symmetrize(cov))


def apply_loss(
    state: GaussianState,
    loss: float,
    environment_photons: float = 0.0,
    mode: int = 0,
) -> GaussianState:
    """Couple one mode to a thermal environment through a loss tap.

    Equivalent to a beamsplitter of transmissivity 1-loss against a fresh
    thermal(environment_photons) ancilla with the ancilla traced out:
    the mode block becomes (1-loss)*V + loss*(1+2n)*0.25*I and the mean
    scales by sqrt(1-loss).
    """
    eps = float(loss)
    if not 0.0 <= eps <= 1.0:
        raise ValueError("loss must be in [0, 1]")
    if not 0.0 <= environment_photons < math.inf:
        raise ValueError("environment_photons must be finite and >= 0")
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    t = math.sqrt(1.0 - eps)
    q, p = _quad_indices(mode)
    scale = np.ones(2 * state.modes)
    scale[q] = t
    scale[p] = t
    cov = state.cov * np.outer(scale, scale)
    env_var = eps * (1.0 + 2.0 * environment_photons) * VACUUM_VARIANCE
    block = (1.0 - eps) * state.cov[q : p + 1, q : p + 1] + env_var * np.eye(2)
    cov[q : p + 1, q : p + 1] = block
    mean = state.mean.copy()
    mean[q] *= t
    mean[p] *= t
    return GaussianState(mean, _symmetrize(cov))


def displace(
    state: GaussianState, amplitude: float, quadrature: str = "q", mode: int = 0
) -> GaussianState:
    """Shift the mean of one quadrature; the covariance is unchanged."""
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if quadrature not in QUADRATURES:
        raise ValueError("quadrature must be 'q' or 'p'")
    if not 0 <= mode < state.modes:
        raise ValueError("mode index out of range")
    q, p = _quad_indices(mode)
    mean = state.mean.copy()
    mean[q if quadrature == "q" else p] += amplitude
    return GaussianState(mean, state.cov)


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Vacuum-normalized symplectic spectrum, sorted descending.

    Computed as the distinct moduli of the eigenvalues of 4i*Omega*V
    (the factor 4 converts 0.25-variance units so that nu = 1 is the
    vacuum). Raises PhysicalityError if any nu < 1 - 1e-9.
    """
    m = state.modes
    omega = symplectic_form(m)
    vals = np.abs(np.linalg.eigvals(4j * omega @ state.cov))
    vals.sort()
    nu = vals[::2][::-1].copy()  # eigenvalues come in +/- pairs
    scale = float(np.abs(state.cov).max()) / VACUUM_VARIANCE
    tol = max(PHYSICALITY_TOL, PHYSICALITY_TOL_REL * scale)
    if nu.min() < 1.0 - tol:
        raise PhysicalityError(
            f"covariance violates the uncertainty bound: min nu = {nu.min():.12g}"
        )
    return nu


def von_neumann_entropy(state: GaussianState) -> float:
    """Entropy in bits: the sum of g(nu_i) over the symplectic spectrum."""
    return float(sum(entropy_of_nu(float(nu)) for nu in symplectic_eigenvalues(state)))


def condition_on_classical_gaussian(
    joint: GaussianState,
    response: np.ndarray,
    modulation_variance: float,
    keep: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Covariances of a subsystem with and without knowledge of a classical
    Gaussian displacement.

    `joint` is the circuit output conditioned on one displacement value
    (its covariance does not depend on that value), `response` is the
    derivative of the full output mean with respect to the displacement
    amplitude (length 2M), and `modulation_variance` is the variance of
    the Gaussian ensemble of amplitudes. Returns the pair
    (conditional_cov, unconditional_cov) restricted to the modes in
    `keep`: the unconditional covariance adds the modulation propagated
    through the recorded linear response,
    uncond = cond + sigma^2 * t t^T with t the restricted response.
    """
    sigma2 = float(modulation_variance)
    if not sigma2 >= 0.0:
        raise ValueError("modulation_variance must be >= 0")
    response = np.asarray(response, dtype=float)
    if response.shape != joint.mean.shape:
        raise ValueError("response must match the joint mean length")
    idx = np.concatenate([_quad_indices(m) for m in keep])
    conditional = joint.cov[np.ix_(idx, idx)].copy()
    t = response[idx]
    unconditional = conditional + sigma2 * np.outer(t, t)
    return conditional, _symmetrize(unconditional)


def prepared_state(chain: DeviceChainParams, basis: str = "q") -> GaussianState:
    """Conditional (unmodulated) state leaving the source.

    An impure squeezed state with the squeezed variance along `basis` and
    the anti-squeezed variance along the orthogonal quadrature, built as a
    thermal state squeezed along the encoding axis.
    """
    if basis not in QUADRATURES:
        raise ValueError("basis must be 'q' or 'p'")
    ss = chain.squeezed_variance
    aa = chain.antisqueezed_variance
    # thermal occupation whose symmetric variance is the geometric mean;
    # a pure state (equal levels) can round a few ulp below zero
    n0 = max(0.5 * (4.0 * math.sqrt(ss * aa) - 1.0), 0.0)
    r = 0.25 * math.log(aa / ss)
    angle = 0.0 if basis == "q" else 0.5 * math.pi
    return apply_squeeze(make_thermal(n0), r, angle)


def channel_input_state(
    chain: DeviceChainParams, basis: str = "q", symbol: float = 0.0
) -> GaussianState:
    """State entering the untrusted channel for one encoded symbol."""
    state = prepared_state(chain, basis)
    state = apply_loss(state, chain.path_losses[0], chain.path_environment_photons[0])
    state = displace(state, float(symbol), basis)
    tap = 1.0 - chain.displacement_coupler_transmissivity
    if tap > 0.0:
        state = apply_loss(state, tap)
    return apply_loss(state, chain.path_losses[1], chain.path_environment_photons[1])


def bob_output_distribution(
    chain: DeviceChainParams,
    channel: ChannelParams,
    symbol: float,
    basis: str = "q",
    bob_basis: str = "q",
) -> tuple[float, float]:
    """Mean and variance of the receiver's record of one symbol.

    The receiver amplifies `bob_basis`; the returned marginal follows the
    symbol's encoding quadrature `basis`. When the bases match that is
    the amplified axis (mean scaled by sqrt(G * transmissivities)); when
    they differ it is the deamplified axis, whose mean is suppressed by
    1/sqrt(G), which is what makes mismatched records carry almost no
    information at high gain. The variance is independent of `symbol`.
    This step-by-step covariance pipeline is the test oracle of
    :func:`mwqkd.devices.response_and_noise`.
    """
    if bob_basis not in QUADRATURES:
        raise ValueError("bob_basis must be 'q' or 'p'")
    state = channel_input_state(chain, basis, symbol)
    if channel.loss < LOSSLESS_BELOW:  # the limit adds nbar to each quadrature
        state = apply_phase_sensitive_amp(
            state, 1.0, bob_basis, added_noise=channel.noise_photons * np.eye(2)
        )
    else:
        state = apply_loss(state, channel.loss, channel.environment_photons)
    state = apply_loss(state, chain.path_losses[2], chain.path_environment_photons[2])
    nj = chain.amp_noise_photons
    if nj > 0.0:
        state = apply_phase_sensitive_amp(
            state, 1.0, bob_basis, added_noise=0.5 * nj * np.eye(2)
        )
    state = apply_phase_sensitive_amp(state, chain.measurement_gain, bob_basis)
    state = apply_loss(state, chain.path_losses[3], chain.path_environment_photons[3])
    nh = chain.hemt_noise_photons
    if nh > 0.0:
        state = apply_phase_sensitive_amp(
            state, 1.0, "q", added_noise=0.5 * nh * np.eye(2)
        )
    idx = 0 if basis == "q" else 1
    return float(state.mean[idx]), float(state.cov[idx, idx])
