"""Security quantities: SNR, mutual information, the eavesdropper's Holevo
bound under a collective Gaussian attack, asymptotic secret key, and the
finite-size composite bound with worst-case parameter estimation.

Threat model: the eavesdropper purifies only the untrusted channel (its
loss tap and coupled thermal noise); preparation impurity and the whole
detection chain are trusted. Reconciliation is direct: the eavesdropper's
information is bounded conditioned on the sender's classical symbols.

Each formula is written once and evaluates either one parameter point on
Python floats (root finders, single reports) or a whole noise grid on
numpy arrays (:func:`sweep_noise`), with bit-identical results per point.
Only the array path imports numpy, so scalar callers never load it. chi
alone has two implementations, chosen by input kind: the ops formula
(:func:`_chi`) on a grid, and :class:`KeyEvaluator`, the same operations
in straight-line float code, at one point. Each is the faster one on its
own input: a crossing's key evaluation takes about 2.4 us on the
evaluator against 5.3 us through the ops formula on floats, while chi
over a 401-point grid takes 0.77 ms as a loop of the evaluator against
0.45 ms as one array call.
``test_sweep_noise_matches_scalar_reports_bitwise`` ties them, bit for
bit and error for error, over the whole channel domain.

chi has one closed form at every channel loss in [0, 1), loss 0 included:
the environment's symplectic invariants written in m = loss * v = loss +
4 nbar, which stays finite as the loss vanishes at fixed coupled noise
nbar. It agrees with a 50-digit mpmath chi to 1.3e-13 bits from loss 0 to
0.999 and for nbar up to 1e40, and to 1.5e-14 bits for chains squeezed up
to 150 dB at losses up to 1 - 1e-12. g(nu) is one cancellation-free form,
within 2.5e-16 relative of mpmath for nu up to 1e300.

Reports have one evaluation, ``_report``: SNR, I_AB, chi and the composite
bound at a point or over a grid, inputs echoed. :func:`build_report` (one
point), :func:`sweep_noise` (a noise grid) and :func:`composite_key` (the
report's ``finite_size``) check their arguments and call it; the
finite-size settings, their defaults and their domains are those of
:func:`key_settings`, whose keyword-only parameters are the settings a
configuration may leave unset. The EC block's fraction is checked by
:func:`ec_block` alone, and e_ec by one check that :func:`key_settings`
and :func:`confidence_w` share.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from types import SimpleNamespace

from .devices import ChannelEstimate, ChannelParams, DeviceChainParams, check_channel
from .errors import InsufficientDataError, PhysicalityError

DEFAULT_CORRECTNESS_EPSILON = 1e-10  # e_ec, failure bound on estimation confidence
SMOOTHING_EPSILON = 1e-10
PA_EPSILON = 1e-10

# Tolerance on nu >= 1 after long operation chains; accumulated rounding in
# deep compositions can push a pure symplectic eigenvalue a few 1e-12 below 1.
PHYSICALITY_TOL = 1e-9

_LN2 = math.log(2.0)


def entropy_of_nu(nu: float) -> float:
    """g(nu) in bits: ((nu+1)/2)log2((nu+1)/2) - ((nu-1)/2)log2((nu-1)/2),
    written as (log(1 + n) + n log(1 + 1/n)) / ln 2 with n = (nu - 1)/2,
    which nothing cancels at any n > 0."""
    if nu <= 1.0:  # a pure mode, or one rounded just below it
        return 0.0
    n = 0.5 * (nu - 1.0)
    return (math.log1p(n) + n * math.log1p(1.0 / n)) / _LN2


# The operations the formulas below use beyond + - * /, on Python floats
# (one point: root finders, single reports) and on numpy arrays (a noise
# grid). Squares are written as products, which numpy and Python both
# round correctly. The array log2, hypot and g(nu) are `np.frompyfunc`
# ufuncs of the same `math`-based functions, which get each element of the
# broadcast arguments as a Python float; sqrt is correctly rounded either
# way; maximum/minimum keep the builtins' tie rule (the first argument
# unless the second is strictly larger or smaller). So a grid point gets
# exactly the bits the float path gives it. `chi_of(chain)` is the chain's
# chi at (loss, nbar): :class:`KeyEvaluator` on floats, :func:`_chi` on a
# grid. Only the grid's chi uses g(nu) (`entropy`), `where` and
# `first_failure`, which gives the values at the first point where `ok` is
# false, or None.
_FLOAT = SimpleNamespace(
    sqrt=math.sqrt,
    log2=math.log2,
    hypot=math.hypot,
    maximum=max,
    minimum=min,
    chi_of=lambda chain: KeyEvaluator(chain).chi,
)


@functools.cache
def _array_ops() -> SimpleNamespace:
    """The array versions of the operations, made on first use: numpy is
    imported only by the functions that take arrays, so scalar evaluations
    never load it."""
    import numpy as np

    def elementwise(fn, nin):
        ufunc = np.frompyfunc(fn, nin, 1)
        return lambda *args: ufunc(*args).astype(float)

    ops = SimpleNamespace(
        sqrt=np.sqrt,
        log2=elementwise(math.log2, 1),
        hypot=elementwise(math.hypot, 2),
        entropy=elementwise(entropy_of_nu, 1),
        maximum=lambda a, b: np.where(b > a, b, a),
        minimum=lambda a, b: np.where(b < a, b, a),
        where=np.where,
        first_failure=lambda ok, *values: None if ok.all() else tuple(
            np.broadcast_to(value, ok.shape)[~ok][0] for value in values
        ),
    )
    ops.chi_of = lambda chain: functools.partial(_chi, ops, chain)
    return ops


def _snr(chain: DeviceChainParams, loss: float, nbar):
    slope, variance = chain.readout.moments(loss, nbar)
    return slope * slope * chain.codebook_variance / variance


def snr(chain: DeviceChainParams, channel: ChannelParams) -> float:
    """Signal-to-noise ratio of the matched receiver record.

    slope^2 * codebook variance / record variance, from the affine
    decomposition of the device chain.
    """
    return _snr(chain, channel.loss, channel.noise_photons)


def _mutual_information(ops, snr_value):
    return 0.5 * ops.log2(1.0 + snr_value)


def mutual_information(snr_value: float) -> float:
    """Shannon mutual information of a Gaussian channel: log2(1 + SNR) / 2."""
    if not (snr_value >= 0.0):
        raise ValueError("snr must be >= 0")
    return _mutual_information(_FLOAT, snr_value)


def _environment_entropy(ops, eps, nbar, v_q: float, v_p: float):
    """Entropy in bits of the eavesdropper's two environment modes.

    A signal of variances v_q, v_p meets one arm of a two-mode squeezed
    state (vacuum-unit marginal v = 1 + 4 nbar / eps, c^2 = v^2 - 1) on
    the tap eps = 1 - t. With a = 4 v_q, b = 4 v_p the output is a q block
    [[eps a + t v, sqrt(t) c], [sqrt(t) c, v]] and a p block (b, -sqrt(t)
    c), and nu+^2 nu-^2 = det Q det P, nu+^2 + nu-^2 = tr(QP) (Weedbrook et
    al., RMP 84, 621 (2012)). c^2 cancels, and in m = eps v = eps + 4 nbar,
    finite at every eps in [0, 1), det = (a m + t)(b m + t), tr = eps^2 a b
    + m^2 + t m (a + b) + 2 t and, with X = (eps a - m)(eps b - m) >= 0,
    (nu+^2 - nu-^2)^2 = m^2 (a - b)^2 + X (4 t + X + 2 m (a + b)), a sum of
    non-negative terms. X < 0 puts v between a and b, where the gap is
    written in v = m / eps, x = a - v, y = b - v, its mixed term as a b -
    v^2 - t x y, which keeps its digits as t -> 0; at eps = 0, X = m^2.
    This is the grid's form; :meth:`KeyEvaluator.chi` is its float form.
    """
    a, b, t = 4.0 * v_q, 4.0 * v_p, 1.0 - eps
    m = eps + 4.0 * nbar
    det = (a * m + t) * (b * m + t)
    trace = eps * eps * a * b + m * m + t * m * (a + b) + 2.0 * t
    big_x = (eps * a - m) * (eps * b - m)
    split = big_x < 0.0
    # the gap over s^2, s = max(m, 1), is finite wherever m^2 is; v is
    # used only where split (so eps > 0) and is bounded elsewhere
    s = ops.maximum(m, 1.0)
    v = m / ops.where(split, eps, s)
    x, y = a - v, b - v
    mixed = a * b - v * v - t * x * y
    r, z = m / s, big_x / s
    gap = ops.where(
        split,
        eps * eps * (mixed * mixed - 4.0 * t * (v - 1.0) * (v + 1.0) * x * y) / (s * s),
        r * r * (a - b) * (a - b) + z * ((4.0 * t + big_x) / s + 2.0 * r * (a + b)),
    )
    nu_plus_sq = 0.5 * (trace + s * ops.sqrt(gap))
    nu_minus_sq = det / nu_plus_sq
    # past nbar ~1e154, m^2 and the invariants overflow; NaN fails both tests
    finite = (det < math.inf) & (nu_plus_sq < math.inf)
    if (bad := ops.first_failure(finite, eps, nbar)) is not None:
        loss, noise = map(float, bad)
        raise ValueError(f"noise_photons={noise!r} at loss={loss!r} overflows chi's invariants")
    floor = 1.0 - PHYSICALITY_TOL
    if (bad := ops.first_failure(nu_minus_sq >= floor * floor, nu_minus_sq)) is not None:
        raise PhysicalityError(f"environment violates the uncertainty bound: nu_minus_sq={bad[0]}")
    return ops.entropy(ops.sqrt(nu_plus_sq)) + ops.entropy(ops.sqrt(nu_minus_sq))


def _chi(ops, chain: DeviceChainParams, loss, nbar):
    """chi over a noise grid at channel loss in [0, 1); 0 for an
    unmodulated chain (equal input variances)."""
    model = chain.readout
    v_p = model.orthogonal_input_variance
    chi = _environment_entropy(
        ops, loss, nbar, chain.modulated_input_variance, v_p
    ) - _environment_entropy(ops, loss, nbar, model.channel_input_variance, v_p)
    # the averaged state majorizes the conditional one; guard float dust
    return ops.maximum(chi, 0.0)


class KeyEvaluator:
    """chi and the asymptotic key of one chain at single points (loss,
    nbar) of the channel domain, on Python floats.

    The straight-line float form of :func:`_chi` and
    :func:`_environment_entropy`: the same operations in the same order,
    so each point gets the bits a one-point grid gives it, with the gap's
    branch taken by an ``if`` and the chain's constants (4 v, their sums,
    differences and products) computed once, here. The checks and their
    messages are the grid's. The key's SNR is :func:`snr`'s, from
    :meth:`~mwqkd.devices.ReadoutModel.moments`. The callers check the
    channel domain.
    """

    __slots__ = ("_quadratures", "_b", "_moments", "_codebook_variance", "_floor_sq")

    def __init__(self, chain: DeviceChainParams) -> None:
        model = chain.readout
        b = 4.0 * model.orthogonal_input_variance
        # (a, a + b, a - b, a b) of the modulated, then the conditional input
        self._quadratures = tuple(
            (a, a + b, a - b, a * b)
            for a in (4.0 * chain.modulated_input_variance, 4.0 * model.channel_input_variance)
        )
        self._b = b
        self._moments = model.moments
        self._codebook_variance = chain.codebook_variance
        floor = 1.0 - PHYSICALITY_TOL
        self._floor_sq = floor * floor

    def chi(self, eps: float, nbar: float) -> float:
        """chi at channel loss eps in [0, 1) and coupled noise nbar >= 0."""
        b = self._b
        t = 1.0 - eps
        m = eps + 4.0 * nbar
        s = 1.0 if 1.0 > m else m
        eps_sq, m_sq, t_m, two_t = eps * eps, m * m, t * m, 2.0 * t
        b_det, b_gap = b * m + t, eps * b - m
        entropies = []
        for a, a_plus_b, a_minus_b, ab in self._quadratures:
            det = (a * m + t) * b_det
            trace = eps_sq * a * b + m_sq + t_m * a_plus_b + two_t
            big_x = (eps * a - m) * b_gap
            if big_x < 0.0:  # so eps > 0
                v = m / eps
                x, y = a - v, b - v
                mixed = ab - v * v - t * x * y
                gap = eps_sq * (mixed * mixed - 4.0 * t * (v - 1.0) * (v + 1.0) * x * y) / (s * s)
            else:
                r = m / s
                gap = r * r * a_minus_b * a_minus_b + big_x / s * (
                    (4.0 * t + big_x) / s + 2.0 * r * a_plus_b
                )
            nu_plus_sq = 0.5 * (trace + s * math.sqrt(gap))
            nu_minus_sq = det / nu_plus_sq
            if not (det < math.inf and nu_plus_sq < math.inf):
                raise ValueError(
                    f"noise_photons={float(nbar)!r} at loss={float(eps)!r} overflows chi's invariants"
                )
            if not nu_minus_sq >= self._floor_sq:
                raise PhysicalityError(
                    f"environment violates the uncertainty bound: nu_minus_sq={nu_minus_sq}"
                )
            entropies.append(
                entropy_of_nu(math.sqrt(nu_plus_sq)) + entropy_of_nu(math.sqrt(nu_minus_sq))
            )
        chi = entropies[0] - entropies[1]
        return 0.0 if 0.0 > chi else chi

    def key(self, loss: float, nbar: float) -> float:
        """The asymptotic key I_AB - chi at channel loss in [0, 1) and
        coupled noise nbar >= 0, in bits per symbol."""
        slope, variance = self._moments(loss, nbar)
        snr_value = slope * slope * self._codebook_variance / variance
        return mutual_information(snr_value) - self.chi(loss, nbar)


def holevo_dr(chain: DeviceChainParams, channel: ChannelParams) -> float:
    """Eavesdropper's Holevo bound, direct reconciliation.

    The attack couples each signal to one arm of a two-mode squeezed
    state of occupation 2*nbar/loss through the channel's loss tap; the
    eavesdropper keeps both environment modes. For Gaussian modulation
    the conditional entropy does not depend on the symbol, so the bound
    is the entropy difference between the modulation-averaged and the
    conditional environment states. The modulation only widens the
    encoding quadrature at the channel input, by the codebook variance
    times the squared pre-channel response.

    Trusted detection noise never enters the environment state. One
    closed form holds at every loss in [0, 1): at zero loss it is chi's
    loss -> 0+ limit at fixed nbar, finite, 0 without noise and positive
    with it.
    """
    return KeyEvaluator(chain).chi(channel.loss, channel.noise_photons)


def asymptotic_key(chain: DeviceChainParams, channel: ChannelParams) -> float:
    """Asymptotic secret key in bits per symbol; negative means insecure."""
    return KeyEvaluator(chain).key(channel.loss, channel.noise_photons)


def confidence_w(correctness_epsilon: float) -> float:
    """Confidence factor w = sqrt(2) * erfinv(1 - 2 e), the upper e-quantile
    of the standard normal.

    w standard deviations cover a Gaussian estimate up to failure
    probability e per tail. Computed as -Phi^-1((1 - fl(1 - 2 e)) / 2)
    with the standard-library normal quantile, over the domain of
    :func:`_e_ec_tail`.
    """
    import statistics  # with random, fractions and decimal: only w needs it

    return -statistics.NormalDist().inv_cdf(_e_ec_tail(correctness_epsilon))


def _e_ec_tail(e_ec: float) -> float:
    """The tail (1 - fl(1 - 2 e_ec)) / 2 of w, checked: e_ec in (0, 0.5),
    and not at or below 2^-55 (~2.8e-17), which rounds 1 - 2 e_ec to 1.
    The one check of the e_ec domain, for w and :func:`key_settings`."""
    if not 0.0 < e_ec < 0.5:
        raise ValueError("e_ec must be in (0, 0.5)")
    # round 1 - 2e first, as sqrt(2) * erfinv(1 - 2e) does, so w keeps its value
    tail = (1.0 - (1.0 - 2.0 * e_ec)) / 2.0
    if tail == 0.0:
        raise ValueError(f"e_ec={e_ec!r} is too small: 1 - 2 e_ec rounds to 1")
    return tail


def _clamp(ops, loss, nbar):
    """(loss, nbar) clamped into the channel domain, loss to [0, 1 - 1e-12]."""
    return ops.minimum(ops.maximum(loss, 0.0), 1.0 - 1e-12), ops.maximum(nbar, 0.0)


def finite_size_delta(n_exp: float) -> float:
    """Composable finite-size penalty in bits per symbol.

    Delta(n) = 7 sqrt(log2(2/eps_smooth) / n) + (2/n) log2(1/eps_pa),
    monotone decreasing in the effective key length n, with eps_smooth =
    SMOOTHING_EPSILON and eps_pa = PA_EPSILON.
    """
    if not n_exp >= 1:
        raise ValueError("n_exp must be >= 1")
    return 7.0 * math.sqrt(math.log2(2.0 / SMOOTHING_EPSILON) / n_exp) + (
        2.0 / n_exp
    ) * math.log2(1.0 / PA_EPSILON)


def _predicted_sigmas(ops, chain: DeviceChainParams, loss: float, nbar, samples: int):
    """(loss_sigma, noise_sigma) of a regression on `samples` matched pairs."""
    if chain.codebook_variance == 0.0:
        raise ValueError("an unmodulated chain (zero codebook variance) cannot estimate the channel")
    slope, variance = chain.readout.moments(loss, nbar)
    slope_sigma = ops.sqrt(variance / (samples * chain.codebook_variance))
    return chain.readout.standard_errors(slope, slope_sigma, variance, samples, ops.hypot)


def predicted_estimate(
    chain: DeviceChainParams, channel: ChannelParams, samples: int
) -> ChannelEstimate:
    """Expected channel estimate from a given number of matched pairs.

    Centers the estimate on the true parameters and attaches the
    asymptotic standard errors the regression would have at that sample
    size. Used to evaluate the composite bound without simulating data.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    loss_sigma, noise_sigma = _predicted_sigmas(
        _FLOAT, chain, channel.loss, channel.noise_photons, samples
    )
    return ChannelEstimate(
        loss=channel.loss,
        loss_sigma=loss_sigma,
        noise_photons=channel.noise_photons,
        noise_sigma=noise_sigma,
        samples=int(samples),
    )


def ec_block(n_raw: int, n_ec_fraction: float = 0.5) -> int:
    """The EC (key) block: floor(n_ec_fraction * (n_raw // 2)), exactly,
    and >= 1, for a fraction in (0, 1): the estimation block keeps the rest."""
    if not 0.0 < n_ec_fraction < 1.0:
        raise ValueError("n_ec_fraction must be in (0, 1)")
    num, den = n_ec_fraction.as_integer_ratio()
    return max(1, num * (n_raw // 2) // den)


def key_settings(
    n_raw: int,
    n_ec: int | None = None,
    *,
    beta_ec: float = 1.0,
    p_ec: float = 1.0,
    e_ec: float = DEFAULT_CORRECTNESS_EPSILON,
    include_delta: bool = True,
    include_estimation_penalty: bool = True,
) -> dict:
    """The finite-size settings of a key, checked, defaults filled in.

    Of `n_raw` raw symbols, half survive sifting in expectation; `n_ec` of
    those carry the key (default: half the sifted block, :func:`ec_block`),
    the rest feed parameter estimation. beta_ec is the reconciliation
    efficiency, p_ec the probability that error correction succeeds, and
    e_ec the failure bound of the estimation confidence, checked (also
    without the penalty) over the domain of :func:`confidence_w`. The
    flags switch the finite-size term and the estimation widening.
    """
    if n_raw < 4:
        raise ValueError("n_raw must be >= 4")
    if n_raw > sys.float_info.max:  # Delta and the prefactor take it as a float
        raise ValueError(f"n_raw (the symbol count N) must be <= {sys.float_info.max!r}")
    if not 0.0 < beta_ec <= 1.0:
        raise ValueError("beta_ec must be in (0, 1]")
    if not 0.0 < p_ec <= 1.0:
        raise ValueError("p_ec must be in (0, 1]")
    _e_ec_tail(e_ec)
    if n_ec is None:
        n_ec = ec_block(n_raw)
    elif not 0 < n_ec <= n_raw // 2:
        raise ValueError("n_ec must be in 1..sifted length")
    return dict(
        n_raw=n_raw, n_ec=n_ec, beta_ec=beta_ec, p_ec=p_ec, e_ec=e_ec,
        include_delta=include_delta, include_estimation_penalty=include_estimation_penalty,
    )


@dataclass(frozen=True)
class CompositeKeyBound:
    """Finite-size secret key bound and its ingredients.

    bits_per_symbol is beta*I - chi(worst case) - Delta over the n_ec
    error-corrected symbols; bits_per_raw_symbol rescales by the
    prefactor r = n_ec * p_ec / N.
    """

    bits_per_symbol: float
    bits_per_raw_symbol: float
    prefactor: float
    n_raw: int
    n_sifted: int
    n_ec: int
    n_estimation: int
    mi_bits: float
    holevo_bits: float
    delta_bits: float
    w: float
    worst_case_loss: float | None
    worst_case_noise: float | None
    include_delta: bool
    include_estimation_penalty: bool


def _composite(
    ops,
    chain: DeviceChainParams,
    point: tuple,
    estimate: ChannelEstimate | None,
    mi,
    chi,
    chi_at,
    *,
    n_raw: int,
    n_ec: int,
    beta_ec: float,
    p_ec: float,
    e_ec: float,
    include_delta: bool,
    include_estimation_penalty: bool,
) -> CompositeKeyBound:
    """The composite bound at `point` = (loss, nbar), floats or a noise
    grid, from its I_AB and (without the estimation penalty) its chi, for
    settings checked by :func:`key_settings`; ``chi_at(loss, nbar)`` is
    the chain's chi (``ops.chi_of(chain)``).

    With the penalty, chi is taken at the worst case of `estimate`, or of
    the estimate the estimation block would give at `point` when
    `estimate` is None. An `estimate` also sets the booked counts: its
    samples are the estimation block, and the sifted block is those plus
    the n_ec key symbols. An unmodulated chain has I_AB = chi = 0 at every
    channel, so no widening can move its bound: it is reported unwidened,
    with no worst case. The penalty needs at least 2 estimation symbols;
    fewer raise InsufficientDataError, as a short protocol record does.
    """
    n_sifted = n_raw // 2
    n_est = n_sifted - n_ec
    if estimate is not None:  # book the pairs the estimate had
        n_est = estimate.samples
        n_sifted = n_ec + n_est
    elif include_estimation_penalty and n_est < 2:
        raise InsufficientDataError("estimation penalty requires at least 2 estimation symbols")
    w = confidence_w(e_ec) if include_estimation_penalty else 0.0
    delta_bits = finite_size_delta(n_ec) if include_delta else 0.0

    worst_loss = worst_noise = None
    if include_estimation_penalty and chain.codebook_variance > 0.0:
        if estimate is None:
            loss, nbar = point
            loss_sigma, noise_sigma = _predicted_sigmas(ops, chain, loss, nbar, n_est)
        else:
            loss, loss_sigma = estimate.loss, estimate.loss_sigma
            nbar, noise_sigma = estimate.noise_photons, estimate.noise_sigma
        worst_loss, worst_noise = _clamp(ops, loss + w * loss_sigma, nbar + w * noise_sigma)
        chi = chi_at(worst_loss, worst_noise)
    per_symbol = beta_ec * mi - chi - delta_bits
    prefactor = n_ec * p_ec / n_raw
    return CompositeKeyBound(
        bits_per_symbol=per_symbol,
        bits_per_raw_symbol=prefactor * per_symbol,
        prefactor=prefactor,
        n_raw=int(n_raw),
        n_sifted=int(n_sifted),
        n_ec=int(n_ec),
        n_estimation=int(n_est),
        mi_bits=mi,
        holevo_bits=chi,
        delta_bits=delta_bits,
        w=w,
        worst_case_loss=worst_loss,
        worst_case_noise=worst_noise,
        include_delta=include_delta,
        include_estimation_penalty=include_estimation_penalty,
    )


def composite_key(
    chain: DeviceChainParams,
    channel: ChannelParams | None = None,
    estimate: ChannelEstimate | None = None,
    **settings,
) -> CompositeKeyBound:
    """Finite-size composite secret key bound, for the settings of
    :func:`key_settings` (`n_raw` is required).

    Exactly one of `channel` (exact parameters) or `estimate` (measured
    parameters with standard errors) must be given. An `estimate` books
    its own `samples` as the estimation block, and n_ec + samples as the
    sifted block. The bound is
    r * [beta*I - chi(worst case) - Delta(n_ec)] with r = n_ec * p_ec / N.
    The two penalty flags reproduce the finite-size-only and
    estimation-only ablations; with both off the per-symbol bound equals
    the asymptotic key at the point parameters. An unmodulated chain (zero
    codebook variance) has I_AB = chi = 0 at every channel, so its bound
    is -Delta(n_ec) per symbol, or 0 without the finite-size term, with
    worst_case_loss and worst_case_noise None.
    """
    return build_report(chain, channel, estimate, **settings).finite_size


def noise_crossing(
    key_fn, upper: float = 1.0, tol: float = 1e-7, *, lower: float = 0.0, guess: float | None = None
) -> float:
    """Zero crossing of a non-increasing key function, by bisection.

    Bisects [lower, upper] (finite, lower < upper) to an absolute width
    `tol` > 0, or until no float lies strictly between the ends, and
    returns the last midpoint: 0.0 if the key is not positive at `lower`,
    inf if it is still positive at `upper`. A midpoint outside the
    tightest evaluated bracket (a, b), key(a) > 0 >= key(b), is decided
    unevaluated. An open one gets one evaluation, at the Illinois (modified
    regula falsi) point of (a, b) while one is usable and strikes remain
    (each Illinois point that leaves it open costs one of six), else at
    itself, and is tested again: the result is plain bisection's float.

    (a, b) starts from key(lower) and key(upper), or from `guess` (finite,
    clamped into [lower, upper]) and a walk away from it towards the side
    its sign points to, until the sign changes: steps d, 4d, 16d and 64d
    with d = max(|clamped guess| / 8, tol), then straight to the end.
    """
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if not -math.inf < lower < upper < math.inf:
        raise ValueError("lower and upper must be finite, with lower < upper")
    if guess is None:  # lower, then straight to upper
        x, steps = lower, iter(())
    elif math.isfinite(guess):
        x = min(max(guess, lower), upper)
        d = max(abs(x) / 8.0, tol)
        steps = iter((d, 4.0 * d, 16.0 * d, 64.0 * d))
    else:
        raise ValueError("guess must be finite")
    a = b = None
    while a is None or b is None:
        fx, step = key_fn(x), next(steps, math.inf)
        if fx > 0.0:
            if x == upper:
                return math.inf
            a, fa, x = x, fx, min(x + step, upper)
        else:
            if x == lower:
                return 0.0
            b, fb, x = x, fx, max(x - step, lower)
    lo, hi, side, strikes = lower, upper, 0, 6
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        # open: the Illinois point while usable (fa - fb is 0 once halving
        # underflows both, inf or nan from the key), else the midpoint
        elif strikes and 0.0 < (den := fa - fb) < math.inf and (
            a < (x := a + fa / den * (b - a)) < b
        ):
            fx = key_fn(x)
            if fx > 0.0:
                if side > 0:
                    fb *= 0.5
                a, fa, side = x, fx, 1
            else:
                if side < 0:
                    fa *= 0.5
                b, fb, side = x, fx, -1
            strikes -= a < mid < b
        elif (fm := key_fn(mid)) > 0.0:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (lo + hi)


def noise_tolerance(chain: DeviceChainParams, loss: float) -> float:
    """Largest coupled-noise level with a positive asymptotic key, by
    bisection on [0, 1] to 1e-7 photons."""
    check_channel(loss, 0.0)
    return noise_crossing(functools.partial(KeyEvaluator(chain).key, loss))


def _fields_dict(obj) -> dict:
    """Field name -> value, without copying the values (unlike asdict)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class SecurityReport:
    """All security figures for one parameter point, JSON-serializable.

    A grid report from :func:`sweep_noise` holds a 1-D array in each
    per-point figure; :meth:`split_grid` splits it into the constant
    fields and one dict per point.
    """

    snr: float
    mi_bits: float
    holevo_bits: float
    asymptotic_key_bits: float
    finite_size: CompositeKeyBound
    provenance: str  # "exact" or "estimated" channel parameters
    inputs: dict

    def to_dict(self) -> dict:
        return {**_fields_dict(self), "finite_size": _fields_dict(self.finite_size)}

    def split_grid(self) -> tuple[dict, list[dict]]:
        """The constant fields of a grid report, and one dict per point of
        its varying (array) fields.

        Both keep the nesting of :meth:`to_dict`: merging the constants
        into the dict of one point gives the scalar report's dict there.
        """
        constant, varying = _split_arrays(self.to_dict())
        count = len(self.inputs["channel"]["noise_photons"])
        return constant, [_point_of(varying, i) for i in range(count)]


def _split_arrays(tree: dict) -> tuple[dict, dict]:
    """(non-array fields, array fields as lists) of a nested dict."""
    import numpy as np

    constant, varying = {}, {}
    for name, value in tree.items():
        if isinstance(value, dict):
            fixed, column = _split_arrays(value)
            if fixed or not column:
                constant[name] = fixed
            if column:
                varying[name] = column
        elif isinstance(value, np.ndarray):
            varying[name] = value.tolist()
        else:
            constant[name] = value
    return constant, varying


def _point_of(columns: dict, i: int) -> dict:
    return {
        name: _point_of(value, i) if isinstance(value, dict) else value[i]
        for name, value in columns.items()
    }


def _report(ops, chain: DeviceChainParams, loss, nbar, estimate, **settings) -> SecurityReport:
    """The report at (loss, nbar), floats or a noise grid, its composite
    bound widened from `estimate` when one is given; the settings pass
    through :func:`key_settings`, and the echo holds what it returns."""
    settings = key_settings(**settings)
    snr_value = _snr(chain, loss, nbar)
    mi = _mutual_information(ops, snr_value)
    chi_at = ops.chi_of(chain)
    chi = chi_at(loss, nbar)
    finite = _composite(ops, chain, (loss, nbar), estimate, mi, chi, chi_at, **settings)
    provenance = "exact" if estimate is None else "estimated"
    inputs = {
        "chain": _fields_dict(chain),
        "channel": {"loss": loss, "noise_photons": nbar},
        "parameter_source": provenance,
        **settings,
    }
    if estimate is not None:
        inputs["estimate"] = _fields_dict(estimate)
    return SecurityReport(
        snr=snr_value,
        mi_bits=mi,
        holevo_bits=chi,
        asymptotic_key_bits=mi - chi,
        finite_size=finite,
        provenance=provenance,
        inputs=inputs,
    )


def build_report(
    chain: DeviceChainParams,
    channel: ChannelParams | None = None,
    estimate: ChannelEstimate | None = None,
    *,
    extra_inputs: dict | None = None,
    **settings,
) -> SecurityReport:
    """Assemble a SecurityReport, echoing every input for reproducibility.

    The asymptotic block uses the point parameters; the finite-size block
    takes the settings of :func:`key_settings` (`n_raw` is required), and
    the echo holds all of them, defaults included. `extra_inputs` are
    merged into the echo.
    """
    if (channel is None) == (estimate is None):
        raise ValueError("provide exactly one of channel or estimate")
    if channel is None:
        channel = ChannelParams(*_clamp(_FLOAT, estimate.loss, estimate.noise_photons))
    report = _report(_FLOAT, chain, channel.loss, channel.noise_photons, estimate, **settings)
    report.inputs.update(extra_inputs or {})
    return report


def sweep_noise(
    chain: DeviceChainParams,
    loss: float,
    nbars,
    **settings,
) -> SecurityReport:
    """Exact-parameter reports over a grid of coupled-noise levels.

    One array evaluation of what ``build_report(chain, ChannelParams(loss,
    nbar), **settings)`` gives at each nbar of the 1-D grid `nbars`, bit
    for bit. The returned report holds an array, one entry per grid
    point, in each per-point figure; :meth:`SecurityReport.split_grid`
    splits it. Invalid settings raise even for an empty grid.
    """
    import numpy as np

    nbar = np.array(nbars, dtype=float)
    if nbar.ndim != 1:
        raise ValueError("nbars must be a 1-D grid")
    check_channel(loss, nbar)
    # an overflow raises below, as on the float path, without numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _report(_array_ops(), chain, loss, nbar, None, **settings)
