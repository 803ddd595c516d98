"""Loss budgets, distances, and rate projections."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwqkd
from mwqkd import linkbudget as lb
from mwqkd import security as sec
from mwqkd.devices import ChannelParams

RUN1 = mwqkd.RUN1_CHAIN
RUN2 = mwqkd.RUN2_CHAIN


def test_thermal_occupancy_bose_einstein():
    assert lb.thermal_occupancy(300.0, 5e9) == pytest.approx(1249.6972140558075)
    assert lb.thermal_occupancy(0.015, 5.48e9) == pytest.approx(2.4289184441079787e-08)
    # hot limit: kT / hf
    assert lb.thermal_occupancy(300.0, 1e6) == pytest.approx(
        300.0 * 1.380649e-23 / (6.62607015e-34 * 1e6), rel=1e-3
    )
    # deep cold: occupation underflows cleanly to zero
    assert lb.thermal_occupancy(1e-6, 5e9) == 0.0
    with pytest.raises(ValueError):
        lb.thermal_occupancy(0.0, 5e9)
    with pytest.raises(ValueError):
        lb.thermal_occupancy(300.0, 0.0)


def test_si_constants_match_scipy_oracle():
    # the module's literals are the exact SI values scipy also carries
    from scipy.constants import Boltzmann, Planck

    x = Planck * lb.CARRIER_FREQUENCY_HZ / (Boltzmann * 0.015)
    assert lb.CRYO_LINK.background_photons == 1.0 / math.expm1(x)
    assert (lb.BOLTZMANN, lb.PLANCK) == (Boltzmann, Planck)


def test_medium_presets():
    assert set(lb.MEDIA) == {"cryo-15mK", "openair-300K"}
    assert lb.CRYO_LINK.attenuation_db_per_m == pytest.approx(1.0e-3)
    assert lb.OPEN_AIR.attenuation_db_per_m == pytest.approx(6.3e-6)
    assert lb.OPEN_AIR.background_photons == pytest.approx(1250.0)
    assert lb.CRYO_LINK.background_photons == pytest.approx(2.43e-8, rel=1e-2)


def test_loss_distance_inversion():
    gamma = 1.0e-3
    for eps in (0.01, 0.2347, 0.9):
        d = lb.loss_to_distance(eps, gamma)
        assert lb.distance_to_loss(d, gamma) == pytest.approx(eps, rel=1e-12)
    assert lb.loss_to_distance(0.0, gamma) == 0.0
    # dB bookkeeping: 3.01 dB of loss is half the power
    d_half = lb.loss_to_distance(0.5, gamma)
    assert d_half * gamma == pytest.approx(10 * math.log10(2.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(loss=st.floats(0.0, 1.0, exclude_max=True), gamma=st.floats(1e-9, 1e3))
def test_loss_to_distance_is_never_negative_zero(loss, gamma):
    # the value of -10 log10(1 - loss) / gamma, but 0.0 where that is -0.0
    got = lb.loss_to_distance(loss, gamma)
    assert got == -10.0 * math.log10(1.0 - loss) / gamma
    assert math.copysign(1.0, got) == 1.0


def _recorded_evaluations(monkeypatch) -> list:
    """Replace every scalar key and chi evaluation by a recorder; returns
    the list of recorded calls."""
    calls = []
    for name in ("key", "chi"):
        monkeypatch.setattr(sec.KeyEvaluator, name, lambda *args: calls.append(args))
    return calls


@pytest.mark.parametrize(
    "background", [999999999999.0, 1e12, 1e30, 1.3e165, 1e200, sys.float_info.max]
)
def test_no_loss_is_tolerable_where_the_plob_bound_is_zero(monkeypatch, background):
    # (1 - 1e-12) / 1e-12 = 999999999999.0 photons and up leave no capacity
    # at any loss of the search; from ~1.3e165 chi's invariants would overflow
    calls = _recorded_evaluations(monkeypatch)
    for guess in (None, 0.2):
        assert lb.max_tolerable_loss(RUN1, background, guess=guess) == 0.0
    assert calls == []
    monkeypatch.undo()
    row = lb.sweep_occupancy(RUN1, [1250.0, background], 1e-3)[1]
    assert [math.copysign(1.0, x) for x in row] == [1.0, 1.0, 1.0]
    assert row[1:] == (0.0, 0.0)


def test_max_tolerable_loss_values():
    eps = lb.max_tolerable_loss(RUN2, lb.CRYO_LINK.background_photons)
    assert eps == pytest.approx(0.234734, abs=2e-5)
    eps1 = lb.max_tolerable_loss(RUN1, lb.CRYO_LINK.background_photons)
    assert eps1 == pytest.approx(0.231125, abs=2e-5)
    # hotter background shrinks the budget
    assert lb.max_tolerable_loss(RUN2, 1250.0) < eps


def test_distance_limits():
    assert lb.distance_limit(RUN2, lb.CRYO_LINK) == pytest.approx(1161.9, abs=0.5)
    assert lb.distance_limit(RUN2, lb.OPEN_AIR) == pytest.approx(74.6, abs=0.5)
    assert lb.distance_limit(RUN1, lb.CRYO_LINK) == pytest.approx(1141.4, abs=0.5)


def test_raw_key_rate():
    ch = ChannelParams(0.0115, 1.7e-6)
    rate = lb.raw_key_rate(RUN2, ch, 400e3)
    assert rate == pytest.approx(324151.9, abs=2.0)
    # insecure channel produces no key, not a negative rate
    assert lb.raw_key_rate(RUN2, ChannelParams(0.0115, 0.08), 400e3) == 0.0
    with pytest.raises(ValueError):
        lb.raw_key_rate(RUN2, ch, -1.0)


def test_occupancy_sweep_monotone():
    occupancies = [1e-8, 1e-4, 1e-2, 1.0, 100.0, 1250.0, 1e4]
    rows = lb.sweep_occupancy(RUN2, occupancies, lb.OPEN_AIR.attenuation_db_per_m)
    assert len(rows) == len(occupancies)
    eps_col = [r[1] for r in rows]
    dist_col = [r[2] for r in rows]
    assert all(a >= b for a, b in zip(eps_col, eps_col[1:]))
    assert all(a >= b for a, b in zip(dist_col, dist_col[1:]))
    assert eps_col[0] > 0.23  # cold limit approaches the quiet budget
    # the open-air row reproduces the direct computation
    idx = occupancies.index(1250.0)
    assert rows[idx][1] == pytest.approx(
        lb.max_tolerable_loss(RUN2, 1250.0), abs=1e-9
    )


@pytest.mark.parametrize("background", [math.nan, math.inf, -1.0, -1e-300])
def test_background_occupation_must_be_finite_and_non_negative(monkeypatch, background):
    # checked before any key evaluation, and before the sweep scales a
    # root estimate by 1 / (1 + background)
    calls = _recorded_evaluations(monkeypatch)
    match = "background_photons must be finite and >= 0"
    with pytest.raises(ValueError, match=match):
        lb.max_tolerable_loss(RUN2, background)
    with pytest.raises(ValueError, match=match):
        lb.max_tolerable_loss(RUN2, background, guess=0.2)
    with pytest.raises(ValueError, match=match):
        lb.MediumSpec(1e-3, background, "bad")
    with pytest.raises(ValueError, match=match):
        lb.sweep_occupancy(RUN2, [background], 1e-3)
    assert calls == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match=match):
        lb.sweep_occupancy(RUN2, [1.0, background], 1e-3)


def test_sweep_hands_each_crossing_the_scaled_previous_root(monkeypatch):
    seen = []
    cold = lb.max_tolerable_loss

    def recorded(chain, background, *, guess=None):
        seen.append((background, guess))
        return cold(chain, background, guess=guess)

    monkeypatch.setattr(lb, "max_tolerable_loss", recorded)
    rows = lb.sweep_occupancy(RUN2, [1e-8, 10.0, 10.0], 1e-3)
    assert seen == [
        (1e-8, None),
        (10.0, rows[0][1] * (1.0 + 1e-8) / 11.0),
        (10.0, rows[1][1] * 11.0 / 11.0),
    ]
