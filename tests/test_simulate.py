import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt import presets
from coopt.io import save_scenario
from coopt.presets import (
    PRESET_HUB,
    build_scenario,
    study_histories,
    synthetic_demand_history,
    synthetic_market_history,
    synthetic_price_history,
)
from coopt.scenario import HubSpec, with_profiles
from coopt.sensitivity import SWEEP_FIELDS, SWEEP_PERCENTILES, study_factors
from coopt.simulate import clear_reserve_market, estimate_probabilities, percentile_profiles


# ------------------------------------------------------------- demand


def test_zero_ev_share_gives_zero_demand(monkeypatch):
    monkeypatch.setattr(presets, "EV_SHARE", 0.0)
    assert (synthetic_demand_history(0, 2, PRESET_HUB) == 0.0).all()


def test_degenerate_soc_and_single_size(monkeypatch):
    monkeypatch.setattr(presets, "CHARGE_PROB", 1.0)
    monkeypatch.setattr(presets, "BATTERY_SIZES", (100.0,))
    monkeypatch.setattr(presets, "BATTERY_SHARES", (1.0,))
    monkeypatch.setattr(presets, "SOC_BOUNDS", (0.5, 0.5 + 1e-12))
    uncapped = HubSpec((0.0,) * 24, station_count=1000, station_rate=100.0)
    for v in synthetic_demand_history(0, 2, uncapped).ravel():
        # every charging EV draws exactly 50 kWh, so the hourly load is 50 * n_t
        assert v == pytest.approx(50.0 * round(v / 50.0), rel=1e-9)
        assert v > 0.0


def test_demand_mean_matches_compound_expectation():
    daily = synthetic_demand_history(0, 400, PRESET_HUB).sum(axis=1)
    # vehicles that charge in an hour, times the mean battery size and the mean fraction asked
    traffic = presets.TRAFFIC_SCALE * sum(presets._TRAFFIC_SHAPE)
    expect = 0.25 * 0.42 * traffic * 0.1 * 75.0 * 0.5 * (0.05 + 0.95)
    assert daily.mean() == pytest.approx(expect, rel=0.02)


def test_demand_clipped_by_hub_capacity():
    hub = HubSpec((0.0,) * 24, station_count=1, station_rate=10.0)
    history = synthetic_demand_history(0, 2, hub)
    assert (history <= 10.0).all()
    assert (history == 10.0).any()


def test_demand_deterministic_in_seed():
    a = synthetic_demand_history(5, 1, PRESET_HUB)
    b = synthetic_demand_history(5, 1, PRESET_HUB)
    c = synthetic_demand_history(6, 1, PRESET_HUB)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ------------------------------------------------------------- clearing


def test_single_offer_partial_acceptance():
    accepted, cleared, price = clear_reserve_market([5.0], [10.0], 4.0)
    assert price == 5.0
    assert accepted.tolist() == [4.0]
    assert cleared == 4.0


def test_merit_order_hand_example():
    accepted, _, price = clear_reserve_market([1.0, 2.0, 3.0], [10.0, 10.0, 10.0], 15.0)
    assert accepted.tolist() == [10.0, 5.0, 0.0]
    assert price == 2.0


def test_price_ties_go_to_the_lower_offer_index():
    accepted, _, price = clear_reserve_market([2.0, 1.0, 1.0], [5.0, 5.0, 5.0], 7.0)
    assert accepted.tolist() == [0.0, 5.0, 2.0]
    assert price == 1.0


def test_zero_requirement():
    accepted, cleared, price = clear_reserve_market([5.0], [10.0], 0.0)
    assert np.isnan(price)
    assert cleared == 0.0
    assert accepted.tolist() == [0.0]


def test_shortfall_flagged():
    accepted, cleared, price = clear_reserve_market([5.0], [10.0], 25.0)
    assert cleared == 10.0 < 25.0
    assert accepted.tolist() == [10.0]
    assert price == 5.0


offers_strategy = st.lists(
    st.tuples(
        st.floats(0.01, 50.0, allow_nan=False),
        st.floats(0.1, 100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


@given(offers_strategy, st.floats(0.0, 1000.0))
@settings(max_examples=100, deadline=None)
def test_clearing_conservation(offers, requirement):
    price, qty = zip(*offers)
    accepted, cleared, _ = clear_reserve_market(price, qty, requirement)
    assert cleared == pytest.approx(min(requirement, sum(qty)), abs=1e-9)
    assert accepted.sum() == pytest.approx(cleared, abs=1e-9)


@given(offers_strategy, st.floats(0.0, 400.0), st.floats(0.0, 400.0))
@settings(max_examples=100, deadline=None)
def test_raising_requirement_never_reduces_acceptance(offers, req1, req2):
    price, qty = zip(*offers)
    lo, hi = sorted((req1, req2))
    # both hours cleared at once, each as it clears alone
    accepted, cleared, clearing_price = clear_reserve_market([price, price], [qty, qty], [lo, hi])
    for h, req in enumerate((lo, hi)):
        alone = clear_reserve_market(price, qty, req)
        assert accepted[h].tolist() == alone[0].tolist()
        assert cleared[h] == alone[1]
        assert np.array_equal(clearing_price[h], alone[2], equal_nan=True)
    assert (accepted[1] >= accepted[0] - 1e-9).all()


# ------------------------------------------------------------- probabilities


def one_hour(offers, requirement, deployed):
    """One side of a market of one day of one hour."""
    price, qty = zip(*offers)
    accepted, cleared, _ = clear_reserve_market([[price]], [[qty]], [[requirement]])
    return {"accepted": accepted, "cleared": cleared, "deployed": np.array([[deployed]])}


def test_everything_accepted_and_deployed():
    side = one_hour(((1.0, 5.0), (2.0, 5.0)), 10.0, 10.0)
    probs = estimate_probabilities({"up": side, "dn": side})
    assert probs.acc_up == (1.0,)
    assert probs.acc_dn == (1.0,)
    assert probs.dep_up == (1.0,)
    assert probs.dep_dn == (1.0,)


def test_partial_counts():
    offers = ((1.0, 4.0), (2.0, 4.0), (3.0, 4.0), (4.0, 4.0))
    probs = estimate_probabilities({
        "up": one_hour(offers, 12.0, 6.0),  # 3 of 4 offers accepted, half deployed
        "dn": one_hour(offers, 16.0, 16.0),
    })
    assert probs.acc_up == (0.75,)
    assert probs.dep_up == (0.5,)
    assert probs.acc_dn == (1.0,)


def test_zero_acceptance_warns():
    market = {"up": one_hour(((1.0, 5.0),), 0.0, 0.0), "dn": one_hour(((1.0, 5.0),), 5.0, 0.0)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        probs = estimate_probabilities(market)
    assert probs.acc_up == (0.0,)
    assert probs.dep_up == (0.0,)
    assert [str(w.message) for w in caught] == [
        "hour 0 (up): no accepted energy, deployment rate set to 0"
    ]


# ------------------------------------------------------------- percentiles


def test_single_day_percentile_is_identity():
    history = [[3.0, 5.0, 7.0]]
    for p in (0.0, 35.0, 50.0, 100.0):
        assert list(percentile_profiles(history, p)) == [3.0, 5.0, 7.0]


def test_median_of_constant_days():
    history = [[float(d)] * 3 for d in range(1, 10)]
    assert list(percentile_profiles(history, 50.0)) == [5.0, 5.0, 5.0]


def test_percentile_extremes_are_min_max():
    rng = np.random.default_rng(0)
    history = rng.random((6, 4))
    assert percentile_profiles(history, 0.0) == pytest.approx(history.min(axis=0))
    assert percentile_profiles(history, 100.0) == pytest.approx(history.max(axis=0))


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile_profiles([[1.0]], 120.0)
    with pytest.raises(ValueError):
        percentile_profiles(np.zeros((0, 3)), 50.0)


# ------------------------------------------------------------- presets


def test_price_history_deterministic_and_positive():
    a_da, a_rt = synthetic_price_history(3, 5)
    b_da, b_rt = synthetic_price_history(3, 5)
    assert np.array_equal(a_da, b_da)
    assert np.array_equal(a_rt, b_rt)
    assert (a_da > 0).all() and (a_rt > 0).all()


def test_market_history_feeds_probability_estimation():
    market = synthetic_market_history(1, days=3)
    probs = estimate_probabilities(market)
    for series in (probs.acc_up, probs.acc_dn, probs.dep_up, probs.dep_dn):
        assert len(series) == 24
        assert all(0.0 <= v <= 1.0 for v in series)
    for arrays in market.values():
        assert np.isfinite(arrays["clearing_price"]).all()
    histories, _ = study_histories(1, 3, PRESET_HUB)
    assert histories["acc_up"].shape == (3, 24)


def test_daily_rates_are_the_rates_of_each_days_slice():
    market = synthetic_market_history(2, days=3)
    for arrays in market.values():
        assert {name: a.shape for name, a in arrays.items()} == {
            "price": (3, 24, 6), "qty": (3, 24, 6), "accepted": (3, 24, 6),
            "cleared": (3, 24), "deployed": (3, 24), "clearing_price": (3, 24),
        }
    daily, _ = study_histories(2, 3, PRESET_HUB)
    names = ("acc_up", "acc_dn", "dep_up", "dep_dn")
    for day in range(3):
        one_day = {
            side: {name: a[day:day + 1] for name, a in arrays.items()}
            for side, arrays in market.items()
        }
        probs = estimate_probabilities(one_day)
        for name in names:
            assert tuple(daily[name][day]) == getattr(probs, name)
    # each day draws from its own streams, so the first day is a market of one day
    first = estimate_probabilities(synthetic_market_history(2, days=1))
    for name in names:
        assert tuple(daily[name][0]) == getattr(first, name)


def test_build_scenario_shapes_and_determinism():
    scn = build_scenario(K=2, seed=11, days=4)
    assert scn.horizon == 24
    assert scn.bss.k == 2
    assert scn.joint is not None
    again = build_scenario(K=2, seed=11, days=4)
    assert scn == again
    assert scn.hub.da_cap == tuple(2.0 * v for v in scn.demand.ev_load)


@pytest.mark.parametrize(
    "preset, bundled",
    [({"K": 6}, "median.scenario"), ({"K": 2, "compartment_spread": 0.05}, "median_k2.scenario")],
)
def test_build_scenario_reproduces_bundled_scenario(tmp_path, preset, bundled):
    path = tmp_path / bundled
    save_scenario(build_scenario(seed=7, **preset), path)
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    assert path.read_bytes() == (scenarios / bundled).read_bytes()


def test_demand_history_extension_keeps_earlier_days():
    short, _ = study_histories(2, 3, PRESET_HUB)
    long, _ = study_histories(2, 5, PRESET_HUB)
    assert list(short) == list(long)
    for name in short:
        assert np.array_equal(short[name], long[name][:3])


@pytest.mark.parametrize("seed, days", [(7, 4), (3, 2)])
def test_preset_is_the_median_of_the_study_histories(seed, days):
    scn = build_scenario(K=1, seed=seed, days=days)
    histories, _ = study_histories(seed, days, PRESET_HUB)
    preset = {**asdict(scn.prices), **asdict(scn.demand)}
    for name in ("lambda_da", "lambda_rt", "lambda_up", "lambda_dn", "ev_load"):
        assert preset[name] == tuple(percentile_profiles(histories[name], 50.0))
    # so the sweep's median cell of a preset scenario is the preset itself
    factors = study_factors(histories, SWEEP_FIELDS, SWEEP_PERCENTILES)
    assert with_profiles(scn, {f.name: f.levels[1] for f in factors}) == scn
