"""Synthetic case-study inputs: charging demand, prices, reserve-market history.

The shipped profiles stand in for the proprietary traffic counts, electricity
prices, and reserve-bid archives behind the original study; they reproduce the
qualitative shapes (commuter traffic peaks, cheap overnight day-ahead power,
spiky real-time evening prices) so the full pipeline runs end to end.  Each
history is drawn from this module's constants by one generator, deterministic
in ``(seed, days)``: :func:`synthetic_demand_history` and
:func:`synthetic_price_history` give ``(days, 24)`` arrays, and
:func:`synthetic_market_history` holds each side of the reserve market as
arrays by day, hour and offer.  :func:`study_histories` keys them all by the
scenario field they stand for.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace

import numpy as np

from .models import marginal_degradation_rate
from .scenario import (
    BssSpec,
    CompartmentSpec,
    DemandProfile,
    HubSpec,
    JointTerms,
    PriceProfiles,
    ReserveProbabilities,
    ScenarioInputs,
    with_profiles,
)
from .simulate import clear_reserve_market, estimate_probabilities, percentile_profiles, stream

HOURS = 24
STATION_COUNT = 150
STATION_RATE = 100.0  # kW per station
TRAFFIC_SCALE = 4.0  # the hub's traffic per unit of the commuter shape below
LEASE_MARKUP = 1.0
# the preset hub; its commitment cap comes with the demand written into a scenario
PRESET_HUB = HubSpec((0.0,) * HOURS, STATION_COUNT, STATION_RATE)
PRESET_COMPARTMENT = CompartmentSpec(
    cap=4000.0,
    min_level=500.0,
    max_charge=3000.0,
    max_discharge=3000.0,
    unit_cost=1_200_000.0,
    battery_capacity=4000.0,
    life_slope=-0.005,
    initial_level=500.0,
)

# synthetic charging demand: the EV share of traffic, the share of those that
# rely on public charging, the hourly probability that such a vehicle charges
# (a flat placeholder), the battery sizes (kWh) and their shares, and the
# bounds of the uniform fraction of its battery that a vehicle asks for
EV_SHARE = 0.25
PUBLIC_CHARGE_SHARE = 0.42
CHARGE_PROB = 0.1
BATTERY_SIZES = (50.0, 75.0, 100.0)
BATTERY_SHARES = (0.3, 0.4, 0.3)
SOC_BOUNDS = (0.05, 0.95)

# synthetic reserve market: offers per hour and side, offer sizes (kWh), the
# cleared requirement as a fraction of the total offered, and the spread of
# offer prices around the hour's price shape
MARKET_PARTICIPANTS = 6
OFFER_QTY_RANGE = (500.0, 3000.0)
REQUIREMENT_RANGE = (0.25, 0.65)
PRICE_SPREAD = 0.5

# commuter double peak, vehicles per hour
_TRAFFIC_SHAPE = (
    220, 160, 130, 120, 150, 320, 700, 1050, 1200, 950, 780, 760,
    800, 820, 860, 980, 1180, 1320, 1250, 980, 720, 540, 400, 290,
)

# day-ahead price shape, $/kWh: deep overnight trough, high daytime plateau
_DA_SHAPE = (
    0.030, 0.028, 0.027, 0.026, 0.027, 0.032, 0.075, 0.108, 0.124, 0.130, 0.132, 0.130,
    0.128, 0.130, 0.132, 0.132, 0.132, 0.132, 0.128, 0.120, 0.104, 0.080, 0.052, 0.036,
)

# real-time deviation factor per hour: spiky in the evening ramp
_RT_FACTOR = (
    0.92, 0.90, 0.89, 0.90, 0.92, 0.96, 1.00, 1.02, 1.03, 1.03, 1.02, 1.02,
    1.03, 1.04, 1.05, 1.06, 1.10, 1.26, 1.28, 1.12, 1.04, 0.99, 0.95, 0.92,
)

# up capacity is scarce (and priced) around the evening ramp, nearly free at
# night; down capacity mirrors it, wanted when the system is long overnight
_UP_PRICE_SHAPE = (
    0.002, 0.001, 0.001, 0.001, 0.001, 0.002, 0.006, 0.012, 0.014, 0.012, 0.011, 0.011,
    0.012, 0.013, 0.016, 0.022, 0.034, 0.050, 0.046, 0.034, 0.018, 0.009, 0.004, 0.002,
)

_DN_PRICE_SHAPE = (
    0.010, 0.012, 0.013, 0.013, 0.012, 0.009, 0.005, 0.003, 0.002, 0.002, 0.002, 0.002,
    0.002, 0.002, 0.002, 0.002, 0.001, 0.001, 0.001, 0.001, 0.002, 0.004, 0.006, 0.008,
)

# deployment is rare relative to acceptance except on the evening ramp, where
# up calls are concentrated; standby pays, calls are sparse
_DEP_UP_TARGET = (
    0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.02, 0.02, 0.02, 0.02, 0.02,
    0.02, 0.02, 0.02, 0.03, 0.06, 0.10, 0.10, 0.06, 0.03, 0.02, 0.01, 0.01,
)

_DEP_DN_TARGET = (
    0.03, 0.03, 0.03, 0.03, 0.03, 0.02, 0.02, 0.01, 0.01, 0.01, 0.01, 0.01,
    0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.02, 0.02, 0.03,
)


def synthetic_demand_history(seed: int, days: int, hub: HubSpec):
    """(days, 24) hourly charging demand at the hub, kWh.

    Each hour draws from its own stream: the vehicles that could charge, a
    Poisson count at the EV and public-charging shares of ``TRAFFIC_SCALE``
    times the hour's traffic shape; those that do, at ``CHARGE_PROB``; each
    one's battery size; and the fraction of it that each asks for.  Each
    hour's demand is capped by the hub's service capacity.
    """
    sizes = np.array(BATTERY_SIZES)
    load = np.zeros((days, HOURS))
    for day in range(days):
        for t in range(HOURS):
            rng = stream(seed, t, day)
            rate = EV_SHARE * PUBLIC_CHARGE_SHARE * (TRAFFIC_SCALE * _TRAFFIC_SHAPE[t])
            candidates = int(rng.poisson(rate))
            n = int(rng.binomial(candidates, CHARGE_PROB)) if candidates else 0
            if n:
                drawn = sizes[rng.choice(len(sizes), size=n, p=BATTERY_SHARES)]
                fractions = rng.uniform(*SOC_BOUNDS, size=n)
                load[day, t] = min(float(np.sum(drawn * fractions)), hub.max_hourly_service)
    return load


def synthetic_price_history(seed: int, days: int):
    """(days, 24) day-ahead and real-time price paths, $/kWh."""
    da = np.empty((days, HOURS))
    rt = np.empty((days, HOURS))
    for day in range(days):
        for t in range(HOURS):
            rng = stream(seed, t, day, 0)
            day_level = 0.8 + 0.5 * rng.random()
            da[day, t] = _DA_SHAPE[t] * day_level * (0.95 + 0.1 * rng.random())
            spike = rng.random()
            rt_mult = _RT_FACTOR[t] * (0.75 + 0.5 * rng.random())
            if spike > 0.96:  # occasional scarcity spike
                rt_mult *= 2.5
            rt[day, t] = da[day, t] * rt_mult
    return da, rt


def synthetic_market_history(seed: int, days: int):
    """Both sides of the cleared reserve market, keyed ``"up"`` and ``"dn"``.

    Each side maps ``price``, ``qty`` and ``accepted`` to ``(days, 24,
    MARKET_PARTICIPANTS)`` arrays of offers, and ``cleared``, ``deployed``
    and ``clearing_price`` to ``(days, 24)`` arrays, the last NaN where
    nothing was required.  Each hour's draws come from its own stream: the
    offers, then the requirement as a share of the total offered, then
    whether the hour's cleared energy is deployed.
    """
    market = {}
    for side, key, shape, dep_target in (
        ("up", 1, _UP_PRICE_SHAPE, _DEP_UP_TARGET),
        ("dn", 2, _DN_PRICE_SHAPE, _DEP_DN_TARGET),
    ):
        price = np.empty((days, HOURS, MARKET_PARTICIPANTS))
        qty = np.empty_like(price)
        requirement = np.empty((days, HOURS))
        called = np.empty((days, HOURS), dtype=bool)
        for day in range(days):
            for t in range(HOURS):
                rng = stream(seed, t, day, key)
                for i in range(MARKET_PARTICIPANTS):
                    spread = 1.0 - PRICE_SPREAD / 2 + PRICE_SPREAD * rng.random()
                    price[day, t, i] = shape[t] * spread
                    qty[day, t, i] = rng.uniform(*OFFER_QTY_RANGE)
                requirement[day, t] = rng.uniform(*REQUIREMENT_RANGE) * sum(qty[day, t])
                called[day, t] = rng.random() < dep_target[t]
        accepted, cleared, clearing_price = clear_reserve_market(price, qty, requirement)
        market[side] = {
            "price": price,
            "qty": qty,
            "accepted": accepted,
            "cleared": cleared,
            "deployed": np.where(called, cleared, 0.0),
            "clearing_price": clearing_price,
        }
    return market


def study_histories(seed: int, days: int, hub: HubSpec):
    """The case study's synthetic histories and cleared reserve market.

    Each history is a ``(days, 24)`` array keyed by the scenario field it
    stands for: the day-ahead and real-time price paths, the reserve clearing
    prices, the hub's demand (:func:`synthetic_demand_history`), and each
    day's empirical acceptance and deployment rates,
    :func:`estimate_probabilities` of that day's slice of the market.  The
    market, :func:`synthetic_market_history`, gives the rates pooled over all
    days.
    """
    da, rt = synthetic_price_history(seed, days)
    market = synthetic_market_history(seed, days)
    histories = {
        "lambda_da": da,
        "lambda_rt": rt,
        "lambda_up": market["up"]["clearing_price"],
        "lambda_dn": market["dn"]["clearing_price"],
        "ev_load": synthetic_demand_history(seed, days, hub),
    }
    daily = [
        estimate_probabilities({
            side: {name: a[day:day + 1] for name, a in arrays.items()}
            for side, arrays in market.items()
        })
        for day in range(days)
    ]
    for f in fields(ReserveProbabilities):
        histories[f.name] = np.array([getattr(probs, f.name) for probs in daily])
    return histories, market


def build_scenario(
    *, K: int = 2, seed: int = 7, days: int = 30, compartment_spread: float = 0.0
) -> ScenarioInputs:
    """Assemble the full synthetic scenario at median inputs.

    Demand and every price curve are the per-hour median of their
    :func:`study_histories`; reserve probabilities are the empirical rates
    pooled over the same days.  A nonzero ``compartment_spread`` shrinks
    successive compartments by that fraction, which removes
    interchangeable-compartment symmetry from the search trees.
    """
    comp = PRESET_COMPARTMENT
    compartments = []
    for k in range(K):
        shrink = 1.0 - compartment_spread * k
        compartments.append(
            replace(
                comp,
                cap=comp.cap * shrink,
                max_charge=comp.max_charge * shrink,
                max_discharge=comp.max_discharge * shrink,
                battery_capacity=comp.battery_capacity * shrink,
                unit_cost=comp.unit_cost * shrink,
            )
        )
    joint = JointTerms(LEASE_MARKUP, marginal_degradation_rate(comp))
    histories, market = study_histories(seed, days, PRESET_HUB)
    pooled = asdict(estimate_probabilities(market))
    medians = {
        name: percentile_profiles(history, 50.0)
        for name, history in histories.items()
        if name not in pooled
    }
    zeros = (0.0,) * HOURS
    blank = ScenarioInputs(
        PriceProfiles(zeros, zeros, zeros, zeros),
        ReserveProbabilities(zeros, zeros, zeros, zeros),
        DemandProfile(zeros),
        PRESET_HUB,
        BssSpec(tuple(compartments)),
        joint,
    )
    return with_profiles(blank, {**medians, **pooled})
