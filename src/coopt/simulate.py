"""Random streams, reserve-market clearing, and history statistics.

Randomness comes from Philox counter-based generators keyed by ``(seed, hour,
day, ...)``, so each hour owns an independent stream: extending the horizon
or reordering hours never perturbs draws already taken.  The reserve market
is held as arrays: each side's offers by day, hour and offer, and its cleared
hours by day and hour.  :func:`clear_reserve_market` clears every hour at
once, and :func:`estimate_probabilities` reduces the arrays of any run of
days, one day's slice included.  The histories themselves are drawn in
:mod:`coopt.presets`.
"""

from __future__ import annotations

import warnings

import numpy as np

from .scenario import ReserveProbabilities


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (seed, hour[, day, ...]) coordinate."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key))))


def clear_reserve_market(price, qty, requirement):
    """Merit-order clearing of every hour at once.

    ``price`` and ``qty`` hold each hour's offers on their last axis, and
    ``requirement`` holds one value per hour.  Each hour accepts its offers
    price-ascending, ties to the lower index, until its requirement is met;
    the marginal offer may be split and sets the clearing price.  Returns the
    accepted quantity of each offer, each hour's cleared total (its
    requirement less any shortfall) and its clearing price, NaN where nothing
    is required.
    """
    requirement = np.asarray(requirement, dtype=float)
    order = np.argsort(price, axis=-1, kind="stable")
    price, qty = (np.take_along_axis(np.asarray(a, dtype=float), order, -1) for a in (price, qty))
    taken = np.zeros_like(qty)
    clearing_price = np.full(requirement.shape, np.nan)
    remaining = requirement.copy()
    for j in range(qty.shape[-1]):
        open_ = remaining > 0.0
        taken[..., j] = np.where(open_, np.minimum(qty[..., j], remaining), 0.0)
        clearing_price = np.where(open_, price[..., j], clearing_price)
        remaining -= taken[..., j]
    accepted = np.empty_like(taken)
    np.put_along_axis(accepted, order, taken, -1)
    return accepted, requirement - np.maximum(remaining, 0.0), clearing_price


def estimate_probabilities(market) -> ReserveProbabilities:
    """Empirical acceptance and deployment rates per hour of day.

    ``market`` maps each side, ``"up"`` and ``"dn"``, to its cleared history:
    ``accepted`` by day, hour and offer, and ``cleared`` and ``deployed`` by
    day and hour (see :func:`~coopt.presets.synthetic_market_history`).
    Acceptance counts offers with any accepted quantity over all offers;
    deployment divides the deployed energy by the accepted energy, each
    summed over the days in day order.  An hour with no accepted energy
    gives 0, with a warning.
    """
    rates = {}
    for side in ("up", "dn"):
        accepted = market[side]["accepted"]
        days, hours, offers = accepted.shape
        rates[f"acc_{side}"] = (accepted > 0.0).sum(axis=(0, 2)) / (days * offers)
        total_accepted, total_deployed = sum(market[side]["cleared"]), sum(market[side]["deployed"])
        for t in np.flatnonzero(total_accepted <= 0.0):
            warnings.warn(f"hour {t} ({side}): no accepted energy, deployment rate set to 0")
        rates[f"dep_{side}"] = np.divide(
            total_deployed, total_accepted, out=np.zeros(hours), where=total_accepted > 0.0
        ).clip(max=1.0)
    return ReserveProbabilities(**rates)


def percentile_profiles(history, p: float):
    """Per-hour percentile across days; linear interpolation between order stats."""
    arr = np.asarray(history, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"history must be (days, hours) with >= 1 day, got shape {arr.shape}")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    return np.percentile(arr, p, axis=0, method="linear")
