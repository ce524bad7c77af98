"""Stochastic demand generation, reserve-market clearing, and history statistics.

Randomness comes from Philox counter-based generators keyed by ``(seed, hour)``
(and day where applicable), so each hour owns an independent stream: extending
the horizon or reordering hours never perturbs draws already taken.  The
reserve market is held as arrays: each side's offers by day, hour and offer,
and its cleared hours by day and hour.  :func:`clear_reserve_market` clears
every hour at once, and :func:`estimate_probabilities` reduces the arrays of
any run of days, one day's slice included.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .scenario import DemandProfile, HubSpec, ReserveProbabilities


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (seed, hour[, day, ...]) coordinate."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(key))))


@dataclass(frozen=True)
class DemandGenConfig:
    """Compound traffic -> charging-demand generator parameters.

    ``ev_share`` is the EV fraction of traffic and ``public_charge_share`` the
    fraction of those relying on public charging; ``charge_prob`` is the hourly
    probability that a candidate vehicle actually charges.  Battery sizes are a
    discrete mixture, and each vehicle requests a uniform fraction of its size
    between the two ``soc_bounds``.
    """

    traffic: tuple[float, ...]
    ev_share: float
    public_charge_share: float
    charge_prob: tuple[float, ...]
    battery_sizes: tuple[tuple[float, float], ...]
    soc_bounds: tuple[float, float]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "traffic", tuple(float(v) for v in self.traffic))
        object.__setattr__(self, "charge_prob", tuple(float(v) for v in self.charge_prob))
        object.__setattr__(
            self, "battery_sizes", tuple((float(s), float(p)) for s, p in self.battery_sizes)
        )
        if not 0.0 <= self.ev_share <= 1.0:
            raise ValueError(f"ev_share {self.ev_share} outside [0, 1]")
        if not 0.0 <= self.public_charge_share <= 1.0:
            raise ValueError(f"public_charge_share {self.public_charge_share} outside [0, 1]")
        if len(self.charge_prob) != len(self.traffic):
            raise ValueError("charge_prob must have one entry per traffic hour")
        for i, p in enumerate(self.charge_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"charge_prob[{i}] {p} outside [0, 1]")
        total = sum(p for _, p in self.battery_sizes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"battery size probabilities sum to {total}, expected 1")
        lo, hi = self.soc_bounds
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"soc_bounds {self.soc_bounds} must satisfy 0 <= lo < hi <= 1")

    @property
    def horizon(self) -> int:
        return len(self.traffic)


def generate_demand(
    cfg: DemandGenConfig, hub: HubSpec | None = None, *, day: int = 0
) -> DemandProfile:
    """Draw one day of hourly charging demand; deterministic in (seed, day)."""
    sizes = np.array([s for s, _ in cfg.battery_sizes])
    size_probs = np.array([p for _, p in cfg.battery_sizes])
    lo, hi = cfg.soc_bounds
    load = []
    for t in range(cfg.horizon):
        rng = stream(cfg.seed, t, day)
        rate = cfg.ev_share * cfg.public_charge_share * cfg.traffic[t]
        candidates = int(rng.poisson(rate))
        n = int(rng.binomial(candidates, cfg.charge_prob[t])) if candidates else 0
        if n == 0:
            load.append(0.0)
            continue
        drawn = sizes[rng.choice(len(sizes), size=n, p=size_probs)]
        fractions = rng.uniform(lo, hi, size=n)
        total = float(np.sum(drawn * fractions))
        if hub is not None:
            total = min(total, hub.max_hourly_service)
        load.append(total)
    return DemandProfile(tuple(load))


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
