"""Stochastic demand generation, reserve-market clearing, and history statistics.

Randomness comes from Philox counter-based generators keyed by ``(seed, hour)``
(and day where applicable), so each hour owns an independent stream: extending
the horizon or reordering hours never perturbs draws already taken.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class BidStack:
    """One hour of one product: participant offers plus the cleared requirement."""

    offers: tuple[tuple[float, float], ...]
    requirement: float

    def __post_init__(self):
        object.__setattr__(self, "offers", tuple((float(p), float(q)) for p, q in self.offers))
        for i, (_, q) in enumerate(self.offers):
            if q <= 0:
                raise ValueError(f"offers[{i}]: quantity {q} must be > 0")
        if self.requirement < 0:
            raise ValueError(f"requirement {self.requirement} must be >= 0")

    @property
    def total_offered(self) -> float:
        return sum(q for _, q in self.offers)


@dataclass(frozen=True)
class ClearingOutcome:
    clearing_price: float | None
    accepted: tuple[float, ...]
    accepted_quantity: float
    deployed_quantity: float = 0.0
    shortfall: bool = False

    def __post_init__(self):
        if self.deployed_quantity > self.accepted_quantity + 1e-9:
            raise ValueError("deployed quantity exceeds accepted quantity")


def clear_reserve_market(stack: BidStack) -> ClearingOutcome:
    """Merit-order clearing: accept offers price-ascending until the
    requirement is met; the marginal offer may be split and sets the clearing
    price."""
    accepted = [0.0] * len(stack.offers)
    if stack.requirement == 0.0:
        return ClearingOutcome(None, tuple(accepted), 0.0)
    order = sorted(range(len(stack.offers)), key=lambda i: (stack.offers[i][0], i))
    remaining = stack.requirement
    price = None
    for i in order:
        if remaining <= 0.0:
            break
        p, q = stack.offers[i]
        take = min(q, remaining)
        accepted[i] = take
        remaining -= take
        price = p
    shortfall = remaining > 1e-9
    total = stack.requirement - max(remaining, 0.0)
    return ClearingOutcome(price, tuple(accepted), total, 0.0, shortfall)


@dataclass(frozen=True)
class MarketRecord:
    """One cleared hour of one reserve product, tagged with the day it was
    cleared on and its hour of day."""

    day: int
    hour: int
    side: str  # "up" | "dn"
    stack: BidStack
    outcome: ClearingOutcome

    def __post_init__(self):
        if self.side not in ("up", "dn"):
            raise ValueError(f"side must be 'up' or 'dn', got {self.side!r}")


def estimate_probabilities(records, horizon: int = 24) -> ReserveProbabilities:
    """Empirical acceptance and deployment rates per hour of day.

    Acceptance counts offers with any accepted quantity over all offers;
    deployment divides total deployed energy by total accepted energy.  Hours
    with accepted energy but no deployment data give 0; hours with no records
    at all are an error.
    """
    by_bucket: dict[tuple[str, int], list[MarketRecord]] = {}
    for rec in records:
        if not 0 <= rec.hour < horizon:
            raise ValueError(f"record hour {rec.hour} outside horizon {horizon}")
        by_bucket.setdefault((rec.side, rec.hour), []).append(rec)

    out = {"up": ([0.0] * horizon, [0.0] * horizon), "dn": ([0.0] * horizon, [0.0] * horizon)}
    for side in ("up", "dn"):
        acc, dep = out[side]
        for t in range(horizon):
            bucket = by_bucket.get((side, t))
            if not bucket:
                raise ValueError(f"no {side} records for hour {t}")
            n_offers = sum(len(rec.stack.offers) for rec in bucket)
            n_accepted = sum(
                sum(1 for q in rec.outcome.accepted if q > 0.0) for rec in bucket
            )
            acc[t] = n_accepted / n_offers if n_offers else 0.0
            total_accepted = sum(rec.outcome.accepted_quantity for rec in bucket)
            total_deployed = sum(rec.outcome.deployed_quantity for rec in bucket)
            if total_accepted <= 0.0:
                warnings.warn(f"hour {t} ({side}): no accepted energy, deployment rate set to 0")
                dep[t] = 0.0
            else:
                dep[t] = min(total_deployed / total_accepted, 1.0)
    return ReserveProbabilities(
        tuple(out["up"][0]), tuple(out["dn"][0]), tuple(out["up"][1]), tuple(out["dn"][1])
    )


def percentile_profiles(history, p: float):
    """Per-hour percentile across days; linear interpolation between order stats."""
    arr = np.asarray(history, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"history must be (days, hours) with >= 1 day, got shape {arr.shape}")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    return np.percentile(arr, p, axis=0, method="linear")
