import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from coopt import bnb
from coopt.scenario import (
    BssSpec,
    CompartmentSpec,
    DemandProfile,
    HubSpec,
    JointTerms,
    PriceProfiles,
    ReserveProbabilities,
    ScenarioInputs,
)


@pytest.fixture
def gmi_cuts(monkeypatch):
    """The list of every row that the root cut rounds of ``solve_milp`` make, in order."""
    made = []
    real = bnb._gmi_rows

    def recording(*args):
        rows = real(*args)
        made.extend(rows)
        return rows

    monkeypatch.setattr(bnb, "_gmi_rows", recording)
    return made


def compartment(
    cap=4000.0,
    min_level=0.0,
    max_charge=3000.0,
    max_discharge=3000.0,
    unit_cost=1_000_000.0,
    battery_capacity=4000.0,
    life_slope=-0.004,
    initial_level=2000.0,
):
    return CompartmentSpec(
        cap, min_level, max_charge, max_discharge, unit_cost, battery_capacity,
        life_slope, initial_level,
    )


def tiny_scenario(T=2, K=1, *, demand_level=100.0, seed=0, lease_markup=1.0):
    """Small deterministic scenario for structural tests."""
    import numpy as np

    rng = np.random.default_rng(seed)
    lam_da = tuple(0.03 + 0.05 * rng.random() for _ in range(T))
    lam_rt = tuple(0.02 + 0.12 * rng.random() for _ in range(T))
    lam_up = tuple(0.01 + 0.02 * rng.random() for _ in range(T))
    lam_dn = tuple(0.005 + 0.01 * rng.random() for _ in range(T))
    prices = PriceProfiles(lam_da, lam_rt, lam_up, lam_dn)
    probs = ReserveProbabilities(
        tuple(0.5 + 0.4 * rng.random() for _ in range(T)),
        tuple(0.5 + 0.4 * rng.random() for _ in range(T)),
        tuple(0.1 + 0.3 * rng.random() for _ in range(T)),
        tuple(0.1 + 0.3 * rng.random() for _ in range(T)),
    )
    demand = DemandProfile(tuple(demand_level * (0.5 + rng.random()) for _ in range(T)))
    hub = HubSpec(tuple(2.0 * d for d in demand.ev_load), station_count=10, station_rate=100.0)
    comp = compartment()
    bss = BssSpec(tuple(comp for _ in range(K)))
    from coopt.models import marginal_degradation_rate

    joint = JointTerms(lease_markup, marginal_degradation_rate(comp))
    return ScenarioInputs(prices, probs, demand, hub, bss, joint)
