"""Full-size (T=24) solves of the bundled scenarios against HiGHS objectives.

The reference values come from ``scipy.optimize.milp`` (HiGHS) on the same
models; each ``coopt`` objective must lie within the 5e-4 relative gap that
branch-and-bound certifies.
"""

from pathlib import Path

import pytest

from coopt.bargain import solve_tcm
from coopt.bnb import OPTIMAL_WITHIN_GAP, solve_milp
from coopt.io import load_scenario
from coopt.models import build_p1, build_p2, build_p3

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GAP = 5e-4


def within_gap(value, reference):
    return abs(value - reference) <= GAP * max(1.0, abs(reference))


@pytest.fixture(scope="module")
def median_k2():
    return load_scenario(SCENARIOS / "median_k2.scenario")


def test_median_k2_hub_and_storage(median_k2):
    scn = median_k2
    p1 = solve_milp(build_p1(scn.hub, scn.prices, scn.demand), GAP)
    p2 = solve_milp(build_p2(scn.bss, scn.prices, scn.probabilities), GAP)
    assert p1.status == p2.status == OPTIMAL_WITHIN_GAP
    assert within_gap(p1.objective, 2746.2251)
    assert within_gap(p2.objective, 1185.4274)


def test_median_k2_total_cost_minimum(median_k2):
    scn = median_k2
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    tcm = solve_tcm(p3, GAP)
    assert within_gap(tcm.f_a - tcm.f_b, 872.5135)


def test_median_storage():
    scn = load_scenario(SCENARIOS / "median.scenario")
    p2 = solve_milp(build_p2(scn.bss, scn.prices, scn.probabilities), GAP)
    assert p2.status == OPTIMAL_WITHIN_GAP
    assert within_gap(p2.objective, 3647.4689)
