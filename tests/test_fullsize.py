"""Full-size (T=24) solves of the bundled scenarios against HiGHS objectives.

The reference values come from ``scipy.optimize.milp`` (HiGHS) on the same
models; each ``coopt`` objective must lie within the 5e-4 relative gap that
branch-and-bound certifies, and a search stopped by its node budget must
report a bound on the far side of the reference.
"""

from pathlib import Path

import pytest

from coopt.bargain import _weighted, solve_tcm
from coopt.bnb import BUDGET_EXHAUSTED, OPTIMAL_WITHIN_GAP, solve_milp
from coopt.io import load_scenario
from coopt.linear import MAX, with_objective
from coopt.models import build_p1, build_p2, build_p3

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GAP = 5e-4
TCM_MEDIAN_K2 = 872.5135  # HiGHS; the TCM MILP maximizes its negation


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
    assert within_gap(tcm.f_a - tcm.f_b, TCM_MEDIAN_K2)


def tcm_milp(scn):
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    return with_objective(p3.base, _weighted(p3, 1.0), MAX)


@pytest.mark.parametrize("budget", [20, 100])
def test_median_k2_total_cost_bound_at_a_node_budget(median_k2, budget):
    sol = solve_milp(tcm_milp(median_k2), GAP, budget)
    assert sol.status == BUDGET_EXHAUSTED
    # a maximization: the incumbent lies below the optimum and the bound above it,
    # up to the reference's rounding
    assert sol.objective <= -TCM_MEDIAN_K2 + 1e-4
    assert sol.bound >= -TCM_MEDIAN_K2 - 1e-4


def test_median_k2_total_cost_search_repeats(median_k2):
    model = tcm_milp(median_k2)
    first, second = solve_milp(model, GAP), solve_milp(model, GAP)
    assert first.status == OPTIMAL_WITHIN_GAP
    assert first.nodes == second.nodes
    assert first.incumbent.tobytes() == second.incumbent.tobytes()
    assert first.bound == second.bound


def test_median_storage():
    scn = load_scenario(SCENARIOS / "median.scenario")
    p2 = solve_milp(build_p2(scn.bss, scn.prices, scn.probabilities), GAP)
    assert p2.status == OPTIMAL_WITHIN_GAP
    assert within_gap(p2.objective, 3647.4689)
