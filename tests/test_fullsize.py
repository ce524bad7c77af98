"""Full-size (T=24) solves of the bundled scenarios against HiGHS objectives.

The reference values come from ``scipy.optimize.milp`` (HiGHS) on the same
models; each ``coopt`` objective must lie within the 5e-4 relative gap that
branch-and-bound certifies, and a search stopped by its node budget must
report a bound on the far side of the reference.  Two root LPs are checked
against the LP relaxation's optimum from HiGHS.
"""

from pathlib import Path

import pytest

from coopt import bargain, presets
from coopt.bargain import (
    START_SLOPES,
    DisagreementPoints,
    _gain_model,
    _nash_model,
    _weighted,
    solve_study,
    solve_tcm,
)
from coopt.bnb import BUDGET_EXHAUSTED, OPTIMAL_WITHIN_GAP, solve_milp
from coopt.io import load_scenario
from coopt.linear import GE, MAX, MIN, add_constraint, with_objective
from coopt.models import build_p1, build_p2, build_p3
from coopt.scenario import with_profiles
from coopt.simplex import OPTIMAL, SimplexSolver
from coopt.simulate import percentile_profiles

from oracles import highs_objective, var_layout

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GAP = 5e-4
TCM_MEDIAN_K2 = 872.5135  # HiGHS; the TCM MILP maximizes its negation
TCM_MEDIAN = -3030.0467  # HiGHS
NBS_K1 = 19936.615  # HiGHS's Nash product on presets.build_scenario(K=1), perfbench/references.json
NBS_MEDIAN_K2 = 75468.967  # HiGHS's Nash product on median_k2, rounded to 5e-4


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
    tcm = solve_tcm(p3, DisagreementPoints(0.0, 0.0), GAP)
    assert within_gap(tcm.f_a - tcm.f_b, TCM_MEDIAN_K2)


def test_median_total_cost_minimum():
    # six equal compartments: the priced bound certifies the priced point, with no search
    # on the whole model, which ran out of time before the bound did
    tcm = solve_study(load_scenario(SCENARIOS / "median.scenario"), "tcm").tcm
    assert within_gap(tcm.f_a - tcm.f_b, TCM_MEDIAN)


def test_preset_k1_nash_bargain(monkeypatch):
    # the benchmark's one-compartment scenario: one branch-and-bound on the Nash cut
    # model, which adds its tangent rows inside the tree
    real_solve = bargain.solve_milp
    cut_models = []

    def recording(model, *args, **kwargs):
        if model.variables[-1].name == "nash_gamma":
            cut_models.append(model)
        return real_solve(model, *args, **kwargs)

    monkeypatch.setattr(bargain, "solve_milp", recording)
    result = solve_study(presets.build_scenario(K=1), "nbs").bargain
    assert len(cut_models) == 1
    assert within_gap(result.nbs.product, NBS_K1)
    assert result.bound >= result.nbs.product


def test_median_k2_nash_bargain_brackets_the_optimum(median_k2):
    # the Nash tree stops at its node budget here, so its bound is what it proved:
    # it must lie above the optimum, and the product below it, up to the rounding
    result = solve_study(median_k2, "nbs").bargain
    assert result.bound >= NBS_MEDIAN_K2 - 5e-4
    assert result.nbs.product <= NBS_MEDIAN_K2 + 5e-4
    assert result.bound >= result.nbs.product


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


def test_median_storage_by_block():
    # solve_study solves the six equal compartments as one block
    p2 = solve_study(load_scenario(SCENARIOS / "median.scenario"), "p2").p2
    assert p2.status == OPTIMAL_WITHIN_GAP
    assert within_gap(p2.objective, 3647.4689)


def test_sweep_cell_root_lp_is_solved():
    # the one-compartment sweep cell at the DA 10th, RT 90th and demand 10th
    # percentiles of `coopt sweep --seed 0 --days 30`; at its lowest storage
    # floor, a ratio test that lets a tiny pivot block ends the cold solve `singular`
    scn = presets.build_scenario(K=1, seed=7, compartment_spread=0.0)
    histories, _ = presets.study_histories(0, 30, scn.hub)
    cell = with_profiles(scn, {
        "lambda_da": percentile_profiles(histories["lambda_da"], 10.0),
        "lambda_rt": percentile_profiles(histories["lambda_rt"], 90.0),
        "ev_load": percentile_profiles(histories["ev_load"], 10.0),
    })
    p3 = build_p3(cell.hub, cell.bss, cell.prices, cell.probabilities, cell.demand, cell.joint)
    d = DisagreementPoints(570.3599, 606.8837)  # the cell's P1 and P2 optima, rounded
    model = _gain_model(p3, d, p3.obj_a, MIN)
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(highs_objective(model, relax=True), rel=1e-6)


def test_first_nash_cut_lp_is_solved_cold():
    # the root LP of the first cut model `solve_nbs` builds on the benchmark's
    # one-compartment scenario, solved from the slack basis; there only the
    # Nash variable has a cost, and a dual ratio test that ties at zero on the
    # other columns took a tiny pivot and stopped `singular`
    scn = presets.build_scenario(K=1)
    d = DisagreementPoints(solve_study(scn, "p1").p1.objective, solve_study(scn, "p2").p2.objective)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    model = _nash_model(p3, d, START_SLOPES)
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(highs_objective(model, relax=True), rel=1e-9)


def test_ordered_compartments_root_lp_is_solved():
    # the K=6 total-cost LP with five valid rows that order its identical
    # compartments by total stored level; from the slack basis, shifting the
    # wrong-signed reduced costs to exactly zero leaves the dual ratio test
    # ties at zero, and the solve stops `singular`
    scn = load_scenario(SCENARIOS / "median.scenario")
    model = tcm_milp(scn)
    layout = var_layout(model)
    T = len(scn.prices.lambda_da)

    def stored(k):
        families = ("stored_bss", "stored_hub")
        return [layout[f"{family}[{t},{k}]"] for family in families for t in range(T)]

    for k in range(scn.bss.k - 1):
        coeffs = dict.fromkeys(stored(k), 1.0) | dict.fromkeys(stored(k + 1), -1.0)
        add_constraint(model, coeffs, GE, 0.0, f"order_stored[{k}]")
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(highs_objective(model, relax=True), rel=1e-6)
