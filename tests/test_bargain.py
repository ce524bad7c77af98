import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from coopt import bargain, bnb
from coopt.bargain import (
    START_SLOPES,
    BargainResult,
    BudgetExhaustedError,
    DisagreementPoints,
    pareto_frontier,
    solve_nbs,
    solve_study,
    solve_tcm,
)
from coopt.bnb import (
    BUDGET_EXHAUSTED,
    DEFAULT_GAP,
    DEFAULT_NODE_BUDGET,
    OPTIMAL_WITHIN_GAP,
    MilpSolution,
    SolverError,
    _relative_gap,
    solve_milp,
)
from coopt.linear import (
    GE,
    LE,
    MAX,
    MIN,
    BiObjectiveModel,
    Constraint,
    LinearModel,
    Variable,
    add_constraint,
    objective_value,
    read_model,
    split_blocks,
    with_objective,
)
from coopt.io import load_scenario
from coopt.models import build_p1, build_p2, build_p3
from coopt.presets import build_scenario, study_histories
from coopt.scenario import (
    BssSpec,
    DemandProfile,
    HubSpec,
    PriceProfiles,
    ReserveProbabilities,
    with_profiles,
)
from coopt.simplex import _AT_LB, _BASIC, OPTIMAL, SimplexSolver, carry_basis
from coopt.simulate import percentile_profiles

from conftest import compartment, tiny_scenario
from oracles import constraint_violation, enumerate_binaries, highs_objective, verify_axioms

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def symmetric_toy():
    # two gain variables splitting a budget of 10
    base = LinearModel(
        [Variable("gain_a", 0.0, 10.0), Variable("gain_b", 0.0, 10.0)],
        [Constraint({0: 1.0, 1: 1.0}, LE, 10.0, "budget")],
        {},
        MIN,
    )
    return BiObjectiveModel(base, {0: -1.0}, {1: 1.0}), DisagreementPoints(0.0, 0.0)


def linear_frontier_toy():
    # f_a = u, f_b = 10 - u on u in [0, 10]; the fixed unit carries the constant
    base = LinearModel(
        [Variable("u", 0.0, 10.0), Variable("one", 1.0, 1.0)],
        [],
        {},
        MIN,
    )
    return BiObjectiveModel(base, {0: 1.0}, {0: -1.0, 1: 10.0}), DisagreementPoints(10.0, 0.0)


def test_symmetric_toy_splits_gains_evenly():
    p3, d = symmetric_toy()
    result = solve_nbs(p3, d, gap=1e-9)
    assert result.nbs.tau1 == pytest.approx(5.0, abs=1e-6)
    assert result.nbs.tau2 == pytest.approx(5.0, abs=1e-6)
    assert result.nbs.product == pytest.approx(25.0, abs=1e-6)
    assert result.gamma == pytest.approx(5.0, abs=1e-6)


def test_linear_frontier_toy_closed_form():
    p3, d = linear_frontier_toy()
    result = solve_nbs(p3, d, gap=1e-9)
    assert result.nbs.f_a == pytest.approx(0.0, abs=1e-6)
    assert result.nbs.f_b == pytest.approx(10.0, abs=1e-6)
    assert result.nbs.product == pytest.approx(100.0, abs=1e-4)
    assert result.gamma == pytest.approx(10.0, abs=1e-6)


def trade_off_toy():
    # genuine trade-off: raising profit f_b = u requires paying cost f_a = u
    base = LinearModel([Variable("u", 0.0, 10.0)], [], {}, MIN)
    return BiObjectiveModel(base, {0: 1.0}, {0: 1.0}), DisagreementPoints(10.0, 0.0)


def steep_toy(ratio):
    """f_a = u, f_b = ratio * u on u in [0, 10] against d = (10, 0): the bargain
    is u = 5 with gains 5 and 5 * ratio, so its tangent slope is sqrt(ratio)."""

    def toy():
        base = LinearModel([Variable("u", 0.0, 10.0)], [], {}, MIN)
        return BiObjectiveModel(base, {0: 1.0}, {0: ratio}), DisagreementPoints(10.0, 0.0)

    return toy


@pytest.mark.parametrize("ratio", [10.0, 0.1, 100.0, 0.01])
def test_gain_ratio_outside_the_starting_bracket(ratio):
    # the starting cuts are tight at ratios 1/4, 1 and 4, so the first MILP ends
    # at a corner where one side gains nothing
    p3, d = steep_toy(ratio)()
    result = solve_nbs(p3, d, gap=1e-9)
    assert result.nbs.tau1 == pytest.approx(5.0, abs=1e-6)
    assert result.nbs.tau2 == pytest.approx(5.0 * ratio, rel=1e-6)
    assert result.nbs.product == pytest.approx(25.0 * ratio, rel=1e-6)
    assert result.cuts[-1] == pytest.approx(math.sqrt(ratio), rel=1e-6)


def test_dominated_line_collapses_to_its_best_point():
    p3, d = linear_frontier_toy()
    frontier, _ = pareto_frontier(p3, d, grid_points=11, gap=1e-9)
    assert len(frontier) == 1
    assert frontier[0].f_a == pytest.approx(0.0, abs=1e-7)
    assert frontier[0].f_b == pytest.approx(10.0, abs=1e-7)


def test_frontier_recovers_line_and_is_sorted():
    p3, d = trade_off_toy()
    frontier, _ = pareto_frontier(p3, d, grid_points=11, gap=1e-9)
    assert len(frontier) >= 5
    for p in frontier:
        assert p.f_b == pytest.approx(p.f_a, abs=1e-6)  # analytic frontier f_b = f_a
        assert p.f_a <= d.d1 + 1e-7
        assert p.f_b >= d.d2 - 1e-7
    fbs = [p.f_b for p in frontier]
    fas = [p.f_a for p in frontier]
    assert all(b2 > b1 for b1, b2 in zip(fbs, fbs[1:]))
    assert all(a2 >= a1 - 1e-9 for a1, a2 in zip(fas, fas[1:]))


def test_trade_off_toy_nbs_balances_gains():
    p3, d = trade_off_toy()
    result = solve_nbs(p3, d, gap=1e-9)
    assert result.nbs.tau1 == pytest.approx(5.0, abs=1e-6)
    assert result.nbs.tau2 == pytest.approx(5.0, abs=1e-6)


def test_gamma_identity():
    p3, d = symmetric_toy()
    result = solve_nbs(p3, d, gap=1e-9)
    assert result.gamma**2 == pytest.approx(result.nbs.product, rel=1e-9)


def test_product_dominates_frontier_and_tcm():
    scn = tiny_scenario(T=2, K=1, seed=12)
    result = solve_study(scn, "nbs", grid_points=9, gap=1e-9).bargain
    for p in result.frontier:
        assert result.nbs.product >= p.product - 1e-6
    assert result.nbs.product >= result.tcm.product - 1e-6


def test_two_solves_give_the_same_point():
    p3, d = symmetric_toy()
    coarse = solve_nbs(p3, d, gap=1e-9)
    fine = solve_nbs(p3, d, gap=1e-9)
    assert fine.nbs.product >= coarse.nbs.product - 1e-6
    assert (fine.nbs.f_a, fine.nbs.f_b) == (coarse.nbs.f_a, coarse.nbs.f_b)


def test_separable_scenario_collapses_to_disagreement():
    prices = PriceProfiles((0.1,), (0.1,), (0.0,), (0.0,))
    probs = ReserveProbabilities((0.0,), (0.0,), (0.0,), (0.0,))
    demand = DemandProfile((0.0,))
    hub = HubSpec((0.0,), 1, 100.0)
    scn = replace(
        tiny_scenario(T=1, K=1), prices=prices, probabilities=probs, demand=demand, hub=hub
    )
    study = solve_study(scn, "tcm", gap=1e-9)
    p3, d, tcm = study.p3, study.d, study.tcm
    assert d.d1 == pytest.approx(0.0, abs=1e-9)
    assert d.d2 == pytest.approx(0.0, abs=1e-9)
    assert tcm.f_a == pytest.approx(d.d1, abs=1e-7)
    assert tcm.f_b == pytest.approx(d.d2, abs=1e-7)
    result = solve_nbs(p3, d, gap=1e-9)
    assert result.nbs.product == pytest.approx(0.0, abs=1e-9)
    assert result.nbs.f_a == pytest.approx(d.d1, abs=1e-7)


def test_tcm_matches_enumeration_on_toy():
    scn = tiny_scenario(T=2, K=1, seed=21)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    combined = dict(p3.obj_a)
    for j, c in p3.obj_b.items():
        combined[j] = combined.get(j, 0.0) - c
    exact = enumerate_binaries(with_objective(p3.base, combined, MIN))
    tcm = solve_tcm(p3, DisagreementPoints(0.0, 0.0), 1e-9)
    got = tcm.f_a - tcm.f_b
    assert got == pytest.approx(exact.objective, abs=1e-6)


def test_disagreement_points_zero_scenario():
    prices = PriceProfiles((0.1, 0.1), (0.1, 0.1), (0.0, 0.0), (0.0, 0.0))
    probs = ReserveProbabilities((0.0,) * 2, (0.0,) * 2, (0.0,) * 2, (0.0,) * 2)
    demand = DemandProfile((0.0, 0.0))
    hub = HubSpec((10.0, 10.0), 1, 100.0)
    scn = replace(
        tiny_scenario(T=2, K=1), prices=prices, probabilities=probs, demand=demand, hub=hub
    )
    d = solve_study(scn, "tcm", gap=1e-9).d
    assert d.d1 == pytest.approx(0.0, abs=1e-9)
    assert d.d2 == pytest.approx(0.0, abs=1e-9)


def test_axioms_on_symmetric_toy():
    p3, d = symmetric_toy()
    result = solve_nbs(p3, d, gap=1e-9)
    report = verify_axioms(result, p3, d, gap=1e-9, symmetric=True)
    assert report.individual_rationality
    assert report.pareto_optimality
    assert report.affine_invariance
    assert report.symmetry
    assert report.all_hold()


def test_axioms_when_cooperation_cannot_help():
    # admissible region is dominated: the hub objective can never reach d1
    base = LinearModel([Variable("u", 0.0, 10.0)], [], {}, MIN)
    p3 = BiObjectiveModel(base, {0: 1.0}, {0: 1.0})
    d = DisagreementPoints(-5.0, 5.0)
    result = solve_nbs(p3, d, gap=1e-9)
    assert result.frontier == []
    assert result.nbs.product == 0.0
    assert result.nbs.f_a == d.d1
    assert result.nbs.f_b == d.d2
    report = verify_axioms(result, p3, d, gap=1e-9)
    assert report.individual_rationality
    assert report.all_hold()


def test_rescaling_keeps_selected_point():
    scn = tiny_scenario(T=2, K=1, seed=30)
    study = solve_study(scn, "nbs", grid_points=9, gap=1e-9)
    p3, d, result = study.p3, study.d, study.bargain
    report = verify_axioms(result, p3, d, gap=1e-9, rescale=3.0)
    assert report.affine_invariance, report.details


def gains_toy():
    # 4 binaries; leasing pays both sides, so the bargain has a positive product
    study = solve_study(tiny_scenario(T=2, K=1, seed=1, lease_markup=3.0), "tcm", gap=1e-9)
    return study.p3, study.d


def cannot_help_toy():
    base = LinearModel([Variable("u", 0.0, 10.0)], [], {}, MIN)
    return BiObjectiveModel(base, {0: 1.0}, {0: 1.0}), DisagreementPoints(-5.0, 5.0)


def scenario_toy(seed):
    def toy():
        study = solve_study(tiny_scenario(T=2, K=1, seed=seed), "tcm", gap=1e-9)
        return study.p3, study.d

    return toy


@pytest.mark.parametrize(
    "toy",
    [symmetric_toy, linear_frontier_toy, trade_off_toy, gains_toy, cannot_help_toy,
     scenario_toy(12), scenario_toy(30), steep_toy(10.0), steep_toy(0.1)],
    ids=["symmetric", "linear-frontier", "trade-off", "gains", "cannot-help", "seed-12", "seed-30",
         "steep", "flat"],
)
def test_bound_certifies_the_product(toy):
    p3, d = toy()
    gap = 1e-9
    result = solve_nbs(p3, d, gap=gap)
    assert result.bound >= result.nbs.product
    if result.nbs.product > 0.0:
        assert result.bound <= (1 + gap) * result.nbs.product
    else:  # no point gains for both sides
        assert result.bound <= 1e-12


def preset_k1():
    study = solve_study(build_scenario(K=1), "tcm")
    return study.p3, study.d


def dense_nash_model(p3, d, slopes):
    """The Nash cut model with both objectives written out in each tangent row,
    and the rows f_a <= d1 and f_b >= d2."""
    model = bargain._gain_model(p3, d, {}, MAX)
    gamma = model.n
    model.variables.append(Variable("nash_gamma", 0.0, math.inf))
    model.objective[gamma] = 1.0
    for t in slopes:
        coeffs = {j: -c / t for j, c in bargain._weighted(p3, t * t).items()}
        coeffs[gamma] = 2.0
        add_constraint(model, coeffs, LE, t * d.d1 - d.d2 / t)
    return model


@pytest.mark.parametrize("toy", [gains_toy, preset_k1], ids=["gains", "preset-k1"])
def test_three_nonzero_tangent_rows_cut_what_the_dense_ones_cut(toy, monkeypatch):
    p3, d = toy()
    slopes = (*START_SLOPES, 0.3, 5.0)
    model = bargain._nash_model(p3, d, slopes)
    assert model.variables[-1].name == "nash_gamma"
    root = SimplexSolver(model).solve()
    assert root.status == OPTIMAL
    dense = highs_objective(dense_nash_model(p3, d, slopes), relax=True)
    assert root.objective == pytest.approx(dense, rel=1e-9)
    # the rows the root and the tree add have three nonzeros too
    calls = record_solves(monkeypatch)
    solve_nbs(p3, d)
    (tree, _, _), = [call for call in calls if call[0].variables[-1].name == "nash_gamma"]
    tangents = [con for con in tree.constraints if con.name.startswith("nash_tangent")]
    assert len(tangents) > len(START_SLOPES)
    assert all(len(con.coeffs) == 3 for con in tangents)


def best_enumerated_product(p3, d, floors):
    """Largest Nash product over epsilon-constraint points whose MILPs are
    solved by enumerating the binaries; a lower bound on the bargain."""
    top_model = with_objective(p3.base, p3.obj_b, MAX)
    top_model.constraints.append(Constraint(dict(p3.obj_a), LE, d.d1))
    top = enumerate_binaries(top_model).objective
    best = 0.0
    for theta in np.linspace(d.d2, top, floors):
        model = with_objective(p3.base, p3.obj_a, MIN)
        model.constraints.append(Constraint(dict(p3.obj_a), LE, d.d1))
        model.constraints.append(Constraint(dict(p3.obj_b), GE, float(theta)))
        sol = enumerate_binaries(model)
        if sol.incumbent is not None:
            best = max(best, (d.d1 - sol.objective) * (p3.value_b(sol.incumbent) - d.d2))
    return best


def test_each_polish_starts_from_the_basis_the_one_before_ended_on(monkeypatch):
    # every polish solves the gain model: the first starts from the carried
    # disagreement basis, and the next from the first one's final basis, which
    # reaches the same point in fewer iterations
    real_polish, real_solve = bargain._polish, SimplexSolver.solve
    polishes, solves = [], []

    def polish(p3, d, start, warm):
        begin = len(solves)
        point, end = real_polish(p3, d, start, warm)
        polishes.append((start, warm, point, end, solves[begin:]))
        return point, end

    def solve(self, **kwargs):
        sol = real_solve(self, **kwargs)
        solves.append((self, kwargs, sol))
        return sol

    monkeypatch.setattr(bargain, "_polish", polish)
    monkeypatch.setattr(SimplexSolver, "solve", solve)
    bundle = solve_study(build_scenario(K=1), "nbs")
    (_, carried, _, end, first_lps), (start, warm, point, _, second_lps) = polishes[:2]
    assert carried is not None and first_lps and second_lps
    assert end is first_lps[-1][2].warm
    # the carried statuses are P3's, and the gain model's two appended rows start basic
    grown = np.append(carried, [_BASIC, _BASIC])
    assert not np.array_equal(np.flatnonzero(end == _BASIC), np.flatnonzero(grown == _BASIC))
    lp, kwargs, sol = second_lps[0]
    assert warm is end and kwargs["warm"] is end
    again = SimplexSolver(lp.model).solve(lb=kwargs["lb"], ub=kwargs["ub"], warm=carried)
    assert sol.iterations < again.iterations
    assert sol.objective == pytest.approx(again.objective, rel=bargain.POLISH_TOL)
    from_carried, _ = real_polish(bundle.p3, bundle.d, start, carried)
    for field in ("f_a", "f_b", "product"):
        value = getattr(point, field)
        assert abs(value - getattr(from_carried, field)) <= bargain.POLISH_TOL * max(1.0, abs(value))


def test_bound_stays_valid_when_the_cut_tree_runs_out_of_nodes(monkeypatch):
    p3, d = gains_toy()
    trees = []
    real_solve = bargain.solve_milp

    def recording(model, *args, **kwargs):
        sol = real_solve(model, *args, **kwargs)
        if model.variables[-1].name == "nash_gamma":
            trees.append(sol)
        return sol

    monkeypatch.setattr(bargain, "solve_milp", recording)
    monkeypatch.setattr(bargain, "CELL_NODE_BUDGET", 1)  # the tree gets twice that
    result = solve_nbs(p3, d, gap=1e-9)
    assert [(sol.status, sol.nodes) for sol in trees] == [(BUDGET_EXHAUSTED, 2)]
    optimum = best_enumerated_product(p3, d, 21)
    assert optimum > 0.0
    assert result.bound >= optimum * (1 - 1e-9)
    assert result.bound >= result.nbs.product
    # the bound is what the tree proved, not what its incumbent reached
    assert result.bound == pytest.approx(trees[0].bound ** 2, rel=1e-12)


def test_a_cut_tree_without_a_point_raises(monkeypatch):
    p3, d = gains_toy()
    exhausted = MilpSolution(BUDGET_EXHAUSTED, None, math.nan, 1e6, math.inf, 1)
    real_solve = bargain.solve_milp

    def nash_model_exhausted(model, *args, **kwargs):
        if model.variables[-1].name == "nash_gamma":
            return exhausted
        return real_solve(model, *args, **kwargs)

    monkeypatch.setattr(bargain, "solve_milp", nash_model_exhausted)
    with pytest.raises(BudgetExhaustedError):
        solve_nbs(p3, d, gap=1e-9)


def test_bound_below_a_found_product_raises(monkeypatch):
    # every polished point is feasible in the cut model, so a tree bound below
    # its product beyond rounding is a broken bound, not a certificate
    p3, d = symmetric_toy()
    real_solve = bargain.solve_milp

    def understated(model, *args, **kwargs):
        sol = real_solve(model, *args, **kwargs)
        if model.variables[-1].name == "nash_gamma":
            return replace(sol, bound=0.9 * sol.objective)
        return sol

    monkeypatch.setattr(bargain, "solve_milp", understated)
    with pytest.raises(SolverError):
        solve_nbs(p3, d, gap=1e-9)


@pytest.mark.parametrize("scenario", ["tiny", "median_k2"])
def test_disagreement_bases_start_the_total_cost_root_lp(scenario, monkeypatch):
    # P1's and P2's root bases, carried onto P3, reach the cold optimum of the
    # TCM root LP in fewer iterations and without a cold start
    if scenario == "tiny":
        scn = tiny_scenario(T=2, K=1, seed=1, lease_markup=3.0)
    else:
        scn = load_scenario(SCENARIOS / f"{scenario}.scenario")
    p1 = build_p1(scn.hub, scn.prices, scn.demand)
    p2 = build_p2(scn.bss, scn.prices, scn.probabilities)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    warm = carry_basis(p3.base, (p1, solve_milp(p1).root), (p2, solve_milp(p2).root))
    assert warm is not None
    tcm = with_objective(p3.base, bargain._weighted(p3, 1.0), MAX)
    cold = SimplexSolver(tcm).solve()
    assert cold.status == OPTIMAL
    monkeypatch.setattr(SimplexSolver, "_cold_start", no_cold_start)
    carried = SimplexSolver(tcm).solve(warm=warm)
    assert carried.status == OPTIMAL
    assert carried.objective == pytest.approx(cold.objective, rel=1e-9)
    assert carried.iterations < cold.iterations


def no_cold_start(self):
    raise AssertionError("the carried basis fell back to a cold start")


def three_compartments(money=1.0):
    """P2 over three hours and three compartments, the first and the last equal,
    with every price and the wear cost scaled by ``money``."""
    scn = tiny_scenario(T=3, seed=4)
    prices = PriceProfiles(
        *(tuple(money * p for p in getattr(scn.prices, f.name)) for f in fields(PriceProfiles))
    )
    equal = compartment(unit_cost=money * 1e6)
    other = compartment(cap=3000.0, max_charge=2000.0, initial_level=1000.0, unit_cost=money * 1e6)
    return build_p2(BssSpec((equal, other, equal)), prices, scn.probabilities)


def record_solves(monkeypatch):
    """Each ``solve_milp`` call of the bargaining layer, as its model and other arguments."""
    real_solve = bargain.solve_milp
    calls = []

    def recorded(model, *args, **kwargs):
        calls.append((model, args, kwargs))
        return real_solve(model, *args, **kwargs)

    monkeypatch.setattr(bargain, "solve_milp", recorded)
    return calls


def test_storage_blocks_reach_the_joint_optimum_solving_equal_blocks_once(monkeypatch):
    model = three_compartments()
    calls = record_solves(monkeypatch)
    sol = bargain._solve_by_block(model, DEFAULT_GAP, DEFAULT_NODE_BUDGET)
    solved = [block for block, _, _ in calls]
    assert [block.n for block in solved] == [model.n // 3] * 2
    assert [v.block for v in solved[1].variables] == [1] * (model.n // 3)
    assert sol.status == OPTIMAL_WITHIN_GAP
    assert sol.gap == _relative_gap(sol.objective, sol.bound) <= DEFAULT_GAP
    assert sol.objective == pytest.approx(solve_milp(model).objective, rel=DEFAULT_GAP)
    optimum = highs_objective(model)
    assert sol.objective == pytest.approx(optimum, rel=DEFAULT_GAP)
    assert sol.bound >= optimum - 1e-9 * optimum
    assert constraint_violation(model, sol.incumbent) <= 1e-7
    assert objective_value(model.objective, sol.incumbent) == pytest.approx(sol.objective, rel=1e-12)


def test_scattered_block_roots_are_an_optimal_basis_of_the_storage_model():
    model = three_compartments()
    root = bargain._solve_by_block(model, DEFAULT_GAP, DEFAULT_NODE_BUDGET).root
    lp = SimplexSolver(model).solve(warm=root)
    assert lp.status == OPTIMAL
    assert lp.iterations == 0
    assert lp.objective == pytest.approx(highs_objective(model, relax=True), rel=1e-9)


@pytest.mark.parametrize("budget", [1, 2])
def test_a_block_out_of_the_shared_budget_exhausts_the_storage_model(budget, monkeypatch):
    # the first block takes one node and leaves the second with one or none; the
    # root cuts close each block at its root, so they are left out
    monkeypatch.setattr(bnb, "CUT_ROUNDS", 0)
    model = three_compartments()
    sol = bargain._solve_by_block(model, DEFAULT_GAP, budget)
    assert sol.status == BUDGET_EXHAUSTED
    assert sol.nodes <= budget
    optimum = highs_objective(model)
    assert sol.bound >= optimum - 1e-9 * optimum
    if sol.incumbent is not None:
        assert sol.objective <= optimum + 1e-9 * optimum


def test_blocks_below_one_meet_the_gap_on_their_sums(monkeypatch):
    # every block's bound sits 0.9 of its own gap above its incumbent; a block
    # optimum below 1 makes that gap absolute, so three blocks miss the gap of
    # their sum, also below 1, until they are solved to a tighter one
    model = three_compartments(money=1e-3)
    real_solve = bargain.solve_milp
    gaps = []

    def loose(block, gap, *args, **kwargs):
        gaps.append(gap)
        sol = real_solve(block, gap, *args, **kwargs)
        assert abs(sol.objective) < 1.0
        return replace(sol, bound=sol.objective + 0.9 * gap * max(1.0, abs(sol.objective)))

    monkeypatch.setattr(bargain, "solve_milp", loose)
    sol = bargain._solve_by_block(model, DEFAULT_GAP, DEFAULT_NODE_BUDGET)
    assert gaps[:2] == [DEFAULT_GAP] * 2 and len(gaps) == 4 and max(gaps[2:]) < DEFAULT_GAP
    assert abs(sol.objective) < 1.0
    assert sol.status == OPTIMAL_WITHIN_GAP
    assert sol.gap == _relative_gap(sol.objective, sol.bound) <= DEFAULT_GAP
    assert sol.objective == pytest.approx(highs_objective(model), abs=DEFAULT_GAP)


def test_a_block_starts_from_the_root_basis_of_the_block_of_its_pattern_before_it(monkeypatch):
    # `other` differs from the first compartment in its values alone
    model = three_compartments()
    calls = record_solves(monkeypatch)
    sol = bargain._solve_by_block(model, DEFAULT_GAP, DEFAULT_NODE_BUDGET)
    (first, _, first_kwargs), (other, _, kwargs) = calls
    assert first_kwargs["warm"] is None and first_kwargs["incumbent_hint"] is None
    first_sol = solve_milp(first, DEFAULT_GAP, DEFAULT_NODE_BUDGET)  # the same search again
    assert kwargs["warm"].tolist() == first_sol.root.tolist()
    assert kwargs["incumbent_hint"].tolist() == first_sol.incumbent.tolist()
    cold = SimplexSolver(other).solve()
    warm = SimplexSolver(other).solve(warm=first_sol.root)
    assert warm.status == cold.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
    assert warm.iterations < cold.iterations
    optimum = highs_objective(model)
    assert sol.status == OPTIMAL_WITHIN_GAP
    assert sol.objective == pytest.approx(optimum, rel=DEFAULT_GAP)
    assert sol.bound >= optimum - 1e-9 * optimum


def test_a_block_starts_from_its_slice_of_a_carried_basis_or_cold(monkeypatch):
    # the first compartment's slice of the basis loses a basic column and starts cold;
    # `other` starts from its own slice, not from the first block's root
    model = three_compartments()
    root = bargain._solve_by_block(model, DEFAULT_GAP, DEFAULT_NODE_BUDGET).root
    first = int(np.flatnonzero(root == _BASIC)[0])  # a column of the first block
    assert model.variables[first].block == 0
    stat = root.copy()
    stat[first] = _AT_LB
    calls = record_solves(monkeypatch)
    bargain._solve_by_block(model, DEFAULT_GAP, DEFAULT_NODE_BUDGET, stat)
    (_, _, first_kwargs), (other, _, kwargs) = calls
    assert first_kwargs["warm"] is None
    assert kwargs["warm"].tolist() == carry_basis(other, (model, root)).tolist()
    assert SimplexSolver(other).solve(warm=kwargs["warm"]).iterations == 0


@pytest.mark.parametrize("scenario, solves", [("median", 1), ("median_k2", 2)])
def test_equal_compartments_share_one_solve(scenario, solves, monkeypatch):
    # median's six compartments are equal; median_k2's two differ
    scn = load_scenario(SCENARIOS / f"{scenario}.scenario")
    calls = record_solves(monkeypatch)
    solve_study(scn, "p2")
    assert len(calls) == solves


def _first(items, test):
    return next(item for item in items if test(item))


def _edit_rhs(model, cols, rows):
    model.constraints[_first(rows, lambda i: model.constraints[i].rhs != 0.0)].rhs *= 1.0 + 1e-6


def _edit_coefficient(model, cols, rows):
    coeffs = model.constraints[rows[0]].coeffs
    coeffs[next(iter(coeffs))] *= 1.0 + 1e-6


def _edit_bound(model, cols, rows):
    j = _first(cols, lambda j: not model.variables[j].binary and 0.0 < model.variables[j].ub < math.inf)
    model.variables[j] = replace(model.variables[j], ub=model.variables[j].ub * (1.0 - 1e-6))


def _edit_binary(model, cols, rows):
    j = _first(cols, lambda j: model.variables[j].binary)
    model.variables[j] = replace(model.variables[j], binary=False)


def _edit_objective(model, cols, rows):
    model.objective[_first(cols, lambda j: j in model.objective)] *= 1.0 + 1e-6


def _add_zero_term(zero):
    def edit(model, cols, rows):
        model.objective[_first(cols, lambda j: j not in model.objective)] = zero

    return edit


def _edit_term_order(model, cols, rows):
    con = model.constraints[_first(rows, lambda i: len(model.constraints[i].coeffs) > 1)]
    con.coeffs = dict(reversed(con.coeffs.items()))


@pytest.mark.parametrize(
    "edit, solves",
    [
        (None, 1),
        (_edit_rhs, 2),
        (_edit_coefficient, 2),
        (_edit_bound, 2),
        (_edit_binary, 2),
        (_edit_objective, 2),
        (_add_zero_term(0.0), 1),  # an explicit 0.0 term keys as a missing one
        (_add_zero_term(-0.0), 2),  # keys compare bytes, and -0.0 is not 0.0's
        (_edit_term_order, 2),  # nor is a row's with its terms in another order
    ],
)
def test_a_block_that_differs_from_its_copy_is_solved_on_its_own(edit, solves, monkeypatch):
    scn = tiny_scenario(T=3, K=2, seed=4)  # two equal compartments
    model = build_p2(scn.bss, scn.prices, scn.probabilities)
    second = split_blocks(read_model(model))[0][1]
    if edit is not None:
        edit(model, second.cols.tolist(), second.rows.tolist())
    calls = record_solves(monkeypatch)
    sol = bargain._solve_by_block(model, DEFAULT_GAP, DEFAULT_NODE_BUDGET)
    assert len(calls) == solves
    assert sol.status == OPTIMAL_WITHIN_GAP


def test_solves_leave_the_joint_model_as_built():
    # the Nash tree appends tangent rows and the frontier sets its floor row's rhs, each
    # on a copy that shares P3's Variable and Constraint objects but not its lists
    scn = tiny_scenario(T=3, K=2)
    built = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    nbs = solve_study(scn, "nbs")
    assert len(nbs.bargain.cuts) > len(bargain.START_SLOPES)  # the tree added rows
    frontier = solve_study(scn, "frontier", grid_points=3)
    assert frontier.frontier  # the sweep set its floor
    for bundle in (nbs, frontier):
        base = bundle.p3.base
        assert base.m == built.base.m
        assert [(con.rhs, con.coeffs) for con in base.constraints] == [
            (con.rhs, con.coeffs) for con in built.base.constraints
        ]


def test_a_row_linking_two_blocks_is_refused():
    model = three_compartments()
    add_constraint(model, {0: 1.0, model.n - 1: 1.0}, LE, 1e4, "two_compartments")
    with pytest.raises(ValueError, match="two_compartments links two blocks"):
        bargain._solve_by_block(model, DEFAULT_GAP, DEFAULT_NODE_BUDGET)


def tcm_model(scn):
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    return with_objective(p3.base, bargain._weighted(p3, 1.0), MAX)


@pytest.mark.parametrize("budget", [DEFAULT_NODE_BUDGET, 3])
@pytest.mark.parametrize("scenario", ["tiny", "median_k2"])
def test_priced_bound_lies_between_the_total_cost_optimum_and_the_lp_bound(scenario, budget):
    # the root LP's duals price out the rows linking the hub to the compartments; the
    # blocks' bounds plus pi b bound the optimum, also when the blocks run out of nodes
    if scenario == "tiny":
        scn = tiny_scenario(T=3, K=2)
    else:
        scn = load_scenario(SCENARIOS / f"{scenario}.scenario")
    model = tcm_model(scn)
    lp = SimplexSolver(model)
    root = lp.solve()
    priced, bound = bargain._priced(lp, root, DEFAULT_GAP / 4, budget)
    optimum = highs_objective(model)
    assert bound >= optimum - 1e-9 * max(1.0, abs(optimum))
    assert bound <= root.objective + 1e-9 * max(1.0, abs(root.objective))
    assert priced.nodes <= budget


def test_certified_total_cost_searches_no_whole_model(monkeypatch):
    calls = record_solves(monkeypatch)
    bundle = solve_study(load_scenario(SCENARIOS / "median_k2.scenario"), "tcm")
    assert len(calls) == 6  # P1, P2's two compartments, then the hub and both priced
    assert all(model.n < bundle.p3.base.n for model, _, _ in calls)
    optimum = 872.5135  # HiGHS
    assert bundle.tcm.f_a - bundle.tcm.f_b == pytest.approx(optimum, rel=DEFAULT_GAP)


def test_total_cost_starts_cold_only_where_no_basis_is_held(monkeypatch):
    # P1, the first storage compartment and the priced hub, which lost the linking
    # rows, start from the slack basis; every other LP starts from a basis the study holds
    real_solve, real_cold_start = SimplexSolver.solve, SimplexSolver._cold_start
    solves, cold_starts = [], []

    def solve(self, **kwargs):
        solves.append((self.model, kwargs.get("warm")))
        return real_solve(self, **kwargs)

    def cold_start(self):
        cold_starts.append(self.model)
        return real_cold_start(self)

    monkeypatch.setattr(SimplexSolver, "solve", solve)
    monkeypatch.setattr(SimplexSolver, "_cold_start", cold_start)
    bundle = solve_study(load_scenario(SCENARIOS / "median_k2.scenario"), "tcm")
    cold = [model for model, warm in solves if warm is None]
    assert cold == cold_starts  # no warm start fell back to a cold one
    p1, first, hub = cold
    assert p1 is bundle.p1_model
    assert {v.block for v in first.variables} == {0}
    assert [v.name for v in first.variables] == [
        v.name for v in bundle.p2_model.variables if v.block == 0
    ]
    assert [v.name for v in hub.variables] == [v.name for v in p1.variables]
    assert hub.sense == MAX and hub.m < p1.m
    optimum = 872.5135  # HiGHS
    assert bundle.tcm.f_a - bundle.tcm.f_b == pytest.approx(optimum, rel=DEFAULT_GAP)


def test_total_cost_searches_the_whole_model_when_the_bound_does_not_certify(monkeypatch):
    # a priced bound raised by 1% no longer certifies the priced point, so the priced
    # pattern seeds a search on the whole model, on the nodes the pricing left
    real_priced = bargain._priced

    def loose(*args):
        sol, bound = real_priced(*args)
        return sol, bound + 0.01 * abs(bound)  # a maximization: a weaker, still valid bound

    monkeypatch.setattr(bargain, "_priced", loose)
    calls = record_solves(monkeypatch)
    bundle = solve_study(load_scenario(SCENARIOS / "median_k2.scenario"), "tcm")
    whole = [(args, kwargs) for model, args, kwargs in calls if model.n == bundle.p3.base.n]
    assert len(whole) == 1
    (_, budget), kwargs = whole[0]
    assert budget < DEFAULT_NODE_BUDGET  # what the pricing left
    assert kwargs["incumbent_hint"] is not None
    optimum = 872.5135  # HiGHS
    assert bundle.tcm.f_a - bundle.tcm.f_b == pytest.approx(optimum, rel=DEFAULT_GAP)


def test_priced_blocks_meet_the_gap_on_the_total_cost(monkeypatch):
    # the median_k2 sweep cell at the DA 50th, RT 90th and demand 90th percentiles of
    # `coopt sweep --seed 0 --days 30`: pi b is about -5,375 against a total cost of 85, so
    # blocks that met the gap on their own sums left a priced bound 5.7e-4 above the
    # optimum; at the gap scaled to the total the priced point is certified
    scn = load_scenario(SCENARIOS / "median_k2.scenario")
    histories, _ = study_histories(0, 30, scn.hub)
    cell = with_profiles(scn, {
        "lambda_da": percentile_profiles(histories["lambda_da"], 50.0),
        "lambda_rt": percentile_profiles(histories["lambda_rt"], 90.0),
        "ev_load": percentile_profiles(histories["ev_load"], 90.0),
    })
    calls = record_solves(monkeypatch)
    bundle = solve_study(cell, "tcm")
    assert all(model.n < bundle.p3.base.n for model, _, _ in calls)
    optimum = highs_objective(tcm_model(cell))
    assert bundle.tcm.f_b - bundle.tcm.f_a == pytest.approx(optimum, rel=DEFAULT_GAP)
