import math

import numpy as np
import pytest

from coopt import bnb
from coopt.bnb import (
    BUDGET_EXHAUSTED,
    DEFAULT_NODE_BUDGET,
    OPTIMAL_WITHIN_GAP,
    exclusivity_pairs,
    fractionality,
    solve_milp,
)
from coopt.linear import GE, LE, MAX, MIN, Constraint, LinearModel, Variable, read_model
from coopt.simplex import (
    FEAS_TOL,
    INFEASIBLE,
    ITERATION_LIMIT,
    SINGULAR,
    LpSolution,
    SimplexSolver,
)

from oracles import constraint_violation, enumerate_binaries


def test_no_binaries_equals_lp():
    model = LinearModel(
        [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
        [Constraint({0: 1.0, 1: 1.0}, GE, 3.0)],
        {0: 2.0, 1: 1.0},
        MIN,
    )
    milp = solve_milp(model, gap_target=1e-9)
    ref = SimplexSolver(model).solve()
    assert milp.status == OPTIMAL_WITHIN_GAP
    assert milp.nodes == 1
    assert milp.objective == pytest.approx(ref.objective, abs=1e-9)
    assert milp.gap == 0.0


def knapsack_model():
    # LP relaxation is fractional by construction
    values = [10.0, 6.0, 5.0]
    weights = [5.0, 4.0, 3.0]
    variables = [Variable(f"take{i}", 0.0, 1.0, binary=True) for i in range(3)]
    cons = [Constraint({i: weights[i] for i in range(3)}, LE, 7.0)]
    return LinearModel(variables, cons, {i: values[i] for i in range(3)}, MAX)


def test_fractional_knapsack_exact():
    model = knapsack_model()
    relax = SimplexSolver(
        LinearModel(
            [Variable(v.name, v.lb, v.ub) for v in model.variables],
            model.constraints,
            model.objective,
            model.sense,
        )
    ).solve()
    milp = solve_milp(model, gap_target=1e-9)
    exact = enumerate_binaries(model)
    assert milp.objective == pytest.approx(exact.objective, abs=1e-9)
    assert relax.objective > milp.objective + 1e-6  # relaxation strictly above
    assert milp.bound >= milp.objective - 1e-9


def test_enumerate_binaries_guard():
    variables = [Variable(f"b{i}", 0.0, 1.0, binary=True) for i in range(21)]
    model = LinearModel(variables, [], {0: 1.0}, MAX)
    with pytest.raises(ValueError):
        enumerate_binaries(model)


def test_enumerate_no_binaries_equals_lp():
    model = LinearModel(
        [Variable("x", 0.0, 4.0)],
        [Constraint({0: 1.0}, GE, 1.0)],
        {0: 1.0},
        MIN,
    )
    exact = enumerate_binaries(model)
    ref = SimplexSolver(model).solve()
    assert exact.objective == pytest.approx(ref.objective, abs=1e-12)


def test_infeasible_root():
    model = LinearModel(
        [Variable("b", 0.0, 1.0, binary=True)],
        [Constraint({0: 1.0}, GE, 2.0)],
        {0: 1.0},
        MIN,
    )
    assert solve_milp(model).status == INFEASIBLE


def random_milp(rng):
    n = int(rng.integers(2, 7))
    variables = []
    n_bin = 0
    for j in range(n):
        if rng.random() < 0.6 and n_bin < 8:
            variables.append(Variable(f"v{j}", 0.0, 1.0, binary=True))
            n_bin += 1
        else:
            variables.append(Variable(f"v{j}", 0.0, float(rng.integers(1, 5))))
    constraints = []
    for _ in range(int(rng.integers(1, 6))):
        coeffs = {j: float(rng.integers(-3, 4)) for j in range(n)}
        coeffs = {j: c for j, c in coeffs.items() if c} or {0: 1.0}
        sense = LE if rng.random() < 0.6 else GE
        constraints.append(Constraint(coeffs, sense, float(rng.integers(-3, 8))))
    objective = {j: float(rng.integers(-5, 6)) for j in range(n)}
    sense = MIN if rng.random() < 0.5 else MAX
    return LinearModel(variables, constraints, objective, sense)


def test_random_milps_match_enumeration():
    rng = np.random.default_rng(42)
    matched = 0
    for _ in range(120):
        model = random_milp(rng)
        exact = enumerate_binaries(model)
        milp = solve_milp(model, gap_target=1e-9)
        assert milp.status == exact.status
        if exact.status == OPTIMAL_WITHIN_GAP:
            assert milp.objective == pytest.approx(exact.objective, abs=1e-6)
            matched += 1
    assert matched > 60


def fractionality_loop(values):
    """Per-value distance to the nearest integer, as branch-and-bound computed it before."""
    return np.array([min(v - math.floor(v), math.ceil(v) - v) for v in values])


def test_vectorized_fractionality_equals_loop():
    rng = np.random.default_rng(13)
    values = np.concatenate([
        rng.uniform(-3.0, 3.0, 200),
        rng.integers(-3, 4, 50).astype(float),  # exact integers
        0.5 + rng.uniform(-1e-12, 1e-12, 50),  # near a tie between floor and ceil
        np.array([0.5, -0.5, 1.5, 1e-7, 1.0 - 1e-7, -0.0, 0.0, 1.0]),
        rng.integers(0, 2, 50) + rng.uniform(-1e-6, 1e-6, 50),  # binaries within INT_TOL
    ])
    # equal as numbers; only the sign of zero can differ (the loop gives -0.0 for x = -0.0)
    assert np.array_equal(fractionality(values), fractionality_loop(values))


def test_exclusivity_pairs_detected():
    variables = [
        Variable("x", 0.0, 1.0, binary=True),
        Variable("y", 0.0, 1.0, binary=True),
        Variable("z", 0.0, 5.0),
    ]
    cons = [
        Constraint({0: 1.0, 1: 1.0}, LE, 1.0),
        Constraint({0: 1.0, 2: 1.0}, LE, 4.0),
    ]
    model = LinearModel(variables, cons, {2: 1.0}, MAX)
    pairs = exclusivity_pairs(read_model(model))
    assert pairs == {0: [1], 1: [0]}


def test_budget_exhaustion_reports_valid_bound(monkeypatch):
    # the root cuts close every one of these models at its root, so the search runs
    # out of nodes only without them; the bound must bracket the optimum either way
    rng = np.random.default_rng(11)
    found = False
    for _ in range(60):
        model = random_milp(rng)
        exact = enumerate_binaries(model)
        if exact.status != OPTIMAL_WITHIN_GAP:
            continue
        sign = 1.0 if model.sense == MIN else -1.0
        for rounds in (0, bnb.CUT_ROUNDS):
            monkeypatch.setattr(bnb, "CUT_ROUNDS", rounds)
            milp = solve_milp(model, gap_target=1e-12, node_budget=2)
            # bound must still bracket the true optimum
            assert sign * milp.bound <= sign * exact.objective + 1e-6
            if milp.status == BUDGET_EXHAUSTED:
                found = True
    assert found


@pytest.mark.parametrize("failure", [SINGULAR, ITERATION_LIMIT])
def test_failed_node_lp_keeps_bound_valid(monkeypatch, failure):
    # min -3 x0 - 2 x1 s.t. 2 x0 + 2 x1 <= 3: root LP -4, optimum -3 at x1 = 0
    model = LinearModel(
        [Variable("x0", 0.0, 1.0, binary=True), Variable("x1", 0.0, 1.0, binary=True)],
        [Constraint({0: 2.0, 1: 2.0}, LE, 3.0)],
        {0: -3.0, 1: -2.0},
        MIN,
    )

    class FailsWithX1Fixed(SimplexSolver):
        def solve(self, *, lb=None, ub=None, warm=None):
            if ub is not None and ub[1] == 0.0:  # the subtree holding the optimum
                return LpSolution(failure, None, None, math.nan, 0)
            return super().solve(lb=lb, ub=ub, warm=warm)

    monkeypatch.setattr(bnb, "SimplexSolver", FailsWithX1Fixed)
    monkeypatch.setattr(bnb, "CUT_ROUNDS", 0)  # a cut x0 + x1 <= 1 closes the root
    milp = solve_milp(model, gap_target=1e-9)
    assert milp.objective == pytest.approx(-2.0)  # the only solvable pattern
    assert milp.bound <= -3.0 + 1e-9  # the unsolved subtree stays in the bound
    assert milp.status == BUDGET_EXHAUSTED

    # with x1 <= 0.5 every feasible pattern is in the unsolved subtree
    model.constraints.append(Constraint({1: 1.0}, LE, 0.5))
    milp = solve_milp(model, gap_target=1e-9)
    assert milp.status == BUDGET_EXHAUSTED  # not a claim of infeasibility
    assert milp.bound <= -3.0 + 1e-9


def test_hinted_budget_runs_keep_a_valid_bound(monkeypatch):
    # an incumbent from the start makes reduced-cost fixing run at every node that branches
    real_fix = bnb._fix_by_reduced_cost
    fired = []

    def counting_fix(*args):
        lb, ub, floor = real_fix(*args)
        fired.append(floor < math.inf)
        return lb, ub, floor

    monkeypatch.setattr(bnb, "_fix_by_reduced_cost", counting_fix)
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(80):
        model = random_milp(rng)
        exact = enumerate_binaries(model)
        if exact.status != OPTIMAL_WITHIN_GAP:
            continue
        sign = 1.0 if model.sense == MIN else -1.0
        # the root cuts close these models before any node branches, so fixing runs
        # only without them
        for rounds in (0, bnb.CUT_ROUNDS):
            monkeypatch.setattr(bnb, "CUT_ROUNDS", rounds)
            for budget in (1, 2, 3, 4):
                for gap in (1e-9, 0.25):
                    milp = solve_milp(model, gap, budget, incumbent_hint=exact.incumbent)
                    assert sign * milp.bound <= sign * exact.objective + 1e-6
                    checked += 1
    assert checked > 400
    assert any(fired)


def fixing_knapsack():
    # min -10 i - 9 k - 4 j - 10 a - b  s.t.  5 i + 5 k + 3 j <= 8,  a + b <= 1
    # root LP -25.4 at i = a = 1, k = 0.6; reduced costs d_j = 1.4 and d_a = -9;
    # optimum -24 at i = j = a = 1, which has j = 1
    names = ["i", "k", "j", "a", "b"]
    return LinearModel(
        [Variable(name, 0.0, 1.0, binary=True) for name in names],
        [Constraint({0: 5.0, 1: 5.0, 2: 3.0}, LE, 8.0), Constraint({3: 1.0, 4: 1.0}, LE, 1.0)],
        {0: -10.0, 1: -9.0, 2: -4.0, 3: -10.0, 4: -1.0},
        MIN,
    )


def test_reduced_cost_fixing_pins_bounds_and_keeps_its_floor(monkeypatch):
    model = fixing_knapsack()
    i, k, j, a, b = range(5)
    seen = []

    class Spy(SimplexSolver):
        def solve(self, *, lb=None, ub=None, warm=None):
            seen.append((lb.copy(), ub.copy()))
            return super().solve(lb=lb, ub=ub, warm=warm)

    monkeypatch.setattr(bnb, "SimplexSolver", Spy)
    monkeypatch.setattr(bnb, "CUT_ROUNDS", 0)  # the root cuts leave no node to branch
    # the hint k = j = a = 1 costs -23; with the 5% gap the cutoff is -24.15, which
    # z + d_j = -24 reaches, so j stays at 0 and the optimum leaves the tree
    milp = solve_milp(model, 0.05, incumbent_hint=np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
    assert milp.objective == pytest.approx(-23.0)
    assert milp.status == OPTIMAL_WITHIN_GAP
    # the region cut off holds the optimum, so its floor must stay in the bound
    assert milp.bound <= enumerate_binaries(model).objective + 1e-6

    # the node LP that branched k down, with i still free: j fixed to 0 by its reduced
    # cost, a fixed to 1 by its own, and a's partner b pinned to 0
    down_k = [(lb, ub) for lb, ub in seen if ub[k] == 0.0 and lb[i] == 0.0 and ub[i] == 1.0]
    assert down_k
    for lb, ub in down_k:
        assert ub[j] == 0.0
        assert lb[a] == 1.0
        assert ub[b] == 0.0


def lines_toy(seed, sense, cap=8):
    """``g`` over six binaries ``b`` under a knapsack row, with ``g <= c_k + a_k b``
    for each of eight lines: optimizing ``g`` (maximizing it, or minimizing ``-g``)
    optimizes the concave minimum over the lines.  Returns a builder of the model
    with the rows of the given lines, and the ``separate`` callback that returns
    the row of the line binding at a candidate, for its first ``cap`` calls."""
    rng = np.random.default_rng(seed)
    n = 6
    lines = [
        ({i: float(rng.integers(-4, 9)) for i in range(n)}, float(rng.integers(0, 10)))
        for _ in range(8)
    ]
    weights = {i: float(rng.integers(1, 6)) for i in range(n)}
    direction = 1.0 if sense == MAX else -1.0

    def row(k):
        a, c = lines[k]
        return Constraint({**{i: -v for i, v in a.items()}, n: 1.0}, LE, c, f"line[{k}]")

    def model_with(ks):
        variables = [Variable(f"b{i}", 0.0, 1.0, binary=True) for i in range(n)]
        variables.append(Variable("g", -100.0, 100.0))
        rows = [Constraint(weights, LE, 8.0, "knapsack")] + [row(k) for k in ks]
        return LinearModel(variables, rows, {n: direction}, sense)

    calls = []

    def separate(x):
        values = [c + sum(v * x[i] for i, v in a.items()) for a, c in lines]
        k = int(np.argmin(values))
        true = x.copy()
        true[n] = values[k]
        calls.append(k)
        cut = x[n] > values[k] + 1e-9 and len(calls) <= cap
        return true, direction * values[k], [row(k)] if cut else []

    return model_with, separate


@pytest.mark.parametrize("sense", [MAX, MIN])
@pytest.mark.parametrize("seed", range(6))
def test_rows_separated_in_the_tree_reach_the_optimum_with_them_up_front(seed, sense):
    model_with, separate = lines_toy(seed, sense)
    exact = enumerate_binaries(model_with(range(8)))
    model = model_with([0])
    milp = solve_milp(model, gap_target=1e-9, separate=separate)
    assert milp.status == OPTIMAL_WITHIN_GAP
    assert milp.objective == pytest.approx(exact.objective, abs=1e-6)
    assert model.m > 2  # the rows were added to the model in place
    # the incumbent is a true point: it satisfies every added row, and its g is the
    # minimum over all the lines
    assert constraint_violation(model, milp.incumbent) <= 1e-7
    _, value, rows = separate(milp.incumbent)
    assert rows == [] and value == pytest.approx(milp.objective, abs=1e-9)


@pytest.mark.parametrize("cap", [0, 1, 8])
@pytest.mark.parametrize("sense", [MAX, MIN])
@pytest.mark.parametrize("seed", range(6))
def test_separated_bound_stays_valid_at_a_node_budget(seed, sense, cap):
    # with fewer rows than the candidates call for, a candidate that brings none
    # closes its node at its LP value, which must stay in the bound
    model_with, _ = lines_toy(seed, sense)
    exact = enumerate_binaries(model_with(range(8)))
    sign = 1.0 if sense == MIN else -1.0
    for budget in (1, 2, 3, 4, 5, DEFAULT_NODE_BUDGET):
        _, separate = lines_toy(seed, sense, cap)
        milp = solve_milp(model_with([0]), gap_target=1e-9, node_budget=budget, separate=separate)
        assert milp.nodes <= budget
        assert sign * milp.bound <= sign * exact.objective + 1e-9
        if milp.incumbent is not None:
            assert sign * milp.objective >= sign * exact.objective - 1e-9


def test_gmi_cuts_hold_at_every_integral_point(gmi_cuts):
    # each cut's left-hand side, minimized over the LP of every binary pattern, is at
    # least its right-hand side: no integral point of the model is cut off
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(1000):
        model = random_milp(rng)
        rows = list(model.constraints)
        gmi_cuts.clear()
        solve_milp(model, gap_target=1e-9)
        assert model.constraints == rows  # the cuts went to a copy of the row list
        for cut in gmi_cuts:
            least = enumerate_binaries(LinearModel(model.variables, rows, cut.coeffs, MIN))
            if least.status == OPTIMAL_WITHIN_GAP:
                assert least.objective >= cut.rhs - FEAS_TOL * max(1.0, abs(cut.rhs))
                checked += 1
    assert checked > 80


def test_root_bounds_tighten_round_by_round():
    model = knapsack_model()
    relaxed = LinearModel(
        [Variable(v.name, v.lb, v.ub) for v in model.variables],
        model.constraints, model.objective, model.sense,
    )
    milp = solve_milp(model, gap_target=1e-9)
    # the uncut root LP's objective, then one per round, each at most the one before
    # it in this maximization and at least the optimum
    assert milp.root_bounds[0] == pytest.approx(SimplexSolver(relaxed).solve().objective)
    assert len(milp.root_bounds) > 1
    assert all(b <= a for a, b in zip(milp.root_bounds, milp.root_bounds[1:]))
    assert milp.root_bounds[-1] >= milp.objective - 1e-9
    # min x + 2 y over x + y >= 1: the root LP is integral, and no round runs
    integral = LinearModel(
        [Variable("x", 0.0, 1.0, binary=True), Variable("y", 0.0, 1.0, binary=True)],
        [Constraint({0: 1.0, 1: 1.0}, GE, 1.0)],
        {0: 1.0, 1: 2.0},
        MIN,
    )
    assert solve_milp(integral).root_bounds == (1.0,)


def test_a_cut_round_whose_lp_fails_is_dropped(monkeypatch):
    # every LP on the model with the round's rows stops singular: the search goes on
    # over the model as it was passed, from the uncut root
    model = knapsack_model()
    m = model.m

    class FailsWithCuts(SimplexSolver):
        def solve(self, *, lb=None, ub=None, warm=None):
            if self.m > m:
                return LpSolution(SINGULAR, None, None, math.nan, 0)
            return super().solve(lb=lb, ub=ub, warm=warm)

    monkeypatch.setattr(bnb, "SimplexSolver", FailsWithCuts)
    milp = solve_milp(model, gap_target=1e-9)
    assert milp.status == OPTIMAL_WITHIN_GAP
    assert milp.objective == pytest.approx(enumerate_binaries(model).objective, abs=1e-9)
    assert len(milp.root_bounds) == 1
    assert model.m == m


def test_a_cut_round_whose_lp_is_infeasible_proves_the_model_infeasible():
    # 2 x + 2 y >= 1 and 10 x + 10 y <= 7: the LP holds x + y in [0.5, 0.7], where no
    # pair of binaries lies
    model = LinearModel(
        [Variable("x", 0.0, 1.0, binary=True), Variable("y", 0.0, 1.0, binary=True)],
        [Constraint({0: 2.0, 1: 2.0}, GE, 1.0), Constraint({0: 10.0, 1: 10.0}, LE, 7.0)],
        {0: 1.0, 1: 2.0},
        MIN,
    )
    assert enumerate_binaries(model).status == INFEASIBLE
    milp = solve_milp(model)
    assert milp.status == INFEASIBLE
    assert milp.nodes == 1 and len(milp.root_bounds) == 1
