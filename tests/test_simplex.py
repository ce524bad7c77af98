import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coopt import simplex
from coopt.io import load_scenario
from coopt.linear import EQ, GE, LE, MAX, MIN, Constraint, LinearModel, Variable, read_model
from coopt.models import build_p2
from coopt.simplex import (
    _AT_LB,
    _AT_UB,
    _BASIC,
    _FREE,
    INFEASIBLE,
    KEPT_FACTORIZATIONS,
    OPTIMAL,
    REFACTOR_EVERY,
    UNBOUNDED,
    SimplexSolver,
    _repair_status,
    standard_form,
)

from oracles import best_vertex_objective, check_certificates


def lp(variables, constraints, objective, sense=MIN):
    return LinearModel(variables, constraints, objective, sense)


def test_min_x_with_floor():
    model = lp([Variable("x", 0.0, math.inf)], [Constraint({0: 1.0}, GE, 3.0)], {0: 1.0})
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)


def test_trivially_infeasible():
    model = lp(
        [Variable("x", 0.0, math.inf)],
        [Constraint({0: 1.0}, LE, -1.0)],
        {},
    )
    sol = SimplexSolver(model).solve()
    assert sol.status == INFEASIBLE


def test_unbounded_direction():
    model = lp([Variable("x", 0.0, math.inf)], [], {0: -1.0})
    sol = SimplexSolver(model).solve()
    assert sol.status == UNBOUNDED


def test_max_sense_and_bounds_only():
    model = lp([Variable("x", -2.0, 7.0), Variable("y", 0.0, 3.0)], [], {0: 1.0, 1: 2.0}, MAX)
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(13.0, abs=1e-9)


def test_equality_row_with_negative_prices():
    # min -x - y  s.t.  x + y = 4, x <= 3, y <= 3
    model = lp(
        [Variable("x", 0.0, 3.0), Variable("y", 0.0, 3.0)],
        [Constraint({0: 1.0, 1: 1.0}, EQ, 4.0)],
        {0: -1.0, 1: -1.0},
    )
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-4.0, abs=1e-9)


def test_free_variable():
    model = lp(
        [Variable("x", -math.inf, math.inf), Variable("y", 0.0, 10.0)],
        [Constraint({0: 1.0, 1: 1.0}, GE, 2.0), Constraint({0: 1.0}, GE, -5.0)],
        {0: 2.0, 1: 1.0},
    )
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    # x sinks to -5, y covers the balance up to 7
    assert sol.objective == pytest.approx(-3.0, abs=1e-8)


def random_box_lp(rng):
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, 5))
    variables = []
    for j in range(n):
        lo = float(rng.choice([0.0, -2.0, -5.0]))
        hi = lo + float(rng.integers(1, 10))
        variables.append(Variable(f"v{j}", lo, hi))
    constraints = []
    for i in range(m):
        coeffs = {}
        for j in range(n):
            c = int(rng.integers(-3, 4))
            if c:
                coeffs[j] = float(c)
        if not coeffs:
            coeffs[int(rng.integers(0, n))] = 1.0
        sense = LE if rng.random() < 0.5 else GE
        rhs = float(rng.integers(-6, 10))
        constraints.append(Constraint(coeffs, sense, rhs))
    objective = {j: float(rng.integers(-5, 6)) for j in range(n)}
    sense = MIN if rng.random() < 0.5 else MAX
    return lp(variables, constraints, objective, sense)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(20240902)
    solved = 0
    for _ in range(250):
        model = random_box_lp(rng)
        expect = best_vertex_objective(model)
        sol = SimplexSolver(model).solve()
        if expect is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(expect, abs=1e-6)
            solved += 1
    assert solved > 100


def small_first_dual_pivot():
    """min y s.t. 1e-6 x + y >= 1, 1e4 x <= 1e6: optimal 0.9999 at x = 100.  From
    the slack basis the dual ratio test picks x for row 0 with ratio 0, whose
    pivot 1e-6 is small against its entry 1e4 on row 1 even in the identity."""
    return lp(
        [Variable("x", 0.0, math.inf), Variable("y", 0.0, math.inf)],
        [Constraint({0: 1e-6, 1: 1.0}, GE, 1.0), Constraint({0: 1e4}, LE, 1e6)],
        {1: 1.0},
    )


@pytest.mark.parametrize(
    "model, status, objective, primal",
    [
        pytest.param(
            lp(
                [Variable("x", 0.0, math.inf), Variable("y", 0.0, math.inf)],
                [Constraint({0: 1.0, 1: 1.0}, LE, 1.0), Constraint({0: 1.0, 1: 1.0}, GE, 3.0)],
                {0: 1.0},
            ),
            INFEASIBLE,
            math.inf,
            None,
            id="infeasible-only-through-its-rows",
        ),
        pytest.param(
            # x = 0 puts the slack of x >= 1 past its bound
            lp([Variable("x", 0.0, math.inf)], [Constraint({0: 1.0}, GE, 1.0)], {0: -1.0}),
            UNBOUNDED,
            -math.inf,
            None,
            id="unbounded-from-an-infeasible-slack-basis",
        ),
        pytest.param(
            # x + y = 3 twice, x <= 2: x = 2, y = 1; one row's fixed slack stays basic
            lp(
                [Variable("x", 0.0, 2.0), Variable("y", 0.0, 4.0)],
                [Constraint({0: 1.0, 1: 1.0}, EQ, 3.0), Constraint({0: 1.0, 1: 1.0}, EQ, 3.0)],
                {0: 1.0, 1: 2.0},
            ),
            OPTIMAL,
            4.0,
            [2.0, 1.0],
            id="duplicated-equality-row",
        ),
        pytest.param(
            small_first_dual_pivot(),
            OPTIMAL,
            0.9999,
            [100.0, 0.9999],
            id="small-first-dual-pivot",
        ),
    ],
)
def test_cold_start_status_paths(model, status, objective, primal):
    sol = SimplexSolver(model).solve()
    assert sol.status == status
    assert sol.objective == pytest.approx(objective, abs=1e-9)
    if status == OPTIMAL:
        assert sol.primal == pytest.approx(primal, abs=1e-9)
        assert check_certificates(model, sol).within(1e-9)


def test_cold_start_after_an_unusable_warm_basis_passes_a_small_dual_pivot(monkeypatch):
    # y and the slack of row 0 are both e_0: the warm basis is singular, so the
    # solve goes cold, and the cold start's first dual pivot is small
    model = small_first_dual_pivot()
    real_cold_start = SimplexSolver._cold_start
    cold_starts = []

    def cold_start(self):
        cold_starts.append(self.iterations)
        return real_cold_start(self)

    monkeypatch.setattr(SimplexSolver, "_cold_start", cold_start)
    vstat = np.array([_AT_LB, _BASIC, _BASIC, _AT_LB], dtype=np.int8)
    sol = SimplexSolver(model).solve(warm=vstat)
    assert cold_starts == [0]
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.9999, abs=1e-9)
    assert check_certificates(model, sol).within(1e-9)


def test_dual_simplex_under_blands_rule_matches_vertex_enumeration(monkeypatch):
    # with no stall allowed, every degenerate dual step turns Bland's rule on
    monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
    rng = np.random.default_rng(20240902)
    for _ in range(250):
        model = random_box_lp(rng)
        expect = best_vertex_objective(model)
        sol = SimplexSolver(model).solve()
        if expect is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(expect, abs=1e-6)


def test_determinism_same_bytes():
    rng = np.random.default_rng(7)
    model = random_box_lp(rng)
    a = SimplexSolver(model).solve()
    b = SimplexSolver(model).solve()
    assert a.status == b.status
    if a.status == OPTIMAL:
        assert np.array_equal(a.primal, b.primal)
        assert np.array_equal(a.dual, b.dual)
        assert a.objective == b.objective
        assert a.iterations == b.iterations


def test_row_scaling_equivariance():
    model = lp(
        [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
        [
            Constraint({0: 1.0, 1: 2.0}, GE, 4.0),
            Constraint({0: 3.0, 1: 1.0}, GE, 6.0),
        ],
        {0: 1.0, 1: 1.0},
    )
    base = SimplexSolver(model).solve()
    s = 8.0
    scaled = lp(
        [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
        [
            Constraint({0: s, 1: 2.0 * s}, GE, 4.0 * s),
            Constraint({0: 3.0, 1: 1.0}, GE, 6.0),
        ],
        {0: 1.0, 1: 1.0},
    )
    other = SimplexSolver(scaled).solve()
    assert other.objective == pytest.approx(base.objective, abs=1e-9)
    assert other.primal == pytest.approx(base.primal, abs=1e-8)
    assert other.dual[0] == pytest.approx(base.dual[0] / s, abs=1e-9)
    assert other.dual[1] == pytest.approx(base.dual[1], abs=1e-9)


def test_certificates_on_optimal_solution():
    model = lp(
        [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
        [
            Constraint({0: 1.0, 1: 1.0}, GE, 3.0),
            Constraint({0: 2.0, 1: 1.0}, LE, 14.0),
        ],
        {0: 3.0, 1: 1.0},
    )
    sol = SimplexSolver(model).solve()
    report = check_certificates(model, sol)
    assert report.within(1e-6)


def test_certificates_flag_perturbed_primal():
    model = lp(
        [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
        [Constraint({0: 1.0, 1: 1.0}, EQ, 5.0)],
        {0: 1.0, 1: 2.0},
    )
    sol = SimplexSolver(model).solve()
    sol.primal[0] += 1e-3
    report = check_certificates(model, sol)
    assert report.primal_residual >= 1e-4


def test_duplicate_rows_degenerate_dual_gap():
    # duplicate rows make the dual non-unique; gap must still close
    model = lp(
        [Variable("x", 0.0, 10.0), Variable("y", 0.0, 10.0)],
        [
            Constraint({0: 1.0, 1: 1.0}, GE, 4.0),
            Constraint({0: 1.0, 1: 1.0}, GE, 4.0),
            Constraint({0: 1.0}, LE, 9.0),
        ],
        {0: 2.0, 1: 3.0},
    )
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    report = check_certificates(model, sol)
    assert report.duality_gap <= 1e-6


def test_warm_start_after_bound_change():
    model = lp(
        [Variable("x", 0.0, 4.0), Variable("y", 0.0, 4.0)],
        [
            Constraint({0: 1.0, 1: 1.0}, GE, 3.0),
            Constraint({0: 1.0, 1: -1.0}, LE, 2.0),
        ],
        {0: 2.0, 1: 1.0},
    )
    solver = SimplexSolver(model)
    first = solver.solve()
    assert first.status == OPTIMAL
    ub = np.array([0.0, 4.0])  # pin x to zero, like a branch-and-bound child
    second = solver.solve(ub=ub, warm=first.warm)
    assert second.status == OPTIMAL
    assert second.objective == pytest.approx(3.0, abs=1e-8)
    cold = solver.solve(ub=ub)
    assert cold.objective == pytest.approx(second.objective, abs=1e-9)


def test_crossed_bounds_report_no_iterations_of_an_earlier_solve():
    model = lp(
        [Variable("x", 0.0, 4.0), Variable("y", 0.0, 4.0)],
        [
            Constraint({0: 1.0, 1: 1.0}, GE, 3.0),
            Constraint({0: 1.0, 1: -1.0}, LE, 2.0),
        ],
        {0: 2.0, 1: 1.0},
    )
    solver = SimplexSolver(model)
    first = solver.solve()
    assert first.status == OPTIMAL
    assert first.iterations > 0
    crossed = solver.solve(lb=np.array([3.0, 0.0]), ub=np.array([1.0, 4.0]))
    assert crossed.status == INFEASIBLE
    assert crossed.iterations == 0


def pinned_below_its_optimum():
    """An LP whose optimum has x0 = 3, and the bound x0 <= 2 that makes a warm
    start from it primal infeasible, so the dual simplex runs."""
    box = [Variable(f"x{j}", -1.0, 4.0) for j in range(3)]
    model = lp(
        box,
        [
            Constraint({1: 4.0}, GE, -5.0),
            Constraint({1: 4.0, 2: 4.0}, EQ, 4.0),
            Constraint({0: -4.0, 1: -3.0, 2: 2.0}, EQ, -5.0),
        ],
        {0: -2.0, 1: -3.0, 2: -3.0},
    )
    return model, np.array([2.0, 4.0, 4.0])


def test_failed_warm_start_falls_back_to_a_cold_start(monkeypatch):
    model, ub = pinned_below_its_optimum()
    cold = SimplexSolver(model).solve(ub=ub)
    assert cold.status == OPTIMAL
    solver = SimplexSolver(model)
    first = solver.solve()
    real_dual = SimplexSolver._dual
    calls = []

    def singular_dual(self, c, d):
        # the warm attempt's dual simplex stops singular; the cold start's runs
        calls.append(self.iterations)
        return simplex.SINGULAR if len(calls) == 1 else real_dual(self, c, d)

    monkeypatch.setattr(SimplexSolver, "_dual", singular_dual)
    warm = solver.solve(ub=ub, warm=first.warm)
    assert calls == [0, 0]  # the warm path ran and failed, then the cold start ran
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm.iterations == cold.iterations


def no_cold_start(self):
    raise AssertionError("the warm start fell back to a cold start")


def test_warm_basis_neither_primal_nor_dual_feasible_reaches_the_optimum_by_shifting_costs(
    monkeypatch,
):
    # the optimal basis of the opposite objective, under a bound it violates
    model, ub = pinned_below_its_optimum()
    first = SimplexSolver(model).solve()
    flipped = lp(model.variables, model.constraints, {j: -c for j, c in model.objective.items()})
    cold = SimplexSolver(flipped).solve(ub=ub)
    assert cold.status == OPTIMAL
    real_dual = SimplexSolver._dual
    shifted = []

    def dual(self, c, d):
        shifted.append(np.flatnonzero(c != self.cost))
        return real_dual(self, c, d)

    monkeypatch.setattr(SimplexSolver, "_dual", dual)
    monkeypatch.setattr(SimplexSolver, "_cold_start", no_cold_start)
    warm = SimplexSolver(flipped).solve(ub=ub, warm=first.warm)
    assert len(shifted) == 1 and shifted[0].size > 0
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


def test_dual_simplex_recomputes_a_drifted_row_before_calling_it_infeasible(monkeypatch):
    # v = 1 is its own row, so no column can move v; the value carried through
    # the updates puts v above its bound by more than the tolerance
    model = lp(
        [Variable("v", 0.0, 1.0), Variable("w", 0.0, 4.0)],
        [Constraint({0: 1.0}, EQ, 1.0), Constraint({0: 1.0, 1: 1.0}, LE, 3.0)],
        {1: -1.0},
    )
    solver = SimplexSolver(model)
    vstat = np.full(solver.nsm, _AT_LB, dtype=np.int8)
    vstat[[0, 1]] = _BASIC
    real_recompute_x = SimplexSolver._recompute_x
    drifted = []

    def recompute_x(self):
        real_recompute_x(self)
        if not drifted:
            self.x[0] += 1.5 * simplex.FEAS_TOL
            drifted.append(True)

    monkeypatch.setattr(SimplexSolver, "_recompute_x", recompute_x)
    sol = solver.solve(warm=vstat)
    assert drifted
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-2.0, abs=1e-12)


def test_carried_basis_holds_each_source_status_by_name():
    source = lp(
        [Variable("x", 0.0, 4.0), Variable("y", 0.0, 4.0)],
        [Constraint({0: 1.0, 1: 1.0}, GE, 3.0, "cover"), Constraint({0: 1.0}, LE, 2.0, "cap")],
        {0: 1.0, 1: 2.0},
    )
    warm = SimplexSolver(source).solve().warm
    # the target orders the columns and rows differently and has one of each more
    target = lp(
        [Variable("z", 0.0, 1.0), Variable("y", 0.0, 4.0), Variable("x", 0.0, 4.0)],
        [
            Constraint({2: 1.0}, LE, 2.0, "cap"),
            Constraint({0: 1.0, 1: 1.0}, LE, 5.0, "extra"),
            Constraint({2: 1.0, 1: 1.0}, GE, 3.0, "cover"),
        ],
        {2: 1.0, 1: 2.0},
    )
    carried = simplex.carry_basis(target, (source, warm))
    assert carried[[2, 1]].tolist() == warm[[0, 1]].tolist()
    assert carried[[3, 5]].tolist() == warm[[3, 2]].tolist()
    assert carried[0] == _AT_LB and carried[4] == _BASIC
    assert np.count_nonzero(carried == _BASIC) == target.m
    solver = SimplexSolver(target)
    sol = solver.solve(warm=carried)
    assert sol.status == OPTIMAL
    assert sol.iterations == 0
    assert sorted(solver.basis.tolist()) == np.flatnonzero(carried == _BASIC).tolist()
    # two sources that each make their own column basic on one shared row
    a = lp([Variable("a", 0.0, 4.0)], [Constraint({0: 1.0}, GE, 1.0, "row")], {0: 1.0})
    b = lp([Variable("b", 0.0, 4.0)], [Constraint({0: 1.0}, GE, 1.0, "row")], {0: 1.0})
    both = lp(
        [Variable("a", 0.0, 4.0), Variable("b", 0.0, 4.0)],
        [Constraint({0: 1.0, 1: 1.0}, GE, 1.0, "row")],
        {0: 1.0},
    )
    starts = [(m, SimplexSolver(m).solve().warm) for m in (a, b)]
    assert [np.flatnonzero(w == _BASIC).tolist() for _, w in starts] == [[0], [0]]
    assert simplex.carry_basis(both, *starts) is None


@pytest.mark.parametrize(
    "persistent, largest",
    [
        pytest.param(False, None, id="False"),
        pytest.param(True, None, id="True"),
        pytest.param(False, 1e3, id="small-against-its-column"),
    ],
)
def test_small_dual_pivot_leaves_the_basis_consistent(monkeypatch, persistent, largest):
    # a small pivot is met before any state changes and refactored once; one
    # that a fresh inverse repeats is passed over for the next ratio, and with
    # no other eligible column on its row it sends the solve to its cold start.  With
    # ``largest``, the pivot is above PIV_TOL but small against the column's
    # largest entry, which an update would magnify
    model, ub = pinned_below_its_optimum()
    cold = SimplexSolver(model).solve(ub=ub)
    solver = SimplexSolver(model)
    first = solver.solve()
    real_alpha_row, real_ftran = SimplexSolver._alpha_row, SimplexSolver._ftran
    real_cold_start = SimplexSolver._cold_start
    rows, forced, cold_starts = [], [], []

    def alpha_row(self, r):
        rows.append(r)  # the dual simplex's leaving row
        return real_alpha_row(self, r)

    def ftran(self, j):
        w = real_ftran(self, j)
        if rows and not cold_starts and (persistent or not forced):
            r = rows[-1]
            if largest is None:
                w[r] = simplex.PIV_TOL / 10
            else:
                w[r] = simplex.PIV_TOL * 10
                w[(r + 1) % self.m] = largest
            forced.append(j)
        rows.clear()
        return w

    def cold_start(self):
        cold_starts.append(self.iterations)
        return real_cold_start(self)

    monkeypatch.setattr(SimplexSolver, "_alpha_row", alpha_row)
    monkeypatch.setattr(SimplexSolver, "_ftran", ftran)
    monkeypatch.setattr(SimplexSolver, "_cold_start", cold_start)
    refactors = solver.refactors
    sol = solver.solve(ub=ub, warm=first.warm)
    assert len(forced) == 1 + persistent
    assert solver.refactors == refactors + 1
    assert len(cold_starts) == persistent
    assert len(set(solver.basis.tolist())) == solver.m
    assert np.all(solver.stat[solver.basis] == _BASIC)
    assert np.count_nonzero(solver.stat == _BASIC) == solver.m
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(cold.objective, abs=1e-9)


def ratio_test_state(x, lb, ub, entering_ub):
    """A solver whose basic columns 0..m-1 sit at ``x`` within ``[lb, ub]``, with
    column ``m`` entering from 0 towards ``entering_ub``."""
    m = len(x)
    model = lp(
        [Variable(f"v{j}", -math.inf, math.inf) for j in range(m + 1)],
        [Constraint({i: 1.0, m: 1.0}, EQ, 0.0) for i in range(m)],
        {},
    )
    solver = SimplexSolver(model)
    solver.basis = np.arange(m)
    solver.x = np.zeros(solver.nsm)
    solver.x[:m] = x
    solver.lb = np.zeros(solver.nsm)
    solver.ub = np.zeros(solver.nsm)
    solver.lb[:m], solver.ub[:m] = lb, ub
    solver.ub[m] = entering_ub
    return solver, m


def test_ratio_test_prefers_a_sound_pivot_within_the_tolerance():
    # row 0 blocks at 19.9 through a pivot of 1e-8; row 1 at 20 through a unit
    # pivot, which row 0 overshoots by only 1e-8 <= FEAS_TOL
    solver, q = ratio_test_state([1.99e-7, 20.0], [0.0, 0.0], [1.0, 30.0], math.inf)
    assert solver._primal_ratio(q, np.array([-1e-8, -1.0])) == (20.0, 1)


def test_ratio_test_takes_a_bound_flip_tied_with_a_row_up_to_rounding():
    solver, q = ratio_test_state([0.9999999999999998], [0.0], [2.0], 1.0)
    assert solver._primal_ratio(q, np.array([-1.0])) == (1.0, None)


def test_dual_ratio_test_takes_the_lowest_column_among_equal_ratios(monkeypatch):
    # from the slack basis the row's slack sits at 3, above its bound 0; x0's
    # ratio is 3, and x1, x2 and x3 tie at 1 (x1 through a pivot of 2)
    model = lp(
        [Variable(f"x{j}", 0.0, 10.0) for j in range(4)],
        [Constraint({0: 1.0, 1: 2.0, 2: 1.0, 3: 1.0}, GE, 3.0)],
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0},
    )
    real_pivot = SimplexSolver._pivot
    entered = []

    def pivot(self, q, r, w, leaving_stat, rho=None):
        entered.append(q)
        return real_pivot(self, q, r, w, leaving_stat, rho)

    monkeypatch.setattr(SimplexSolver, "_pivot", pivot)
    sol = SimplexSolver(model).solve()
    assert sol.status == OPTIMAL
    assert entered == [1] and sol.iterations == 1
    assert sol.primal.tolist() == [0.0, 1.5, 0.0, 0.0]


def assert_kept_masks_are_fresh(solver):
    """The kept masks are the nonbasic columns that can rise and that can fall,
    computed afresh from the statuses and bounds."""
    room = solver.ub - solver.lb > 0
    assert np.array_equal(solver.rise, np.isin(solver.stat, (_AT_LB, _FREE)) & room)
    assert np.array_equal(solver.fall, np.isin(solver.stat, (_AT_UB, _FREE)) & room)


def test_kept_masks_equal_fresh_masks_through_a_dive(monkeypatch):
    # a branch-and-bound-like sequence: a cold root, warm children with a bound
    # pinned on either side, a cold solve on changed bounds, and bound flips; the
    # masks are checked at every entering column and after every solve
    real_ftran, real_ratio = SimplexSolver._ftran, SimplexSolver._primal_ratio
    entering, flips = [], []

    def ftran(self, j):
        assert_kept_masks_are_fresh(self)
        entering.append(j)
        return real_ftran(self, j)

    def primal_ratio(self, q, delta):
        step, r = real_ratio(self, q, delta)
        if step is not None and r is None:
            flips.append(q)
        return step, r

    monkeypatch.setattr(SimplexSolver, "_ftran", ftran)
    monkeypatch.setattr(SimplexSolver, "_primal_ratio", primal_ratio)
    rng = np.random.default_rng(7)
    model = random_sparse_model(rng, 30, 20, density=0.2)
    for v in model.variables[::3]:
        v.lb, v.ub = 0.0, 0.5  # short enough for an entering column to cross
    solver = SimplexSolver(model)
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    sol = solver.solve()
    assert sol.status == OPTIMAL
    assert_kept_masks_are_fresh(solver)
    warm, solved = sol.warm, 0
    for j in rng.permutation(model.n):
        child_lb, child_ub = lb.copy(), ub.copy()
        if rng.random() < 0.5:
            child_ub[j] = child_lb[j]
        else:
            child_lb[j] = child_ub[j]
        sol = solver.solve(lb=child_lb, ub=child_ub, warm=warm)
        if sol.status == OPTIMAL:
            assert_kept_masks_are_fresh(solver)
            lb, ub, warm = child_lb, child_ub, sol.warm
            solved += 1
    sol = solver.solve(lb=lb, ub=ub)
    assert sol.status == OPTIMAL
    assert_kept_masks_are_fresh(solver)
    assert solved >= 5 and flips and len(entering) > 2 * solved


def test_warm_start_infeasible_child():
    model = lp(
        [Variable("x", 0.0, 1.0), Variable("y", 0.0, 1.0)],
        [Constraint({0: 1.0, 1: 1.0}, GE, 1.5)],
        {0: 1.0, 1: 1.0},
    )
    solver = SimplexSolver(model)
    first = solver.solve()
    assert first.status == OPTIMAL
    ub = np.array([0.0, 0.0])
    child = solver.solve(ub=ub, warm=first.warm)
    assert child.status == INFEASIBLE


def test_statuses_from_before_rows_were_appended_start_warm_with_their_slacks_basic(
    monkeypatch,
):
    # the optimum has x2 = 4; one appended row cuts it off and one does not bind
    model = random_sparse_model(np.random.default_rng(3), 30, 20, density=0.2)
    first = SimplexSolver(model).solve()
    assert first.status == OPTIMAL and first.primal[2] == 4.0
    model.constraints += [
        Constraint({2: 1.0}, LE, 3.0, "cut"),
        Constraint({0: 1.0, 2: 1.0}, LE, 10.0, "loose"),
    ]
    cold = SimplexSolver(model).solve()
    assert cold.status == OPTIMAL
    real_from_basis, real_cold_start = SimplexSolver._from_basis, SimplexSolver._cold_start
    starts, cold_starts = [], []

    def from_basis(self):
        starts.append((self.basis.copy(), self.stat.copy()))
        return real_from_basis(self)

    def cold_start(self):
        cold_starts.append(self.iterations)
        return real_cold_start(self)

    monkeypatch.setattr(SimplexSolver, "_from_basis", from_basis)
    monkeypatch.setattr(SimplexSolver, "_cold_start", cold_start)
    solver = SimplexSolver(model)
    sol = solver.solve(warm=first.warm)
    assert not cold_starts
    ((basis, stat),) = starts
    appended = np.arange(first.warm.size, solver.nsm)
    assert appended.tolist() == [solver.nsm - 2, solver.nsm - 1]
    assert np.array_equal(stat[: first.warm.size], first.warm)
    assert np.all(stat[appended] == _BASIC) and set(appended) <= set(basis.tolist())
    assert sol.status == OPTIMAL and sol.iterations > 0
    assert sol.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-9)

    # statuses longer than the model's columns, or with too few or too many basic
    # columns, are no basis of it: the solve starts cold
    fewer = first.warm.copy()
    fewer[np.flatnonzero(fewer == _BASIC)[0]] = _AT_LB
    more = sol.warm.copy()
    more[np.flatnonzero(more != _BASIC)[0]] = _BASIC
    for stat in (np.append(sol.warm, _AT_LB), fewer, more):
        starts.clear()
        cold_starts.clear()
        again = solver.solve(warm=stat)
        assert cold_starts == [0] and len(starts) == 1
        assert again.status == OPTIMAL
        assert again.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-9)


def test_a_kept_basis_handed_over_in_column_order_reuses_its_entry():
    # the solve keeps its optimal basis in the row order its pivots left; carried
    # by name, the same columns come back sorted and find that entry, in that order
    model = random_sparse_model(np.random.default_rng(3), 30, 20, density=0.2)
    for i, con in enumerate(model.constraints):
        con.name = f"row{i}"
    solver = SimplexSolver(model)
    first = solver.solve()
    assert first.status == OPTIMAL
    kept = solver.basis.copy()
    assert not np.array_equal(kept, np.sort(kept))
    carried = simplex.carry_basis(model, (model, first.warm))
    refactors, repairs = solver.refactors, solver.repairs
    again = solver.solve(warm=carried)
    assert (solver.refactors, solver.repairs) == (refactors, repairs)
    assert again.iterations == 0 and np.array_equal(solver.basis, kept)
    assert again.objective == first.objective
    # a child pinned off the optimum starts from that entry too
    ub = np.array([v.ub for v in model.variables])
    ub[2] = 3.0
    child = solver.solve(ub=ub, warm=carried)
    assert (solver.refactors, solver.repairs) == (refactors, repairs)
    cold = SimplexSolver(model).solve(ub=ub)
    assert child.status == cold.status == OPTIMAL and child.iterations > 0
    assert child.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-9)


# -- sparse kernels against dense references ---------------------------------


def random_sparse_model(rng, n, m, density=0.3):
    variables = [Variable(f"v{j}", -1.0, 4.0) for j in range(n)]
    constraints = []
    for i in range(m):
        coeffs = {j: float(rng.integers(-4, 5)) for j in range(n) if rng.random() < density}
        coeffs = {j: c for j, c in coeffs.items() if c} or {int(rng.integers(0, n)): 1.0}
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        constraints.append(Constraint(coeffs, sense, float(rng.integers(-5, 6))))
    objective = {j: float(rng.integers(-3, 4)) for j in range(n)}
    return lp(variables, constraints, objective)


def dense_columns(solver):
    """``[A I]`` as a dense array, assembled from the sparse standard form."""
    sf = solver.sf
    A = np.zeros((solver.m, solver.nsm))
    A[sf.row, sf.col] = sf.val
    return A


def basis_matrix(solver):
    return dense_columns(solver)[:, solver.basis]


def test_standard_form_layout():
    model = lp(
        [Variable("x"), Variable("y"), Variable("z")],
        [Constraint({2: 2.0, 0: 1.0}, LE, 4.0), Constraint({1: -1.0, 0: 0.0}, GE, 1.0)],
        {},
    )
    sf = standard_form(read_model(model))
    assert sf.col.tolist() == [0, 1, 2, 3, 4]  # the explicit zero is dropped
    assert sf.row.tolist() == [0, 1, 0, 0, 1]
    assert sf.val.tolist() == [1.0, -1.0, 2.0, 1.0, 1.0]
    assert sf.ptr.tolist() == [0, 1, 2, 3, 4, 5]
    assert sf.b.tolist() == [4.0, 1.0]
    assert sf.lb[3:].tolist() == [0.0, -math.inf]
    assert sf.ub[3:].tolist() == [math.inf, 0.0]


def test_block_factorization_matches_dense_inverse():
    rng = np.random.default_rng(5)
    # structural columns with one nonzero share the peel's first round with
    # the slack columns; the lower density gives more rounds after it
    for density in (0.6, 0.25):
        checked = shared = 0
        for _ in range(150):
            m = int(rng.integers(1, 9))
            model = random_sparse_model(rng, m + int(rng.integers(0, 6)), m, density=density)
            solver = SimplexSolver(model)
            solver.basis = structural_and_slack_basis(rng, solver)
            B = basis_matrix(solver)
            if np.linalg.matrix_rank(B) < m:
                continue
            binv = solver._block_inverse()
            ref = np.linalg.inv(B)
            assert np.max(np.abs(binv - ref)) <= 1e-10 * np.max(np.abs(ref))
            checked += 1
            singleton = np.count_nonzero(B, axis=0) == 1
            structural = solver.basis < solver.ns
            shared += bool(singleton[structural].any() and not structural.all())
        assert checked > 30 and shared > 5


def test_block_factorization_rejects_singular_bases():
    model = lp(
        [Variable("x"), Variable("y")],
        [Constraint({0: 1.0, 1: 1.0}, LE, 4.0), Constraint({0: 2.0, 1: 2.0}, LE, 8.0)],
        {},
    )
    solver = SimplexSolver(model)
    solver.basis = np.array([0, 1])  # structural block [[1, 1], [2, 2]]
    assert not solver._factor_basis()
    solver.basis = np.array([0, 3])  # x on row 0, slack on row 1
    assert solver._factor_basis()
    # z's one nonzero is on row 0, and so is the slack of row 0
    solver = SimplexSolver(
        lp(
            [Variable("x"), Variable("z")],
            [Constraint({0: 1.0, 1: 3.0}, LE, 4.0), Constraint({0: 2.0}, LE, 8.0)],
            {},
        )
    )
    solver.basis = np.array([1, 2])
    assert not solver._factor_basis()
    solver.basis = np.array([1, 3])  # z on row 0, slack on row 1
    assert solver._factor_basis()


def record_bumps(monkeypatch):
    """Sizes of the bumps the peel hands to ``np.linalg.solve``, as they come."""
    sizes = []
    real_solve = np.linalg.solve

    def solve(a, b):
        sizes.append(a.shape[0])
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return sizes


@pytest.fixture(scope="module")
def full_size_p2():
    """The LP of P2 at T=24 on the bundled two-compartment scenario."""
    scn = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "median_k2.scenario")
    return build_p2(scn.bss, scn.prices, scn.probabilities)


def test_peeled_factorization_of_a_full_size_optimal_basis(full_size_p2, monkeypatch):
    solver = SimplexSolver(full_size_p2)
    sol = solver.solve()
    assert sol.status == OPTIMAL
    bumps = record_bumps(monkeypatch)
    binv = solver._block_inverse()
    ref = np.linalg.inv(basis_matrix(solver))
    assert np.max(np.abs(binv - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert sum(bumps) <= 16  # the singleton rounds do nearly all of the work


def block_triangular_model(rng, bump, extra):
    """A model whose first ``n`` rows and ``n`` columns form a matrix that is block
    triangular up to permutations: singleton pivots around a dense ``bump x bump``
    block.  ``extra`` further rows carry random nonzeros of the same columns."""
    before, after = (int(k) for k in rng.integers(0, 6, size=2))
    n = before + bump + after
    K = np.zeros((n, n))
    for i in range(n):
        K[i, :i] = np.where(rng.random(i) < 0.25, rng.uniform(-2.0, 2.0, i), 0.0)
        K[i, i] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    K[before : before + bump, before : before + bump] = rng.uniform(-2.0, 2.0, (bump, bump))
    K = K[rng.permutation(n)][:, rng.permutation(n)]
    E = np.where(rng.random((extra, n)) < 0.3, rng.uniform(-2.0, 2.0, (extra, n)), 0.0)
    rows = np.vstack([K, E])
    constraints = [
        Constraint({j: float(a) for j, a in enumerate(row) if a}, LE, 1.0) for row in rows
    ]
    return lp([Variable(f"v{j}", 0.0, 1.0) for j in range(n)], constraints, {}), n


def test_peeled_factorization_with_a_dense_bump_matches_dense_inverse(monkeypatch):
    rng = np.random.default_rng(11)
    bumps = record_bumps(monkeypatch)
    checked = 0
    for _ in range(60):
        bump = int(rng.integers(2, 7))
        extra = int(rng.integers(0, 4))
        model, n = block_triangular_model(rng, bump, extra)
        solver = SimplexSolver(model)
        # the extra rows are covered by their slack columns
        units = [solver.ns + n + i for i in range(extra)]
        solver.basis = rng.permutation(np.array(list(range(n)) + units, dtype=np.intp))
        B = basis_matrix(solver)
        if np.linalg.cond(B) > 1e8:
            continue
        bumps.clear()
        binv = solver._block_inverse()
        ref = np.linalg.inv(B)
        assert np.max(np.abs(binv - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert bumps and bumps[0] >= bump  # the dense block is left to LAPACK
        checked += 1
    assert checked > 40


def square_model(columns):
    """A model whose constraint matrix has the given columns, all rows ``<= 1``."""
    A = np.array(columns, dtype=float).T
    constraints = [Constraint({j: float(a) for j, a in enumerate(row) if a}, LE, 1.0) for row in A]
    model = lp([Variable(f"v{j}") for j in range(A.shape[1])], constraints, {})
    solver = SimplexSolver(model)
    solver.basis = np.arange(A.shape[1])
    return solver


def test_peeled_factorization_rejects_structurally_singular_blocks():
    # columns 0 and 1 are singletons on rows 0 and 1; column 2 has no nonzero
    # left after they are peeled, so the bump of rows 2-4 has a zero column
    zero_after_peel = square_model(
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 1], [0, 0, 1, 2, 3]]
    )
    assert not zero_after_peel._factor_basis()
    # columns 0 and 1 are both singletons on row 0
    two_on_one_row = square_model([[1, 0, 0], [2, 0, 0], [1, 1, 1]])
    assert not two_on_one_row._factor_basis()
    # the same with columns 0 and 1 apart is a triangular, regular block
    assert square_model([[1, 0, 0], [2, 1, 0], [1, 1, 1]])._factor_basis()


def test_peeled_factorization_rejects_a_numerically_singular_bump():
    # 0.3 is not 3 * 0.1 in floating point, so LAPACK does not see the singularity
    solver = square_model([[0.1, 0.7], [0.3, 2.1]])
    assert np.all(np.isfinite(np.linalg.inv(basis_matrix(solver))))
    assert not solver._factor_basis()


def test_carried_duals_equal_fresh_duals_at_every_pivot(full_size_p2, monkeypatch):
    real_reduced_costs = SimplexSolver._reduced_costs
    checked = []

    def reduced_costs(self, c, y=None):
        if y is not None:
            fresh = self._duals(c)
            assert np.max(np.abs(y - fresh)) <= 1e-9 * max(1.0, np.max(np.abs(fresh)))
            checked.append(self.iterations)
        return real_reduced_costs(self, c, y)

    monkeypatch.setattr(SimplexSolver, "_reduced_costs", reduced_costs)
    solver = SimplexSolver(full_size_p2)
    sol = solver.solve()
    assert sol.status == OPTIMAL
    assert len(set(checked)) == sol.iterations + 1  # every iteration priced from the carried y

    # the reported duals are c_B B^-1 of the final basis, solved densely here
    B = basis_matrix(solver)
    sign = 1.0 if solver.model.sense == MIN else -1.0
    y = np.linalg.solve(B.T, solver.cost[solver.basis]) * sign
    assert np.max(np.abs(sol.dual - y)) <= 1e-9 * np.max(np.abs(y))


def inverse(solver):
    """``B^-1`` as the solver holds it, ``B0 - U V`` over the terms of its age."""
    k = solver.pivots_since_refactor
    return solver.B0 - solver.U[:, :k] @ solver.V[:k]


def random_terms(rng, solver, k):
    """Give the solver a random base and ``k`` random rank-one terms."""
    m = solver.m
    solver._set_inverse(
        rng.standard_normal((m, m)), rng.standard_normal((m, k)), rng.standard_normal((k, m))
    )


def test_rank_one_update_equals_dense_update():
    rng = np.random.default_rng(8)
    solver = SimplexSolver(random_sparse_model(rng, 6, 12))
    for _ in range(40):
        k = int(rng.integers(0, REFACTOR_EVERY))
        random_terms(rng, solver, k)
        binv = inverse(solver)
        w = np.where(rng.random(12) < 0.6, 0.0, rng.standard_normal(12))
        r = int(rng.integers(0, 12))
        w[r] = rng.choice([-1.0, 1.0]) * (0.5 + rng.random())
        expect = binv.copy()
        expect[r] /= w[r]
        others = w.copy()
        others[r] = 0.0
        expect -= np.outer(others, expect[r])
        solver._eta_update(w, r)
        assert solver.pivots_since_refactor == k + 1
        term = w.copy()
        term[r] -= 1.0
        assert np.array_equal(solver.U[:, k], term / w[r])
        np.testing.assert_allclose(solver.V[k], binv[r], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(inverse(solver), expect, rtol=1e-12, atol=1e-12)


def test_sparse_products_equal_dense_products():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 10))
        model = random_sparse_model(rng, m + int(rng.integers(0, 6)), m)
        solver = SimplexSolver(model)
        solver.basis = structural_and_slack_basis(rng, solver)
        nsm = solver.nsm
        A = dense_columns(solver)
        random_terms(rng, solver, int(rng.integers(0, 6)))
        binv = inverse(solver)
        c = np.where(rng.random(nsm) < 0.5, 0.0, rng.standard_normal(nsm))

        y = c[solver.basis] @ binv
        d = solver._reduced_costs(c)
        np.testing.assert_allclose(d, c - y @ A, rtol=1e-12, atol=1e-12)

        r = int(rng.integers(0, m))
        rho, alpha = solver._alpha_row(r)
        np.testing.assert_allclose(rho, binv[r], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(alpha, binv[r] @ A, rtol=1e-12, atol=1e-12)

        x = rng.standard_normal(nsm)
        np.testing.assert_allclose(solver.sf.matvec(x), A @ x, rtol=1e-12, atol=1e-12)

        q = int(rng.integers(0, nsm))
        np.testing.assert_allclose(solver._ftran(q), binv @ A[:, q], rtol=1e-12, atol=1e-12)


def repair_status_loop(stat, lb, ub):
    """Per-column status repair as warm starts did it before vectorization."""
    stat = stat.copy()
    for j in range(len(stat)):
        if stat[j] == _BASIC:
            continue
        lo, hi = lb[j], ub[j]
        if stat[j] == _AT_LB and math.isinf(lo):
            stat[j] = _FREE if math.isinf(hi) else _AT_UB
        elif stat[j] == _AT_UB and math.isinf(hi):
            stat[j] = _FREE if math.isinf(lo) else _AT_LB
        elif stat[j] == _FREE and not (math.isinf(lo) and math.isinf(hi)):
            stat[j] = _AT_LB if not math.isinf(lo) else _AT_UB
    return stat


def test_vectorized_status_repair_equals_loop():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        stat = rng.choice([_BASIC, _AT_LB, _AT_UB, _FREE], size=n).astype(np.int8)
        lb = rng.choice([-math.inf, -1.0, 0.0], size=n)
        ub = rng.choice([math.inf, 0.0, 2.0], size=n)
        got = _repair_status(stat, lb, ub)
        assert got.dtype == stat.dtype
        assert np.array_equal(got, repair_status_loop(stat, lb, ub))


# -- kept factorizations and their repair ---------------------------------------


def structural_and_slack_basis(rng, solver):
    """Random basis of slack columns on some rows and structural columns elsewhere."""
    m, ns = solver.m, solver.ns
    rows = rng.permutation(m)[: int(rng.integers(0, m + 1))]
    structural = rng.permutation(ns)[: m - len(rows)]
    return rng.permutation(np.concatenate([ns + rows, structural]).astype(np.intp))


def test_repaired_inverse_matches_dense_inverse():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        m = int(rng.integers(2, 10))
        solver = SimplexSolver(random_sparse_model(rng, m + int(rng.integers(2, 8)), m, density=0.6))
        solver.basis = structural_and_slack_basis(rng, solver)
        if not solver._factor_basis():
            continue
        solver._keep()
        # swap k random columns of the kept basis for columns outside it, in a new order
        k = int(rng.integers(1, min(m, 5) + 1))
        outside = np.setdiff1d(np.arange(solver.nsm), solver.basis)
        if outside.size < k:
            continue
        target = solver.basis.copy()
        target[rng.permutation(m)[:k]] = rng.permutation(outside)[:k]
        solver.basis = rng.permutation(target)
        if np.linalg.cond(basis_matrix(solver)) > 1e6:
            continue
        if not solver._repair():
            continue
        assert sorted(solver.basis) == sorted(target)
        ref = np.linalg.inv(basis_matrix(solver))
        assert np.max(np.abs(inverse(solver) - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert solver.pivots_since_refactor == k
        checked += 1
    assert checked > 60


def test_product_form_tracks_pivots_and_kept_bases_share_their_base():
    # on 400 rows the update terms, 2 m REFACTOR_EVERY floats, are half a base, so a
    # peak below one base's bytes still means that no m x m array was copied
    rng = np.random.default_rng(29)
    solver = SimplexSolver(random_sparse_model(rng, 520, 400, density=0.01))
    m = solver.m
    solver.basis = solver.ns + np.arange(m)  # the slack basis
    assert solver._factor_basis()
    base = solver.B0
    age = REFACTOR_EVERY // 2 - 1  # the kept basis's, leaving room for one repair swap
    filled = np.flatnonzero(np.diff(solver.sf.ptr))  # columns with a nonzero
    for k in range(1, REFACTOR_EVERY + 1):
        q = int(rng.choice(np.setdiff1d(filled, solver.basis)))
        w = solver._ftran(q)
        r = int(np.argmax(np.abs(w)))
        solver._eta_update(w, r)
        solver.basis[r] = q
        assert solver.pivots_since_refactor == k
        if k % 10 == 0:
            ref = np.linalg.inv(basis_matrix(solver))
            assert np.max(np.abs(inverse(solver) - ref)) <= 1e-10 * np.max(np.abs(ref))
        if k == age:
            solver._keep()
            kept, expect = solver.basis.copy(), inverse(solver)
    assert solver.B0 is base and not base.flags.writeable

    tracemalloc.start()
    try:
        solver.basis = np.sort(kept)  # as a warm start hands it over
        assert solver._factor_warm_basis()  # a kept hit, in the kept row order
        hit_peak = tracemalloc.get_traced_memory()[1]
        assert np.array_equal(solver.basis, kept)
        assert solver.B0 is base and solver.pivots_since_refactor == age
        assert np.array_equal(inverse(solver), expect)

        tracemalloc.reset_peak()
        q = int(np.setdiff1d(filled, kept)[0])
        swapped = kept.copy()
        swapped[int(np.argmax(np.abs(solver._ftran(q))))] = q
        solver.basis = np.sort(swapped)
        assert solver._factor_warm_basis()  # one swap from the kept basis
        repair_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (solver.repairs, solver.refactors) == (1, 1)
    assert solver.B0 is base and not base.flags.writeable
    ref = np.linalg.inv(basis_matrix(solver))
    assert np.max(np.abs(inverse(solver) - ref)) <= 1e-10 * np.max(np.abs(ref))
    # neither copies an m x m array
    assert max(hit_peak, repair_peak) < base.nbytes


def kept_bytes(solver):
    """The bytes of the kept factorizations: each distinct base once, and every entry's terms."""
    bases = {id(b0): b0.nbytes for _, b0, *_ in solver._kept.values()}
    return sum(bases.values()) + sum(u.nbytes + v.nbytes for _, _, u, v in solver._kept.values())


def assert_kept_within_bytes(solver):
    """The most recent entry stays; any more fit in KEPT_FACTORIZATIONS bases' bytes."""
    assert solver._kept
    assert len(solver._kept) == 1 or kept_bytes(solver) <= KEPT_FACTORIZATIONS * 8 * solver.m**2


def pin_one(rng, model):
    """The model's bounds with one random variable pinned to a random integer."""
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    j = int(rng.integers(0, model.n))
    lb[j] = ub[j] = float(rng.integers(-1, 5))
    return lb, ub


def test_kept_factorizations_are_bounded():
    # on 20 rows a base is the bytes of 10 updates' terms, so few entries fit
    rng = np.random.default_rng(3)
    model = random_sparse_model(rng, 30, 20, density=0.2)
    solver = SimplexSolver(model)
    root = solver.solve()
    distinct = set()
    for _ in range(40):
        lb, ub = pin_one(rng, model)
        sol = solver.solve(lb=lb, ub=ub, warm=root.warm if rng.random() < 0.5 else None)
        if sol.status == OPTIMAL:
            distinct.add(np.flatnonzero(sol.warm == _BASIC).tobytes())
        assert_kept_within_bytes(solver)
    assert len(distinct) > len(solver._kept)


def test_kept_factorizations_that_share_a_base_outnumber_the_count():
    # every solve warm-starts from the root's basis, which the first one factors and
    # the rest find kept: their entries share its base, and each adds only its terms
    rng = np.random.default_rng(3)
    model = random_sparse_model(rng, 130, 100, density=0.05)
    root = SimplexSolver(model).solve()
    solver = SimplexSolver(model)
    for _ in range(40):
        lb, ub = pin_one(rng, model)
        solver.solve(lb=lb, ub=ub, warm=root.warm)
        assert_kept_within_bytes(solver)
    assert len({id(b0) for _, b0, *_ in solver._kept.values()}) < len(solver._kept)
    assert len(solver._kept) > KEPT_FACTORIZATIONS


def test_kept_factorizations_drop_the_least_recent_past_the_byte_cap():
    m = 16
    solver = SimplexSolver(random_sparse_model(np.random.default_rng(0), 24, m, density=0.3))
    slacks, named = np.arange(solver.ns, solver.nsm), {}

    def keep(i, age, fresh):
        """Keep basis ``i``, the slack basis with column ``i`` in place of a slack,
        ``age`` updates past the base or past a new one; the kept bases, least
        recent first."""
        if fresh:
            solver._set_inverse(np.eye(m))
        solver.basis = np.roll(slacks, i)
        solver.basis[0] = i
        named[np.sort(solver.basis).tobytes()] = i
        solver.pivots_since_refactor = age
        solver._keep()
        return [named[key] for key in solver._kept]

    # a base is 8 m^2 bytes and 2 updates' terms a quarter of that: one base and 12
    # entries fill four bases' bytes, and the 13th drops the least recent
    solver._set_inverse(np.eye(m))
    for i in range(12):
        assert len(keep(i, 2, fresh=False)) == i + 1
    assert keep(12, 2, fresh=False) == list(range(1, 13))
    # four bases of their own fill them too
    solver._kept.clear()
    for i in range(4):
        assert len(keep(i, 0, fresh=True)) == i + 1
    assert keep(4, 0, fresh=True) == [1, 2, 3, 4]
    # the most recent entry stays even past the bytes on its own
    assert keep(5, REFACTOR_EVERY, fresh=True) == [5]


def plunge(solver, model, warm, until=lambda: False):
    """Pin one more variable per level, each level warm-started from the one above,
    as a depth-first branch-and-bound dive does, until ``until()`` holds after a
    level; returns each level's bounds and warm start."""
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    levels = []
    for j in range(model.n):
        pinned = ub.copy()
        pinned[j] = lb[j]
        sol = solver.solve(ub=pinned, warm=warm)
        if sol.status == OPTIMAL:
            levels.append((ub, warm))
            ub, warm = pinned, sol.warm
        if until():
            break
    return levels


def test_evicted_warm_basis_is_repaired():
    rng = np.random.default_rng(18)
    model = random_sparse_model(rng, 30, 20, density=0.2)
    solver = SimplexSolver(model)
    root = solver.solve()
    # dive until the byte cap drops the root's entry: on 20 rows one entry's terms
    # can fill it, so a whole dive leaves only its last level, out of repair reach
    key = np.flatnonzero(root.warm == _BASIC).tobytes()
    plunge(solver, model, root.warm, until=lambda: key not in solver._kept)
    assert key not in solver._kept
    root_set = set(np.flatnonzero(root.warm == _BASIC).tolist())
    assert all(set(basis.tolist()) != root_set for basis, *_ in solver._kept.values())
    # some kept factorization is within the repair budget: its age plus the
    # root columns it lacks leaves at least half of REFACTOR_EVERY
    costs = [
        u.shape[1] + len(root_set - set(basis.tolist())) for basis, _, u, _ in solver._kept.values()
    ]
    assert min(costs) <= REFACTOR_EVERY // 2

    sibling = np.array([v.ub for v in model.variables])
    sibling[-1] = 0.0
    refactors, repairs = solver.refactors, solver.repairs
    warm_sol = solver.solve(ub=sibling, warm=root.warm)
    assert (solver.refactors, solver.repairs) == (refactors, repairs + 1)
    cold_sol = SimplexSolver(model).solve(ub=sibling)
    assert warm_sol.status == cold_sol.status == OPTIMAL
    assert warm_sol.objective == pytest.approx(cold_sol.objective, rel=1e-12, abs=1e-9)


def one_swap_from_kept(row0, age):
    """A solver that keeps the slack basis at ``age`` and is asked for x in place
    of the first slack; x has ``row0`` on row 0 and 1 on row 1."""
    model = lp(
        [Variable("x", 0.0, 1.0), Variable("y", 0.0, 1.0)],
        [Constraint({0: row0}, LE, 1.0), Constraint({0: 1.0, 1: 1.0}, LE, 4.0)],
        {},
    )
    solver = SimplexSolver(model)
    solver.basis = np.array([2, 3])
    assert solver._factor_basis()
    solver.pivots_since_refactor = age
    solver._keep()
    solver.basis = np.array([0, 3])
    return solver


@pytest.mark.parametrize("age, repaired", [(REFACTOR_EVERY // 2 - 1, True), (REFACTOR_EVERY // 2, False)])
def test_repair_leaves_half_the_update_budget(age, repaired):
    solver = one_swap_from_kept(1.0, age)  # age + 1 updates
    assert solver._factor_warm_basis()
    assert (solver.repairs, solver.refactors) == ((1, 1) if repaired else (0, 2))
    assert solver.pivots_since_refactor == (age + 1 if repaired else 0)


def test_tiny_repair_pivot_falls_back_to_fresh_inverse():
    solver = one_swap_from_kept(1e-9, 0)  # pivot 1e-9 against 1 on row 1
    assert not solver._repair()
    assert solver._factor_warm_basis()
    assert (solver.refactors, solver.repairs) == (2, 0)
    ref = np.linalg.inv(basis_matrix(solver))
    assert np.max(np.abs(inverse(solver) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_age_triggered_refactor_builds_a_fresh_inverse(monkeypatch):
    # a short budget makes the simplex loops refactor by age while warm starts still repair
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", 8)
    real_refactor = SimplexSolver._refactor
    seen = []

    def refactor(self):
        wanted = np.zeros(self.nsm, dtype=bool)
        wanted[self.basis] = True
        costs = [
            u.shape[1] + np.count_nonzero(~wanted[basis]) for basis, _, u, _ in self._kept.values()
        ]
        before = (self.refactors, self.repairs)
        done = real_refactor(self)
        reachable = min(costs, default=math.inf) <= simplex.REFACTOR_EVERY // 2
        seen.append((self.refactors - before[0], self.repairs - before[1], reachable))
        return done

    monkeypatch.setattr(SimplexSolver, "_refactor", refactor)
    rng = np.random.default_rng(5)
    model = random_sparse_model(rng, 30, 20, density=0.2)
    solver = SimplexSolver(model)
    levels = plunge(solver, model, solver.solve().warm)
    for ub, warm in levels:  # each level's sibling, from a warm start that may be evicted
        sibling = ub.copy()
        sibling[-1] = 0.0
        solver.solve(ub=sibling, warm=warm)
    assert solver.repairs > 0
    assert any(reachable for _, _, reachable in seen)  # a repair was possible there
    assert all((fresh, repaired) == (1, 0) for fresh, repaired, _ in seen)
