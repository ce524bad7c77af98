import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt import bargain
from coopt.bnb import exclusivity_pairs, solve_milp
from coopt.io import load_scenario
from coopt.linear import (
    LE,
    MAX,
    MIN,
    Constraint,
    LinearModel,
    Variable,
    objective_value,
    read_model,
    split_blocks,
    with_objective,
)
from coopt.models import (
    build_p1,
    build_p2,
    build_p3,
    degradation_cost,
    family_values,
    marginal_degradation_rate,
)
from coopt.scenario import (
    BssSpec,
    DemandProfile,
    HubSpec,
    JointTerms,
    PriceProfiles,
    ReserveProbabilities,
)
from coopt.simplex import SimplexSolver

from conftest import compartment, tiny_scenario
from oracles import (
    LEASE_VAR_PREFIXES,
    constraint_violation,
    dict_exclusivity_pairs,
    dict_family_values,
    dict_split_blocks,
    enumerate_binaries,
    fix_variables,
    hub_commitment_grid_cost,
    joint_variable_names,
    maximize_b,
    minimize_a,
    objective_breakdown,
    single_hour_bss_profit,
    value_of,
    var_layout,
)


def one_hour_prices(lam_da, lam_rt, lam_up=0.0, lam_dn=0.0):
    return PriceProfiles((lam_da,), (lam_rt,), (lam_up,), (lam_dn,))


def one_hour_probs(acc_up=0.0, acc_dn=0.0, dep_up=0.0, dep_dn=0.0):
    return ReserveProbabilities((acc_up,), (acc_dn,), (dep_up,), (dep_dn,))


# ---------------------------------------------------------------- P1


@pytest.mark.parametrize(
    "lam_da, lam_rt, demand, cap, expected",
    [
        (0.10, 0.20, 100.0, 200.0, 0.0),   # resale cancels the charging cost
        (0.10, 0.05, 100.0, 200.0, 5.0),   # cheap real time, skip commitment
        (0.10, 0.08, 0.0, 200.0, 0.0),     # no demand, no profitable resale
    ],
)
def test_p1_single_hour_against_grid_oracle(lam_da, lam_rt, demand, cap, expected):
    oracle = hub_commitment_grid_cost(lam_da, lam_rt, demand, cap)
    assert oracle == pytest.approx(expected, abs=1e-9)
    hub = HubSpec((cap,), 10, 100.0)
    model = build_p1(hub, one_hour_prices(lam_da, lam_rt), DemandProfile((demand,)))
    sol = SimplexSolver(model).solve()
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(oracle, abs=1e-9)


def test_p1_rejects_horizon_mismatch():
    hub = HubSpec((100.0, 100.0), 10, 100.0)
    with pytest.raises(ValueError):
        build_p1(hub, one_hour_prices(0.1, 0.1), DemandProfile((10.0,)))


def test_p2_rejects_probabilities_of_another_horizon():
    scn = tiny_scenario(T=3, K=2)
    probs = tiny_scenario(T=2, K=2).probabilities
    with pytest.raises(ValueError, match=r"^probabilities\.acc_up: length 2 != horizon 3$"):
        build_p2(scn.bss, scn.prices, probs)


def test_p1_commitment_split_solution():
    hub = HubSpec((200.0,), 10, 100.0)
    model = build_p1(hub, one_hour_prices(0.10, 0.20), DemandProfile((100.0,)))
    sol = SimplexSolver(model).solve()
    assert value_of(model, sol.primal, "da_commit[0]") == pytest.approx(200.0, abs=1e-7)
    assert value_of(model, sol.primal, "da_to_ev[0]") == pytest.approx(100.0, abs=1e-7)
    assert value_of(model, sol.primal, "da_to_rt[0]") == pytest.approx(100.0, abs=1e-7)


# ---------------------------------------------------------------- degradation


def test_degradation_zero_throughput():
    assert degradation_cost(compartment(), 0.0) == 0.0


def test_degradation_hand_value():
    spec = compartment(unit_cost=1_000_000.0, life_slope=-3.0, battery_capacity=4000.0)
    assert degradation_cost(spec, 4000.0) == pytest.approx(30_000.0, abs=1e-9)


@given(st.floats(0.0, 1e6), st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_degradation_homogeneous(throughput, factor):
    spec = compartment()
    a = degradation_cost(spec, throughput)
    b = degradation_cost(spec, factor * throughput)
    assert b == pytest.approx(factor * a, rel=1e-12, abs=1e-12)


def test_degradation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        degradation_cost(compartment(), -1.0)


# ---------------------------------------------------------------- P2


def p2_single_hour(lam_up, lam_dn, lam_rt, acc_up, acc_dn, dep_up, dep_dn, **comp_kwargs):
    comp = compartment(**comp_kwargs)
    bss = BssSpec((comp,))
    prices = one_hour_prices(0.0, lam_rt, lam_up, lam_dn)
    probs = one_hour_probs(acc_up, acc_dn, dep_up, dep_dn)
    return build_p2(bss, prices, probs), comp


def test_p2_zero_probability_market_is_worthless():
    model, _ = p2_single_hour(0.05, 0.05, 0.10, 0.0, 0.0, 0.0, 0.0)
    sol = solve_milp(model, gap_target=1e-9)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_p2_full_deployment_up_bid():
    model, comp = p2_single_hour(
        0.05, 0.0, 0.10, 1.0, 0.0, 1.0, 0.0, initial_level=3000.0, min_level=0.0
    )
    rate = marginal_degradation_rate(comp)
    oracle = single_hour_bss_profit(
        0.05, 0.0, 0.10, 1.0, 0.0, 1.0, 0.0,
        cap=comp.cap, min_level=0.0, max_charge=comp.max_charge,
        max_discharge=comp.max_discharge, initial_level=3000.0, deg_rate=rate,
    )
    expected = 3000.0 * (0.05 + 0.10) - degradation_cost(comp, 3000.0)
    assert oracle == pytest.approx(expected, abs=1e-6)
    sol = solve_milp(model, gap_target=1e-9)
    assert sol.objective == pytest.approx(expected, abs=1e-6)
    assert value_of(model, sol.incumbent, "bid_up[0,0]") == pytest.approx(3000.0, abs=1e-6)


def test_p2_negative_rt_price_rewards_down_bid():
    # capacity payment beats both the deployment loss and plain negative-price
    # RT charging, which shares the same charge cap but incurs no wear
    model, comp = p2_single_hour(
        0.0, 0.12, -0.04, 0.0, 1.0, 0.0, 1.0, initial_level=500.0, min_level=0.0
    )
    rate = marginal_degradation_rate(comp)
    oracle = single_hour_bss_profit(
        0.0, 0.12, -0.04, 0.0, 1.0, 0.0, 1.0,
        cap=comp.cap, min_level=0.0, max_charge=comp.max_charge,
        max_discharge=comp.max_discharge, initial_level=500.0, deg_rate=rate,
    )
    expected = 3000.0 * (0.12 - 0.04) - degradation_cost(comp, 3000.0)
    assert oracle == pytest.approx(expected, abs=1e-6)
    sol = solve_milp(model, gap_target=1e-9)
    assert sol.objective == pytest.approx(oracle, abs=1e-6)
    assert value_of(model, sol.incumbent, "bid_dn[0,0]") == pytest.approx(
        comp.max_charge, abs=1e-6
    )


def test_p2_two_hours_matches_enumeration():
    scn = tiny_scenario(T=2, K=1, seed=3)
    model = build_p2(scn.bss, scn.prices, scn.probabilities)
    exact = enumerate_binaries(model)
    milp = solve_milp(model, gap_target=1e-9)
    assert milp.objective == pytest.approx(exact.objective, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------- model shape


@pytest.mark.parametrize("T,K", [(2, 1), (3, 2)])
def test_mode_binaries_shape(T, K):
    scn = tiny_scenario(T=T, K=K, seed=1)
    p2 = build_p2(scn.bss, scn.prices, scn.probabilities)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    for model in (p2, p3.base):
        binaries = model.binary_indices()
        assert len(binaries) == 2 * T * K
        for j in binaries:
            rows = [
                con
                for con in model.constraints
                if con.sense == LE
                and con.rhs == 1.0
                and len(con.coeffs) == 2
                and j in con.coeffs
                and all(model.variables[i].binary for i in con.coeffs)
            ]
            assert len(rows) == 1


def test_blocks_are_the_compartments_and_the_hub():
    # compartment k's columns, leased ones included, end in ",k]" and the hub's hold no comma
    scn = tiny_scenario(T=3, K=2, seed=1)
    p2 = build_p2(scn.bss, scn.prices, scn.probabilities)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    for model, labels in ((p2, [0, 1]), (p3.base, [-1, 0, 1])):
        blocks, linking = split_blocks(read_model(model))
        assert [block.label for block in blocks] == labels
        kept = []
        for block in blocks:
            for j in block.cols.tolist():
                name = model.variables[j].name
                assert name.endswith(f",{block.label}]") if block.label >= 0 else "," not in name
            rows = block.rows.tolist()
            assert rows == sorted(rows)  # in the full model's order
            kept += rows
        assert sorted(kept + linking) == list(range(model.m))
        names = {model.constraints[i].name.split("[")[0] for i in linking}
        assert names == (set() if model is p2 else {"commit_split", "demand_balance"})


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def priced_tcm_model(monkeypatch, scn):
    """The total-cost model with its linking rows priced out, as the study
    hands it to the block solve: the second model that solve gets, after P2."""
    real = bargain._solve_by_block
    models = []

    def recorded(model, *args, **kwargs):
        models.append(model)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(bargain, "_solve_by_block", recorded)
    bargain.solve_study(scn, "tcm")
    assert len(models) == 2
    return models[1]


def split_models(name, monkeypatch):
    if name == "p2-k6":
        scn = load_scenario(SCENARIOS / "median.scenario")
        return build_p2(scn.bss, scn.prices, scn.probabilities)
    if name == "p3-k2":
        scn = load_scenario(SCENARIOS / "median_k2.scenario")
        return build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint).base
    if name == "priced-tcm":
        return priced_tcm_model(monkeypatch, load_scenario(SCENARIOS / "median_k2.scenario"))
    scn = tiny_scenario(T=3, K=2, seed=1)
    if name == "tiny-p1":
        return build_p1(scn.hub, scn.prices, scn.demand)
    if name == "tiny-p2":
        return build_p2(scn.bss, scn.prices, scn.probabilities)
    return build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint).base


@pytest.mark.parametrize("name", ["p2-k6", "p3-k2", "priced-tcm", "tiny-p1", "tiny-p2", "tiny-p3"])
def test_array_split_is_the_dict_split(name, monkeypatch):
    # the same labels, columns, rows, entries in each row's coeffs order and linking rows
    # as the row-by-row split; each block's model is that split's sub-model, on the
    # full model's own Variable objects
    model = split_models(name, monkeypatch)
    arrays = read_model(model)
    # the columns and the objective as the Variable objects and the dict hold them
    for attr in ("lb", "ub", "binary", "block"):
        assert getattr(arrays, attr).tolist() == [getattr(v, attr) for v in model.variables]
    assert arrays.obj_col.tolist() == list(model.objective)
    assert arrays.obj_val.tolist() == list(model.objective.values())
    blocks, linking = split_blocks(arrays)
    expected, expected_linking = dict_split_blocks(model)
    assert linking == expected_linking
    assert [block.label for block in blocks] == [block.label for block in expected]
    row_of = {con.name: i for i, con in enumerate(model.constraints)}
    assert len(row_of) == model.m
    for block, old in zip(blocks, expected):
        assert block.cols.tolist() == old.cols
        assert block.rows.tolist() == [row_of[con.name] for con in old.model.constraints]
        entries = zip(*(a[block.entries].tolist() for a in (arrays.row, arrays.col, arrays.val)))
        assert list(entries) == [
            (row_of[con.name], old.cols[jj], c)
            for con in old.model.constraints for jj, c in con.coeffs.items()
        ]
        sub = bargain._block_model(model, arrays, block)
        assert all(v is model.variables[j] for v, j in zip(sub.variables, old.cols))
        assert sub.variables == old.model.variables
        assert [(list(con.coeffs.items()), con.sense, con.rhs, con.name)
                for con in sub.constraints] == [
            (list(con.coeffs.items()), con.sense, con.rhs, con.name)
            for con in old.model.constraints
        ]
        assert sub.objective == old.model.objective
        assert sub.sense == old.model.sense
    assert exclusivity_pairs(arrays) == dict_exclusivity_pairs(model)


@pytest.mark.parametrize("K", [1, 3])
def test_family_values_read_the_names_layout(K):
    # the layout recorded at build time gives what parsing every column name gives: the
    # same families in the same order, each of the same shape, (T, K) not its transpose
    scn = tiny_scenario(T=3, K=K, seed=1)
    p1 = build_p1(scn.hub, scn.prices, scn.demand)
    p2 = build_p2(scn.bss, scn.prices, scn.probabilities)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    for model in (p1, p2, p3.base):
        x = np.arange(model.n, dtype=float)  # each column's value is its index
        got, expected = family_values(model, x), dict_family_values(model, x)
        assert list(got) == list(expected)
        for family, values in expected.items():
            assert got[family].shape == values.shape
            assert np.array_equal(got[family], values)


def test_a_row_without_columns_is_in_block_minus_one():
    model = LinearModel(
        [Variable("x", ub=1.0, block=0), Variable("y", ub=1.0, block=0)],
        [Constraint({0: 1.0, 1: 1.0}, LE, 1.0, "both"), Constraint({}, LE, 0.0, "empty")],
        {0: 1.0},
    )
    blocks, linking = split_blocks(read_model(model))
    assert linking == []
    assert [(b.label, b.cols.tolist(), b.rows.tolist()) for b in blocks] == [
        (-1, [], [1]), (0, [0, 1], [0])
    ]
    assert [b.label for b in dict_split_blocks(model)[0]] == [-1, 0]


def test_the_first_linking_row_is_named():
    model = LinearModel(
        [Variable("x", ub=1.0, block=0), Variable("y", ub=1.0, block=1)],
        [
            Constraint({0: 1.0}, LE, 1.0, "own"),
            Constraint({1: 1.0, 0: 2.0}, LE, 2.0, "first_link"),
            Constraint({0: 1.0, 1: 1.0}, LE, 1.0, "second_link"),
        ],
        {0: 1.0, 1: 1.0},
        MAX,
    )
    assert split_blocks(read_model(model))[1] == dict_split_blocks(model)[1] == [1, 2]
    with pytest.raises(ValueError, match="row first_link links two blocks"):
        bargain._solve_by_block(model, 1e-4, 10)


def test_var_layout_bijection():
    scn = tiny_scenario(T=2, K=2)
    model = build_p2(scn.bss, scn.prices, scn.probabilities)
    layout = var_layout(model)
    assert len(layout) == model.n
    assert sorted(layout.values()) == list(range(model.n))


# ---------------------------------------------------------------- P3


def test_p3_objectives_reduce_to_p1_p2_coefficients():
    scn = tiny_scenario(T=3, K=2, seed=9, lease_markup=0.0)
    p1 = build_p1(scn.hub, scn.prices, scn.demand)
    p2 = build_p2(scn.bss, scn.prices, scn.probabilities)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)

    joint_names = set(joint_variable_names(p3.base))
    layout3 = {j: v.name for j, v in enumerate(p3.base.variables)}

    a_by_name = {layout3[j]: c for j, c in p3.obj_a.items() if layout3[j] not in joint_names}
    p1_by_name = {p1.variables[j].name: c for j, c in p1.objective.items()}
    assert a_by_name == p1_by_name

    b_by_name = {layout3[j]: c for j, c in p3.obj_b.items() if layout3[j] not in joint_names}
    p2_by_name = {p2.variables[j].name: c for j, c in p2.objective.items()}
    assert b_by_name == p2_by_name


def _family(name):
    return name.split("[")[0]


def _not_lease(name):
    return _family(name) not in LEASE_VAR_PREFIXES


def _rows_by_name(model, keep=lambda name: True):
    """Each row as (name, sense, rhs, [(variable name, coefficient), ...]) in model order."""
    names = [v.name for v in model.variables]
    return [
        (con.name, con.sense, con.rhs,
         [(names[j], c) for j, c in con.coeffs.items() if keep(names[j])])
        for con in model.constraints
    ]


def test_p3_rows_extend_p1_and_p2_rows():
    scn = tiny_scenario(T=3, K=2)
    p1 = build_p1(scn.hub, scn.prices, scn.demand)
    p2 = build_p2(scn.bss, scn.prices, scn.probabilities)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint).base

    shared = [v for v in p3.variables if _not_lease(v.name)]
    alone = p1.variables + p2.variables
    assert [v.name for v in shared] == [v.name for v in alone]
    for v3, v in zip(shared, alone):
        if _family(v.name) == "stored_bss":  # P2 bounds the level by the floor
            k = int(v.name.split(",")[1].rstrip("]"))
            assert (v3.lb, v.lb) == (0.0, scn.bss.compartments[k].min_level)
            assert (v3.ub, v3.binary) == (v.ub, v.binary)
        else:
            assert (v3.lb, v3.ub, v3.binary) == (v.lb, v.ub, v.binary)

    rows3 = _rows_by_name(p3, keep=_not_lease)
    rows1, rows2 = _rows_by_name(p1), _rows_by_name(p2)
    # P1's and P2's rows in their own order, merged as the hub's caps, the
    # storage rows, then the hub's balances
    caps = [row for row in rows1 if _family(row[0]) == "commit_cap"]
    own = {row[0] for row in rows1 + rows2}
    assert [row for row in rows3 if row[0] in own] == caps + rows2 + rows1[len(caps):]
    extra = {_family(row[0]) for row in rows3 if row[0] not in own}
    assert extra == {"level_cap", "level_floor", "hub_balance"}


def test_p3_restricted_optima_equal_independent(tmp_path):
    scn = tiny_scenario(T=2, K=1, seed=4, lease_markup=0.0)
    p1 = build_p1(scn.hub, scn.prices, scn.demand)
    p2 = build_p2(scn.bss, scn.prices, scn.probabilities)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)

    d1 = solve_milp(p1, 1e-9).objective
    d2 = solve_milp(p2, 1e-9).objective

    restricted_a = minimize_a(p3)
    fix_variables(restricted_a, joint_variable_names(p3.base))
    restricted_b = maximize_b(p3)
    fix_variables(restricted_b, joint_variable_names(p3.base))

    fa = solve_milp(restricted_a, 1e-9).objective
    fb = solve_milp(restricted_b, 1e-9).objective
    assert fa == pytest.approx(d1, rel=1e-9, abs=1e-9)
    assert fb == pytest.approx(d2, rel=1e-9, abs=1e-9)


def test_p3_flat_prices_zero_probabilities_no_arbitrage():
    prices = PriceProfiles((0.1,), (0.1,), (0.0,), (0.0,))
    probs = one_hour_probs()
    demand = DemandProfile((100.0,))
    hub = HubSpec((200.0,), 10, 100.0)
    comp = compartment(initial_level=1000.0)
    bss = BssSpec((comp,))
    joint = JointTerms(1.0, marginal_degradation_rate(comp))
    p1 = build_p1(hub, prices, demand)
    p3 = build_p3(hub, bss, prices, probs, demand, joint)
    d1 = SimplexSolver(p1).solve().objective
    fa = solve_milp(minimize_a(p3), 1e-9).objective
    fb = solve_milp(maximize_b(p3), 1e-9).objective
    assert fa == pytest.approx(d1, abs=1e-7)
    assert fb == pytest.approx(0.0, abs=1e-9)


def test_p3_objective_consistency_via_breakdown():
    scn = tiny_scenario(T=3, K=1, seed=8)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, scn.demand, scn.joint)
    sol = solve_milp(minimize_a(p3), 1e-6)
    fa = p3.value_a(sol.incumbent)
    fb = p3.value_b(sol.incumbent)
    br = objective_breakdown(
        p3, sol.incumbent, scn.prices, bss=scn.bss, probs=scn.probabilities, joint=scn.joint
    )
    assert br.hub_total() == pytest.approx(fa, rel=1e-9, abs=1e-9)
    assert br.bss_total() == pytest.approx(fb, rel=1e-9, abs=1e-9)


def test_zero_assignment_is_feasible_witness():
    scn = tiny_scenario(T=3, K=2, seed=2, demand_level=0.0)
    demand = DemandProfile((0.0,) * 3)
    p3 = build_p3(scn.hub, scn.bss, scn.prices, scn.probabilities, demand, scn.joint)
    x = np.zeros(p3.base.n)
    layout = var_layout(p3.base)
    for k in range(scn.bss.k):
        level = scn.bss.compartments[k].initial_level
        for t in range(3):
            x[layout[f"stored_bss[{t},{k}]"]] = level
    assert constraint_violation(p3.base, x) <= 1e-12


def test_price_scaling_scales_objectives():
    scn = tiny_scenario(T=2, K=1, seed=6)
    s = 3.0
    scaled_prices = PriceProfiles(
        tuple(s * v for v in scn.prices.lambda_da),
        tuple(s * v for v in scn.prices.lambda_rt),
        tuple(s * v for v in scn.prices.lambda_up),
        tuple(s * v for v in scn.prices.lambda_dn),
    )
    # wear parameters are money-valued too, so scale them alongside prices
    comp = compartment(unit_cost=s * 1_000_000.0)
    bss = BssSpec(tuple(comp for _ in range(scn.bss.k)))

    base = solve_milp(build_p2(scn.bss, scn.prices, scn.probabilities), 1e-9)
    scaled = solve_milp(build_p2(bss, scaled_prices, scn.probabilities), 1e-9)
    assert scaled.objective == pytest.approx(s * base.objective, rel=1e-9, abs=1e-9)
    assert scaled.incumbent == pytest.approx(base.incumbent, abs=1e-6)

    p1 = SimplexSolver(build_p1(scn.hub, scn.prices, scn.demand)).solve()
    p1s = SimplexSolver(build_p1(scn.hub, scaled_prices, scn.demand)).solve()
    assert p1s.objective == pytest.approx(s * p1.objective, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------- breakdown


def test_breakdown_all_zero():
    scn = tiny_scenario(T=2, K=1, demand_level=0.0)
    demand = DemandProfile((0.0, 0.0))
    model = build_p1(scn.hub, scn.prices, demand)
    br = objective_breakdown(model, np.zeros(model.n), scn.prices)
    assert br.hub_total() == 0.0
    assert br.bss_total() == 0.0


def test_breakdown_p2_hand_values():
    model, comp = p2_single_hour(
        0.05, 0.0, 0.10, 1.0, 0.0, 1.0, 0.0, initial_level=3000.0, min_level=0.0
    )
    sol = solve_milp(model, gap_target=1e-9)
    br = objective_breakdown(
        model, sol.incumbent, one_hour_prices(0.0, 0.10, 0.05, 0.0),
        bss=BssSpec((comp,)), probs=one_hour_probs(1.0, 0.0, 1.0, 0.0),
    )
    assert br.r_cap == pytest.approx(150.0, abs=1e-6)
    assert br.r_dep == pytest.approx(300.0, abs=1e-6)
    assert br.c_phi == pytest.approx(0.0, abs=1e-9)
    assert br.bss_total() == pytest.approx(sol.objective, rel=1e-9)


def test_breakdown_rejects_infeasible():
    scn = tiny_scenario(T=2, K=1)
    model = build_p1(scn.hub, scn.prices, scn.demand)
    with pytest.raises(ValueError):
        objective_breakdown(model, np.zeros(model.n), scn.prices)  # demand balance violated
