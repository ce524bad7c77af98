import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from coopt import bargain, sensitivity
from coopt.bnb import BUDGET_EXHAUSTED, MilpSolution, SolverError
from coopt.scenario import with_profiles
from coopt.sensitivity import (
    ANOVA_FIELDS,
    SWEEP_FIELDS,
    AnovaTable,
    FactorSpec,
    anova,
    f_cdf,
    factorial_profit_study,
    f_critical,
    f_survival,
    fractional_factorial_design,
    regularized_beta,
    sweep_grid,
)

from conftest import tiny_scenario


def six_factors(levels=(-1.0, 1.0)):
    return tuple(FactorSpec(name, levels) for name in ANOVA_FIELDS)


def reserve_series(scn):
    """The scenario's series of the six ANOVA fields, by name."""
    series = {**asdict(scn.prices), **asdict(scn.probabilities)}
    return {name: series[name] for name in ANOVA_FIELDS}


def sweep_factors(da_levels, rt_levels, demand_levels):
    return tuple(
        FactorSpec(name, levels)
        for name, levels in zip(SWEEP_FIELDS, (da_levels, rt_levels, demand_levels))
    )


# ---------------------------------------------------------------- F quantile


def test_f_critical_table_value():
    assert f_critical(0.05, 1, 23) == pytest.approx(4.279, abs=1e-3)


def test_f_critical_chi_square_limit():
    assert f_critical(0.05, 1, 10**6) == pytest.approx(3.841, abs=1e-3)


def test_f_median_of_symmetric_ratio():
    assert f_critical(0.5, 1, 1) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("df1,df2", [(1, 1), (1, 23), (2, 10), (5, 40), (10, 3)])
def test_f_critical_matches_scipy(alpha, df1, df2):
    ours = f_critical(alpha, df1, df2)
    ref = scipy_stats.f.isf(alpha, df1, df2)
    assert ours == pytest.approx(ref, rel=1e-6)


def test_f_cdf_and_survival_match_scipy():
    for x in (0.1, 1.0, 2.5, 7.0):
        assert f_cdf(x, 3, 17) == pytest.approx(scipy_stats.f.cdf(x, 3, 17), rel=1e-9)
        assert f_survival(x, 1, 23) == pytest.approx(scipy_stats.f.sf(x, 1, 23), rel=1e-9)


def test_regularized_beta_matches_scipy():
    for a, b in ((0.5, 0.5), (2.0, 5.0), (11.5, 0.5)):
        for x in (0.01, 0.3, 0.7, 0.99):
            assert regularized_beta(a, b, x) == pytest.approx(
                scipy_stats.beta.cdf(x, a, b), rel=1e-10
            )


def test_f_critical_validation():
    with pytest.raises(ValueError):
        f_critical(0.0, 1, 23)
    with pytest.raises(ValueError):
        f_critical(0.05, 0, 23)


# ---------------------------------------------------------------- design


def test_design_orthogonality_and_generator():
    design = fractional_factorial_design(six_factors())
    signs = design.signs
    assert signs.shape == (32, 6)
    for i in range(6):
        for j in range(i + 1, 6):
            assert int(signs[:, i] @ signs[:, j]) == 0
    assert np.array_equal(signs[:, 5], np.prod(signs[:, :5], axis=1))
    assert len({tuple(row) for row in signs}) == 32


def test_design_runs_map_levels():
    design = fractional_factorial_design(six_factors(levels=("lo", "hi")))
    runs = design.runs()
    assert len(runs) == 32
    assert runs[0]["lambda_up"] in ("lo", "hi")


def test_design_rejects_wrong_factor_count():
    with pytest.raises(ValueError):
        fractional_factorial_design(six_factors()[:5])


# ---------------------------------------------------------------- anova


def test_pure_contrast_signal_isolates_one_factor():
    design = fractional_factorial_design(six_factors())
    y = 3.0 + 2.0 * design.signs[:, 0].astype(float)
    table = anova(design, y)
    by_term = {r.term: r for r in table.rows}
    assert by_term["lambda_up"].significant
    assert by_term["lambda_up"].effect == pytest.approx(4.0, abs=1e-12)
    for r in table.rows:
        if r.term != "lambda_up":
            assert r.sum_sq == pytest.approx(0.0, abs=1e-18)
    assert table.residual_ss == pytest.approx(0.0, abs=1e-18)


def test_residual_df_and_critical_value():
    design = fractional_factorial_design(six_factors())
    rng = np.random.default_rng(0)
    table = anova(design, rng.normal(size=32))
    assert table.residual_df == 23
    assert table.f_crit == pytest.approx(4.279, abs=1e-3)


@given(st.lists(st.floats(-50, 50), min_size=32, max_size=32))
@settings(max_examples=60, deadline=None)
def test_ss_decomposition(responses):
    design = fractional_factorial_design(six_factors())
    table = anova(design, responses)
    model_ss = sum(r.sum_sq for r in table.rows)
    assert model_ss + table.residual_ss == pytest.approx(
        table.total_ss, rel=1e-9, abs=1e-9
    )


def test_run_permutation_leaves_effects_unchanged():
    design = fractional_factorial_design(six_factors())
    rng = np.random.default_rng(5)
    y = rng.normal(size=32)
    perm = rng.permutation(32)
    permuted = fractional_factorial_design(six_factors())
    permuted = type(permuted)(permuted.factors, permuted.signs[perm], permuted.generator)
    a = anova(design, y)
    b = anova(permuted, y[perm])
    for ra, rb in zip(a.rows, b.rows):
        assert rb.effect == pytest.approx(ra.effect, rel=1e-12, abs=1e-12)


def test_anova_validation():
    design = fractional_factorial_design(six_factors())
    with pytest.raises(ValueError):
        anova(design, np.zeros(16))
    # eight runs leave no residual degrees of freedom for the eight model terms
    short = type(design)(design.factors, design.signs[:8], design.generator)
    with pytest.raises(ValueError, match="residual degrees of freedom"):
        anova(short, np.zeros(8))


def test_injected_effects_recovered():
    design = fractional_factorial_design(six_factors())
    injected = {"lambda_up": 3.0, "acc_up": 2.5, "dep_up": 4.0, "dep_dn": 3.5}
    null_mains = ("lambda_dn", "acc_dn")
    idx = {f.name: j for j, f in enumerate(design.factors)}
    hits = 0
    false_flags = 0
    reps = 200
    rng = np.random.default_rng(2024)
    for _ in range(reps):
        y = 10.0 + rng.normal(0.0, 1.0, size=32)
        for name, effect in injected.items():
            y = y + (effect / 2.0) * design.signs[:, idx[name]]
        table = anova(design, y)
        flagged = {r.term for r in table.rows if r.significant}
        if set(injected) <= flagged:
            hits += 1
        false_flags += sum(1 for name in null_mains if name in flagged)
    assert hits / reps >= 0.95
    # null mains trigger at roughly the stated type-I level
    assert false_flags / (reps * len(null_mains)) <= 0.12


# ---------------------------------------------------------------- sweep


def scaled(series, factor):
    return tuple(factor * v for v in series)


def test_sweep_grid_shape_and_rationality():
    scn = tiny_scenario(T=3, K=1, seed=17)
    da = scn.prices.lambda_da
    rt = scn.prices.lambda_rt
    dem = scn.demand.ev_load
    result = sweep_grid(
        scn,
        sweep_factors(
            [scaled(da, 0.6), da, scaled(da, 1.4)],
            [scaled(rt, 0.6), rt, scaled(rt, 1.4)],
            [scaled(dem, 0.5), dem, scaled(dem, 1.5)],
        ),
        gap=1e-6,
    )
    assert result.reductions.shape == (3, 3, 3)
    assert not result.failures
    # the bargain never leaves the hub worse off than acting alone
    assert (result.reductions >= -1e-6).all()


def test_sweep_flat_identical_prices_yield_no_gain():
    scn = tiny_scenario(T=2, K=1, seed=23)
    flat = (0.05, 0.05)
    dem = scn.demand.ev_load
    result = sweep_grid(
        scn,
        sweep_factors([flat, flat, flat], [flat, flat, flat], [scaled(dem, 0.5), dem, scaled(dem, 1.5)]),
        gap=1e-6,
    )
    assert result.reductions == pytest.approx(np.zeros((3, 3, 3)), abs=1e-4)


def test_sweep_requires_three_levels():
    scn = tiny_scenario(T=2, K=1)
    with pytest.raises(ValueError):
        sweep_grid(scn, sweep_factors([scn.prices.lambda_da] * 2, [scn.prices.lambda_rt] * 3,
                                      [scn.demand.ev_load] * 3))
    with pytest.raises(ValueError):
        sweep_grid(scn, same_levels(scn)[:2])


def same_levels(scn):
    return sweep_factors(
        [scn.prices.lambda_da] * 3, [scn.prices.lambda_rt] * 3, [scn.demand.ev_load] * 3
    )


def test_sweep_flags_failed_cells_and_propagates_solver_errors(monkeypatch):
    scn = tiny_scenario(T=2, K=1)
    exhausted = MilpSolution(BUDGET_EXHAUSTED, None, math.nan, math.nan, math.inf, 1)
    monkeypatch.setattr(bargain, "solve_milp", lambda *args, **kwargs: exhausted)
    result = sweep_grid(scn, same_levels(scn))
    assert np.isnan(result.reductions).all()
    assert set(result.failures) == {(i, j, k) for i in range(3) for j in range(3) for k in range(3)}
    assert set(result.failures.values()) == {
        "hub model: node budget exhausted before reaching the gap target"
    }

    def stopped(*args, **kwargs):
        raise SolverError("simplex stopped on the root relaxation: singular")

    monkeypatch.setattr(bargain, "solve_milp", stopped)
    with pytest.raises(SolverError):
        sweep_grid(scn, same_levels(scn))


def test_studies_give_the_same_responses_from_a_worker_pool():
    scn = tiny_scenario(T=2, K=1, seed=1, lease_markup=3.0)
    factors = sweep_factors(*(
        [scaled(series, f) for f in (0.6, 1.0, 1.4)]
        for series in (scn.prices.lambda_da, scn.prices.lambda_rt, scn.demand.ev_load)
    ))
    serial, pooled = (sweep_grid(scn, factors, workers=w).reductions for w in (1, 2))
    assert np.array_equal(serial, pooled, equal_nan=True)

    factors = [
        FactorSpec(name, (scaled(v, 0.8), scaled(v, 1.1)))
        for name, v in reserve_series(scn).items()
    ]
    serial, pooled = (factorial_profit_study(scn, factors, workers=w)[1] for w in (1, 2))
    assert np.array_equal(serial, pooled, equal_nan=True)


def test_zero_disagreement_value_is_a_failed_cell(monkeypatch):
    # a response is a percentage of a disagreement value, undefined at 0
    bundle = SimpleNamespace(
        bargain=SimpleNamespace(nbs=SimpleNamespace(tau1=0.0, tau2=0.0), gap=0.0),
        d=SimpleNamespace(d1=0.0, d2=0.0),
    )
    monkeypatch.setattr(sensitivity, "solve_study", lambda *args, **kwargs: bundle)
    scn = tiny_scenario(T=2, K=1)
    result = sweep_grid(scn, same_levels(scn))
    assert np.isnan(result.reductions).all()
    assert set(result.failures.values()) == {"zero disagreement value: the hub's cost alone is 0"}
    factors = [FactorSpec(name, (values, values)) for name, values in reserve_series(scn).items()]
    with pytest.raises(ValueError, match="anova run 0: zero disagreement value: the storage profit"):
        factorial_profit_study(scn, factors)


def test_scenario_writer_sets_hourly_fields_and_rejects_unknown_names():
    scn = tiny_scenario(T=2, K=1)
    cell = with_profiles(scn, {"lambda_up": (0.5, 0.25), "ev_load": (1.0, 2.0)})
    assert cell.prices.lambda_up == (0.5, 0.25)
    assert cell.demand.ev_load == (1.0, 2.0)
    assert cell.hub.da_cap == (2.0, 4.0)  # a new demand brings its commitment cap
    assert cell.prices.lambda_da == scn.prices.lambda_da
    for name in ("lambda_ad", "lease_markup", "station_count"):
        with pytest.raises(ValueError, match=f"no hourly scenario field named {name}"):
            with_profiles(scn, {name: (1.0, 1.0)})
