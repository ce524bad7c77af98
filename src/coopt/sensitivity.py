"""Sensitivity studies: the 3x3x3 price/demand sweep and the 2^(6-1) ANOVA.

The F-distribution quantile is computed in-house from the regularized
incomplete beta function (continued fraction plus bisection inversion), so the
significance threshold does not depend on an external statistics stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bargain import (
    DEFAULT_GAP,
    DEFAULT_NODE_BUDGET,
    BudgetExhaustedError,
    InfeasibleError,
    solve_study,
)
from .scenario import ScenarioInputs, with_profiles
from .simulate import percentile_profiles

# ---------------------------------------------------------------------------
# F distribution via the regularized incomplete beta function


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_cdf(x: float, df1: float, df2: float) -> float:
    if x <= 0.0:
        return 0.0
    w = df1 * x / (df1 * x + df2)
    return regularized_beta(df1 / 2.0, df2 / 2.0, w)


def f_survival(x: float, df1: float, df2: float) -> float:
    return 1.0 - f_cdf(x, df1, df2)


def f_critical(alpha: float, df1: float, df2: float) -> float:
    """Upper-alpha quantile of the F(df1, df2) distribution."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    target = 1.0 - alpha
    lo, hi = 0.0, 1.0
    for _ in range(200):  # bisection on w = df1 x / (df1 x + df2)
        mid = 0.5 * (lo + hi)
        if regularized_beta(df1 / 2.0, df2 / 2.0, mid) < target:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    return df2 * w / (df1 * (1.0 - w))


# ---------------------------------------------------------------------------
# fractional factorial design and ANOVA


@dataclass(frozen=True)
class FactorSpec:
    name: str
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 2:
            raise ValueError(f"factor {self.name} needs >= 2 levels")


@dataclass(frozen=True)
class DesignMatrix:
    """Half-fraction two-level design: 32 runs over 6 factors."""

    factors: tuple[FactorSpec, ...]
    signs: np.ndarray  # (32, 6) of +-1
    generator: str

    def runs(self):
        """Level assignment per run, mapping -1 to levels[0] and +1 to levels[1]."""
        out = []
        for row in self.signs:
            out.append(
                {
                    f.name: f.levels[0] if s < 0 else f.levels[1]
                    for f, s in zip(self.factors, row)
                }
            )
        return out


def fractional_factorial_design(factors) -> DesignMatrix:
    factors = tuple(factors)
    if len(factors) != 6:
        raise ValueError(f"expected exactly 6 factors, got {len(factors)}")
    names = [f.name for f in factors]
    if len(set(names)) != 6:
        raise ValueError("factor names must be unique")
    for f in factors:
        if len(f.levels) != 2:
            raise ValueError(f"factor {f.name} must have exactly 2 levels")
    n = 32
    signs = np.empty((n, 6), dtype=int)
    for i in range(n):
        for j in range(5):
            signs[i, j] = 1 if (i >> j) & 1 else -1
        signs[i, 5] = int(np.prod(signs[i, :5]))  # generator: five-way interaction
    return DesignMatrix(factors, signs, "sixth column = product of the first five")


@dataclass(frozen=True)
class AnovaRow:
    term: str
    effect: float
    sum_sq: float
    df: int
    f_stat: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class AnovaTable:
    rows: tuple[AnovaRow, ...]
    residual_ss: float
    residual_df: int
    total_ss: float
    f_crit: float
    alpha: float


def anova(design: DesignMatrix, responses, alpha: float = 0.05) -> AnovaTable:
    """Orthogonal-contrast ANOVA of a two-level design.

    The model holds the six mains and the two cross terms the profit
    response reacts to, the first factor by the fifth (up price x up
    deployment) and the fifth by the sixth (up x down deployment);
    everything else is pooled into the residual.
    """
    y = np.asarray(responses, dtype=float)
    n = design.signs.shape[0]
    if y.shape != (n,):
        raise ValueError(f"expected {n} responses, got shape {y.shape}")
    names = [f.name for f in design.factors]
    index = {name: j for j, name in enumerate(names)}
    model_terms = names + [(names[0], names[4]), (names[4], names[5])]

    columns = []
    labels = []
    for term in model_terms:
        if isinstance(term, str):
            col = design.signs[:, index[term]].astype(float)
            labels.append(term)
        else:
            a, b = term
            col = (design.signs[:, index[a]] * design.signs[:, index[b]]).astype(float)
            labels.append(f"{a} x {b}")
        columns.append(col)

    residual_df = (n - 1) - len(columns)
    if residual_df <= 0:
        raise ValueError(f"residual degrees of freedom {residual_df} <= 0")

    total_ss = float(np.sum((y - y.mean()) ** 2))
    crit = f_critical(alpha, 1, residual_df)

    effects = []
    sums = []
    for col in columns:
        contrast = float(col @ y)
        effect = contrast / (n / 2)
        effects.append(effect)
        sums.append(contrast**2 / n)  # = (n/4) * effect^2
    residual_ss = max(total_ss - sum(sums), 0.0)
    ms_resid = residual_ss / residual_df

    rows = []
    for label, effect, ss in zip(labels, effects, sums):
        if ms_resid > 0:
            f_stat = ss / ms_resid
            p = f_survival(f_stat, 1, residual_df)
        else:
            f_stat = math.inf if ss > 0 else 0.0
            p = 0.0 if ss > 0 else 1.0
        rows.append(AnovaRow(label, effect, ss, 1, f_stat, p, f_stat > crit))
    return AnovaTable(tuple(rows), residual_ss, residual_df, total_ss, crit, alpha)


# ---------------------------------------------------------------------------
# scenario-level studies

# each study's factors: the scenario fields it varies, each at these per-hour
# percentiles of its synthetic history.  The sweep's axes are Table 3's; the
# ANOVA's order sets the design's generator (the sixth factor is the product
# of the first five) and the cross terms of anova's model.
SWEEP_FIELDS = ("lambda_da", "lambda_rt", "ev_load")
SWEEP_PERCENTILES = (10.0, 50.0, 90.0)
SWEEP_LABELS = ("low", "median", "high")
ANOVA_FIELDS = ("lambda_up", "lambda_dn", "acc_up", "acc_dn", "dep_up", "dep_dn")
ANOVA_PERCENTILES = (10.0, 90.0)


def study_factors(histories, names, percentiles) -> tuple[FactorSpec, ...]:
    """One factor per named field of ``histories`` (field name to a
    ``(days, hours)`` history), its levels the given per-hour percentiles."""
    return tuple(
        FactorSpec(name, tuple(tuple(percentile_profiles(histories[name], p)) for p in percentiles))
        for name in names
    )


def _percent(gain: float, base: float, what: str):
    """``(100 gain / base, None)``, or ``(nan, error)`` when ``base`` is 0."""
    if abs(base) < 1e-9:
        return math.nan, ValueError(f"zero disagreement value: {what} alone is 0")
    return 100.0 * gain / base, None


def _hub_cost_reduction(bundle):
    return _percent(bundle.bargain.nbs.tau1, bundle.d.d1, "the hub's cost")


def _storage_profit_increase(bundle):
    return _percent(bundle.bargain.nbs.tau2, bundle.d.d2, "the storage profit")


def _run_cell(job):
    """One study cell: the Nash bargain on a scenario, reduced to a response.

    Returns ``(response, None, missed)``, where ``missed`` is the bargain's
    Nash bound, product and relative gap when that gap exceeds the cell's
    ``gap``, and None otherwise.  The first two are ``(nan, error)`` when the
    response's base, a disagreement value, is 0, and the triple is ``(nan,
    error, None)`` when a model the cell needs is infeasible or exhausts its
    node budget; other errors propagate.
    """
    scn, response, settings = job
    try:
        bundle = solve_study(scn, "nbs", **settings)
    except (InfeasibleError, BudgetExhaustedError) as exc:
        return math.nan, exc, None
    bargain, missed = bundle.bargain, None
    if bargain.gap > settings["gap"]:
        missed = (bargain.bound, bargain.nbs.product, bargain.gap)
    return (*response(bundle), missed)


def _map_cells(jobs, workers: int):
    """``(response, error, missed)`` per job in job order, from a
    process pool when ``workers > 1``.  Lazy, so a caller that stops at a
    failed cell runs no further cells in the serial case.  The pool is
    imported here, so a command that starts none does not load it."""
    if workers <= 1:
        yield from map(_run_cell, jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_run_cell, jobs)


@dataclass(frozen=True)
class SweepResult:
    """Hub cost-reduction percentage per combination of the three factors' levels."""

    reductions: np.ndarray  # (3, 3, 3), NaN where a cell failed
    failures: dict  # (i, j, k) -> why that cell is NaN
    uncertified: dict  # (i, j, k) -> (Nash bound, product, gap) where the gap exceeds the study's


def sweep_grid(
    template: ScenarioInputs,
    factors,
    *,
    gap: float = DEFAULT_GAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
) -> SweepResult:
    """27-cell sensitivity of the bargain's hub cost reduction to three
    factors of three levels each (Table 3's are ``SWEEP_FIELDS``), with every
    other input pinned at the template's values.

    A cell is NaN when its models are infeasible or exhaust the node budget,
    or when the hub's cost alone is 0; ``failures`` gives each such cell's
    reason.  ``uncertified`` gives the cells whose Nash bound stays above the
    product by more than ``gap``."""
    factors = tuple(factors)
    if len(factors) != 3 or any(len(f.levels) != 3 for f in factors):
        raise ValueError("the sweep needs exactly 3 factors of 3 levels each")
    template.require_joint()

    settings = dict(gap=gap, node_budget=node_budget)
    cells = list(itertools.product(range(3), repeat=3))
    jobs = [
        (
            with_profiles(template, {f.name: f.levels[i] for f, i in zip(factors, cell)}),
            _hub_cost_reduction,
            settings,
        )
        for cell in cells
    ]
    grid = np.empty((3, 3, 3))
    failures, uncertified = {}, {}
    for cell, (value, error, missed) in zip(cells, _map_cells(jobs, workers)):
        grid[cell] = value
        if error is not None:
            failures[cell] = str(error)
        if missed is not None:
            uncertified[cell] = missed
    return SweepResult(grid, failures, uncertified)


def factorial_profit_study(
    template: ScenarioInputs,
    factors,
    *,
    gap: float = DEFAULT_GAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
):
    """Run the 32 design cells and return the design, the profit-increase
    responses, and, by run, the (Nash bound, product, gap) of each run whose
    bound stays above the product by more than ``gap``.

    A run whose models are infeasible or exhaust the node budget, or whose
    storage profit alone is 0, stops the study with the same error, naming
    the run."""
    design = fractional_factorial_design(factors)
    settings = dict(gap=gap, node_budget=node_budget)
    jobs = [
        (with_profiles(template, assignment), _storage_profit_increase, settings)
        for assignment in design.runs()
    ]
    responses, uncertified = [], {}
    for run, (value, error, missed) in enumerate(_map_cells(jobs, workers)):
        if error is not None:
            raise type(error)(f"anova run {run}: {error}") from error
        responses.append(value)
        if missed is not None:
            uncertified[run] = missed
    return design, np.array(responses), uncertified
