"""Command-line front end.

Every command reads a scenario (where applicable), solves, and writes CSV
reports into ``--out``.  Flag defaults may be overridden by ``COOPT_*``
environment variables (flag > environment > built-in default).  Exit codes:
0 success, 2 input error, 3 infeasible model, 4 node budget exhausted before
reaching the gap target; each failure prints one line on stderr.  ``anova``
stops at its first failed run with 3 or 4 and names the run, while ``sweep``
records a failed cell as NaN.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .bargain import BudgetExhaustedError, InfeasibleError, solve_study
from .io import (
    EXIT_BUDGET_EXHAUSTED,
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    ScenarioError,
    emit_report,
    load_scenario,
    write_bid_history,
    write_csv,
    write_frontier,
    write_price_history,
)
from .models import AS_WRITTEN, DEPLOYMENT_REVENUE_MODES
from .presets import (
    MarketSimConfig,
    daily_probability_profiles,
    default_demand_config,
    demand_history,
    synthetic_market_history,
    synthetic_price_history,
)
from .sensitivity import (
    FactorSpec,
    anova,
    default_model_terms,
    factorial_profit_study,
    sweep_grid,
)
from .simulate import estimate_probabilities, percentile_profiles

COMMANDS = (
    "solve-p1",
    "solve-p2",
    "solve-p3-tcm",
    "solve-p3-nbs",
    "frontier",
    "simulate-market",
    "generate-demand",
    "sweep",
    "anova",
)


@dataclass
class RunConfig:
    command: str
    scenario: Path | None
    out: Path
    gap_target: float = 5e-4
    grid_points: int = 41
    seed: int = 0
    workers: int = 1
    deployment_revenue: str = AS_WRITTEN
    days: int = 30
    alpha: float = 0.05
    node_budget: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.gap_target <= 0.1:
            raise ScenarioError(f"gap must be in (0, 0.1], got {self.gap_target}")
        if self.grid_points < 2:
            raise ScenarioError(f"grid-points must be >= 2, got {self.grid_points}")
        if self.workers < 1:
            raise ScenarioError(f"workers must be >= 1, got {self.workers}")
        if self.deployment_revenue not in DEPLOYMENT_REVENUE_MODES:
            raise ScenarioError(
                f"deployment-revenue must be one of {DEPLOYMENT_REVENUE_MODES}"
            )


def _env(name: str, default, cast):
    raw = os.environ.get(f"COOPT_{name}")
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ScenarioError(f"COOPT_{name}: cannot parse {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopt",
        description="Joint EV-hub / battery-storage operation studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name not in ("simulate-market", "generate-demand"):
            p.add_argument("--scenario", type=Path, required=True)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--gap", type=float, default=None)
        p.add_argument(
            "--grid-points", type=int, default=None,
            help="storage floors sampled by the frontier command; other commands ignore it",
        )
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--workers", type=int, default=None,
            help="worker processes for the sweep and anova commands; other commands ignore it",
        )
        p.add_argument("--deployment-revenue", choices=DEPLOYMENT_REVENUE_MODES, default=None)
        p.add_argument("--days", type=int, default=None)
        p.add_argument("--node-budget", type=int, default=None)
        if name == "anova":
            p.add_argument("--alpha", type=float, default=0.05)
    return parser


def config_from_args(args) -> RunConfig:
    out = args.out if args.out is not None else _env("OUT", Path("out"), Path)
    return RunConfig(
        command=args.command,
        scenario=getattr(args, "scenario", None),
        out=Path(out),
        gap_target=args.gap if args.gap is not None else _env("GAP", 5e-4, float),
        grid_points=(
            args.grid_points if args.grid_points is not None else _env("GRID_POINTS", 41, int)
        ),
        seed=args.seed if args.seed is not None else _env("SEED", 0, int),
        workers=args.workers if args.workers is not None else _env("WORKERS", 1, int),
        deployment_revenue=(
            args.deployment_revenue
            if args.deployment_revenue is not None
            else _env("DEPLOYMENT_REVENUE", AS_WRITTEN, str)
        ),
        days=args.days if args.days is not None else 30,
        alpha=getattr(args, "alpha", 0.05),
        node_budget=args.node_budget if args.node_budget is not None else 200_000,
    )


_SOLVE_GOALS = {
    "solve-p1": "p1",
    "solve-p2": "p2",
    "solve-p3-tcm": "tcm",
    "solve-p3-nbs": "nbs",
    "frontier": "frontier",
}


def _run_solve(cfg: RunConfig) -> int:
    bundle = solve_study(
        load_scenario(cfg.scenario),
        _SOLVE_GOALS[cfg.command],
        deployment_revenue=cfg.deployment_revenue,
        gap=cfg.gap_target,
        node_budget=cfg.node_budget,
        grid_points=cfg.grid_points,
    )
    if cfg.command == "solve-p1":
        print(f"hub cost: {bundle.p1.objective!r}")
    elif cfg.command == "solve-p2":
        print(f"bss profit: {bundle.p2.objective!r}")
    elif cfg.command == "solve-p3-tcm":
        print(f"tcm hub cost: {bundle.tcm.f_a!r}")
        print(f"tcm bss profit: {bundle.tcm.f_b!r}")
    elif cfg.command == "solve-p3-nbs":
        nbs = bundle.bargain.nbs
        print(f"nbs hub cost: {nbs.f_a!r}")
        print(f"nbs bss profit: {nbs.f_b!r}")
        print(f"nash product: {nbs.product!r}")
        print(f"nash bound: {bundle.bargain.bound!r}")
    else:  # frontier
        cfg.out.mkdir(parents=True, exist_ok=True)
        write_frontier(cfg.out / "frontier.csv", bundle.frontier)
        print(f"frontier points: {len(bundle.frontier)}")
        return EXIT_OK

    emit_report(bundle, cfg.out)
    return EXIT_OK


def _run_generate_demand(cfg: RunConfig) -> int:
    demand_cfg = default_demand_config(cfg.seed)
    history = demand_history(demand_cfg, cfg.days)
    cfg.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (day, hour, float(history[day, hour]))
        for day in range(history.shape[0])
        for hour in range(history.shape[1])
    ]
    write_csv(cfg.out / "demand_history.csv", ("day", "hour", "ev_load"), rows)
    for p in (10.0, 50.0, 90.0):
        profile = percentile_profiles(history, p)
        write_csv(
            cfg.out / f"demand_p{int(p)}.csv",
            ("hour", "ev_load"),
            list(enumerate(float(v) for v in profile)),
        )
    print(f"wrote {history.shape[0]} days of demand to {cfg.out}")
    return EXIT_OK


def _run_simulate_market(cfg: RunConfig) -> int:
    records, up_prices, dn_prices = synthetic_market_history(
        MarketSimConfig(seed=cfg.seed), cfg.days
    )
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_bid_history(cfg.out / "bids_up.csv", [r for r in records if r.side == "up"])
    write_bid_history(cfg.out / "bids_dn.csv", [r for r in records if r.side == "dn"])
    write_price_history(cfg.out / "clearing_prices.csv", up_prices, dn_prices)
    probs = estimate_probabilities(records)
    rows = [
        (t, probs.acc_up[t], probs.acc_dn[t], probs.dep_up[t], probs.dep_dn[t])
        for t in range(24)
    ]
    write_csv(
        cfg.out / "probabilities.csv",
        ("hour", "acc_up", "acc_dn", "dep_up", "dep_dn"),
        rows,
    )
    print(f"wrote {cfg.days} days of market history to {cfg.out}")
    return EXIT_OK


def _price_levels(cfg: RunConfig):
    da_hist, rt_hist = synthetic_price_history(cfg.days, cfg.seed)
    da_levels = [tuple(percentile_profiles(da_hist, p)) for p in (10.0, 50.0, 90.0)]
    rt_levels = [tuple(percentile_profiles(rt_hist, p)) for p in (10.0, 50.0, 90.0)]
    return da_levels, rt_levels


def _run_sweep(cfg: RunConfig) -> int:
    scn = load_scenario(cfg.scenario)
    scn.require_joint()
    da_levels, rt_levels = _price_levels(cfg)
    dem_hist = demand_history(default_demand_config(cfg.seed, 4.0), cfg.days, scn.hub)
    demand_levels = [tuple(percentile_profiles(dem_hist, p)) for p in (10.0, 50.0, 90.0)]
    result = sweep_grid(
        scn, da_levels, rt_levels, demand_levels,
        deployment_revenue=cfg.deployment_revenue, gap=cfg.gap_target,
        node_budget=cfg.node_budget, workers=cfg.workers,
    )
    cfg.out.mkdir(parents=True, exist_ok=True)
    labels = result.labels
    header = ["da_price"]
    for dem in labels:
        for rt in labels:
            header.append(f"demand_{dem}_rt_{rt}")
    rows = []
    for i, da in enumerate(labels):
        row = [da]
        for k in range(3):
            for j in range(3):
                row.append(float(result.reductions[i, j, k]))
        rows.append(tuple(row))
    write_csv(cfg.out / "table3.csv", tuple(header), rows)
    long_rows = [
        (labels[i], labels[j], labels[k], float(result.reductions[i, j, k]))
        for i in range(3)
        for j in range(3)
        for k in range(3)
    ]
    write_csv(
        cfg.out / "sweep_long.csv",
        ("da_price", "rt_price", "demand", "cost_reduction_pct"),
        long_rows,
    )
    print(f"sweep written to {cfg.out}")
    return EXIT_OK


def _run_anova(cfg: RunConfig) -> int:
    scn = load_scenario(cfg.scenario)
    scn.require_joint()
    records, up_prices, dn_prices = synthetic_market_history(
        MarketSimConfig(seed=cfg.seed), cfg.days
    )
    daily = daily_probability_profiles(records)
    levels = {
        "lambda_up": [tuple(percentile_profiles(up_prices, p)) for p in (10.0, 90.0)],
        "lambda_dn": [tuple(percentile_profiles(dn_prices, p)) for p in (10.0, 90.0)],
        "acc_up": [tuple(percentile_profiles(daily["acc_up"], p)) for p in (10.0, 90.0)],
        "acc_dn": [tuple(percentile_profiles(daily["acc_dn"], p)) for p in (10.0, 90.0)],
        "dep_up": [tuple(percentile_profiles(daily["dep_up"], p)) for p in (10.0, 90.0)],
        "dep_dn": [tuple(percentile_profiles(daily["dep_dn"], p)) for p in (10.0, 90.0)],
    }
    factors = [FactorSpec(name, tuple(levels[name])) for name in levels]
    design, responses = factorial_profit_study(
        scn, factors, deployment_revenue=cfg.deployment_revenue, gap=cfg.gap_target,
        node_budget=cfg.node_budget, workers=cfg.workers,
    )
    table = anova(design, responses, default_model_terms(design.factors), cfg.alpha)
    cfg.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (r.term, r.effect, r.sum_sq, r.df, r.f_stat, table.f_crit, r.p_value,
         "significant" if r.significant else "not significant")
        for r in table.rows
    ]
    write_csv(
        cfg.out / "table4.csv",
        ("term", "effect", "sum_sq", "df", "f_stat", "f_critical", "p_value", "decision"),
        rows,
    )
    write_csv(
        cfg.out / "factorial_responses.csv",
        ("run", "profit_increase_pct"),
        list(enumerate(float(v) for v in responses)),
    )
    print(f"anova written to {cfg.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if cfg.command in _SOLVE_GOALS:
            return _run_solve(cfg)
        if cfg.command == "generate-demand":
            return _run_generate_demand(cfg)
        if cfg.command == "simulate-market":
            return _run_simulate_market(cfg)
        if cfg.command == "sweep":
            return _run_sweep(cfg)
        return _run_anova(cfg)
    except BudgetExhaustedError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET_EXHAUSTED
    except InfeasibleError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:  # ScenarioError included
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
