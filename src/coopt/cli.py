"""Command-line front end.

Every command reads a scenario (where applicable), solves, and writes CSV
reports into ``--out``.  Exit codes: 0 success, 2 input error, 3 infeasible
model, 4 node budget exhausted before reaching the gap target; each failure
prints one line on stderr.  Flags are checked before any command does work.
``anova`` stops at its first failed run with 3 or 4 (2 when the run's storage
profit alone is 0) and names the run, while ``sweep`` records a failed cell as
NaN, exits 0, and prints one stderr line per such cell with its levels and
reason.  ``frontier`` exits 0 when it drops storage floors, and says on one
stderr line how many were dropped and why.  ``solve-p3-nbs`` exits 0 when its
search stops at the node budget with the Nash bound above the product by more
than ``--gap``, and says so on one stderr line; ``sweep`` and ``anova`` say so
on one stderr line per such cell, naming its levels or its run.  The studies
draw their inputs from :func:`~coopt.presets.study_histories`;
``generate-demand`` draws only the demand, from
:func:`~coopt.presets.synthetic_demand_history`, and ``simulate-market`` only
the market, from :func:`~coopt.presets.synthetic_market_history`.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import asdict
from itertools import count
from pathlib import Path

from .bargain import (
    CELL_NODE_BUDGET,
    DEFAULT_GAP,
    DEFAULT_GRID_POINTS,
    DEFAULT_NODE_BUDGET,
    BudgetExhaustedError,
    InfeasibleError,
    solve_study,
)
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
    write_history,
)
from .models import AS_WRITTEN, DEPLOYMENT_REVENUE_MODES
from .presets import (
    PRESET_HUB,
    study_histories,
    synthetic_demand_history,
    synthetic_market_history,
)
from .sensitivity import (
    ANOVA_FIELDS,
    ANOVA_PERCENTILES,
    SWEEP_FIELDS,
    SWEEP_LABELS,
    SWEEP_PERCENTILES,
    anova,
    factorial_profit_study,
    study_factors,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopt",
        description="Joint EV-hub / battery-storage operation studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--days", type=int, default=30)
        if name in ("simulate-market", "generate-demand"):
            continue  # the histories take no other flag
        p.add_argument("--scenario", type=Path, required=True)
        p.add_argument("--gap", type=float, default=DEFAULT_GAP)
        p.add_argument(
            "--grid-points", type=int, default=DEFAULT_GRID_POINTS,
            help="storage floors sampled by the frontier command; other commands ignore it",
        )
        p.add_argument(
            "--workers", type=int, default=1,
            help="worker processes for the sweep and anova commands; other commands ignore it",
        )
        p.add_argument("--deployment-revenue", choices=DEPLOYMENT_REVENUE_MODES, default=AS_WRITTEN)
        p.add_argument(
            "--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
            help="branch-and-bound nodes each MILP may search; the storage model's"
            " compartments share one budget, and so do the total-cost model's"
            " pricing and its fallback search; the Nash bargain is one search,"
            f" which adds its tangent cuts as it goes, of at most {2 * CELL_NODE_BUDGET} nodes;"
            " a bargain whose bound its search leaves above the product by more than --gap"
            " still exits 0, with one stderr line giving the bound, the product and the gap",
        )
        if name == "anova":
            p.add_argument("--alpha", type=float, default=0.05)
    return parser


def _check_flags(args) -> None:
    """Reject out-of-range values of the command's flags before it does any work."""
    if args.days < 1:
        raise ScenarioError(f"--days must be >= 1, got {args.days}")
    if args.command in ("simulate-market", "generate-demand"):
        return  # the histories take no other flag
    if not 0.0 < args.gap <= 0.1:
        raise ScenarioError(f"--gap must be in (0, 0.1], got {args.gap}")
    if args.grid_points < 2:
        raise ScenarioError(f"--grid-points must be >= 2, got {args.grid_points}")
    if args.workers < 1:
        raise ScenarioError(f"--workers must be >= 1, got {args.workers}")
    if args.node_budget < 1:
        raise ScenarioError(f"--node-budget must be >= 1, got {args.node_budget}")
    if args.command == "anova" and not 0.0 < args.alpha < 1.0:
        raise ScenarioError(f"--alpha must be in (0, 1), got {args.alpha}")


_SOLVE_GOALS = {
    "solve-p1": "p1",
    "solve-p2": "p2",
    "solve-p3-tcm": "tcm",
    "solve-p3-nbs": "nbs",
    "frontier": "frontier",
}


def _not_certified(what: str, missed, args) -> str:
    """The stderr line for a Nash ``(bound, product, gap)`` whose gap exceeds ``--gap``."""
    bound, product, gap = missed
    return (
        f"{what}: not certified: nash bound {bound!r} is above the product {product!r}"
        f" by a relative gap of {gap:.4g}, more than --gap {args.gap!r}"
    )


def _run_solve(args) -> int:
    bundle = solve_study(
        load_scenario(args.scenario),
        _SOLVE_GOALS[args.command],
        deployment_revenue=args.deployment_revenue,
        gap=args.gap,
        node_budget=args.node_budget,
        grid_points=args.grid_points,
    )
    if args.command == "solve-p1":
        print(f"hub cost: {bundle.p1.objective!r}")
    elif args.command == "solve-p2":
        print(f"bss profit: {bundle.p2.objective!r}")
    elif args.command == "solve-p3-tcm":
        print(f"tcm hub cost: {bundle.tcm.f_a!r}")
        print(f"tcm bss profit: {bundle.tcm.f_b!r}")
    elif args.command == "solve-p3-nbs":
        nbs, bound, gap = bundle.bargain.nbs, bundle.bargain.bound, bundle.bargain.gap
        print(f"nbs hub cost: {nbs.f_a!r}")
        print(f"nbs bss profit: {nbs.f_b!r}")
        print(f"nash product: {nbs.product!r}")
        print(f"nash bound: {bound!r}")
        if gap > args.gap:
            print(_not_certified("nbs", (bound, nbs.product, gap), args), file=sys.stderr)
    else:  # frontier
        args.out.mkdir(parents=True, exist_ok=True)
        write_frontier(args.out / "frontier.csv", bundle.frontier)
        print(f"frontier points: {len(bundle.frontier)}")
        if bundle.frontier_dropped:
            reasons = Counter(reason for _, reason in bundle.frontier_dropped)
            print(
                f"frontier: {len(bundle.frontier_dropped)} of {args.grid_points} storage floors "
                f"dropped ({', '.join(f'{n} {reason}' for reason, n in reasons.items())})",
                file=sys.stderr,
            )
        return EXIT_OK

    emit_report(bundle, args.out)
    return EXIT_OK


def _run_generate_demand(args) -> int:
    history = synthetic_demand_history(args.seed, args.days, PRESET_HUB)
    args.out.mkdir(parents=True, exist_ok=True)
    write_history(args.out / "demand_history.csv", {"ev_load": history})
    for p in SWEEP_PERCENTILES:
        profile = percentile_profiles(history, p)
        write_csv(
            args.out / f"demand_p{int(p)}.csv",
            ("hour", "ev_load"),
            list(enumerate(float(v) for v in profile)),
        )
    print(f"wrote {history.shape[0]} days of demand to {args.out}")
    return EXIT_OK


def _run_simulate_market(args) -> int:
    market = synthetic_market_history(args.seed, args.days)
    args.out.mkdir(parents=True, exist_ok=True)
    for side, arrays in market.items():
        write_bid_history(args.out / f"bids_{side}.csv", arrays)
    write_history(
        args.out / "clearing_prices.csv",
        {f"lambda_{side}": arrays["clearing_price"] for side, arrays in market.items()},
    )
    probs = asdict(estimate_probabilities(market))
    write_csv(args.out / "probabilities.csv", ("hour", *probs), list(zip(count(), *probs.values())))
    print(f"wrote {args.days} days of market history to {args.out}")
    return EXIT_OK


def _study_inputs(args, names, percentiles):
    """The command's scenario and the named fields' factors at ``percentiles``."""
    scn = load_scenario(args.scenario)
    scn.require_joint()
    histories, _ = study_histories(args.seed, args.days, scn.hub)
    return scn, study_factors(histories, names, percentiles)


def _run_sweep(args) -> int:
    scn, factors = _study_inputs(args, SWEEP_FIELDS, SWEEP_PERCENTILES)
    result = sweep_grid(
        scn, factors, deployment_revenue=args.deployment_revenue, gap=args.gap,
        node_budget=args.node_budget, workers=args.workers,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    labels = SWEEP_LABELS
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
    write_csv(args.out / "table3.csv", tuple(header), rows)
    long_rows = [
        (labels[i], labels[j], labels[k], float(result.reductions[i, j, k]))
        for i in range(3)
        for j in range(3)
        for k in range(3)
    ]
    write_csv(
        args.out / "sweep_long.csv",
        ("da_price", "rt_price", "demand", "cost_reduction_pct"),
        long_rows,
    )

    def cell(i, j, k):
        return f"sweep: cell da_price={labels[i]} rt_price={labels[j]} demand={labels[k]}"

    for index, reason in result.failures.items():
        print(f"{cell(*index)} is NaN: {reason}", file=sys.stderr)
    for index, missed in result.uncertified.items():
        print(_not_certified(cell(*index), missed, args), file=sys.stderr)
    print(f"sweep written to {args.out}")
    return EXIT_OK


def _run_anova(args) -> int:
    scn, factors = _study_inputs(args, ANOVA_FIELDS, ANOVA_PERCENTILES)
    design, responses, uncertified = factorial_profit_study(
        scn, factors, deployment_revenue=args.deployment_revenue, gap=args.gap,
        node_budget=args.node_budget, workers=args.workers,
    )
    table = anova(design, responses, args.alpha)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (r.term, r.effect, r.sum_sq, r.df, r.f_stat, table.f_crit, r.p_value,
         "significant" if r.significant else "not significant")
        for r in table.rows
    ]
    write_csv(
        args.out / "table4.csv",
        ("term", "effect", "sum_sq", "df", "f_stat", "f_critical", "p_value", "decision"),
        rows,
    )
    write_csv(
        args.out / "factorial_responses.csv",
        ("run", "profit_increase_pct"),
        list(enumerate(float(v) for v in responses)),
    )
    for run, missed in uncertified.items():
        print(_not_certified(f"anova run {run}", missed, args), file=sys.stderr)
    print(f"anova written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        if args.command in _SOLVE_GOALS:
            return _run_solve(args)
        if args.command == "generate-demand":
            return _run_generate_demand(args)
        if args.command == "simulate-market":
            return _run_simulate_market(args)
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_anova(args)
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
