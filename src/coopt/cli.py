"""Command-line front end.

Every command reads a scenario (where applicable), solves, and writes CSV
reports into ``--out``.  Each command takes only the flags that can change its
output: :data:`FLAGS` defines each flag once, with its argparse settings and
its value check, and :data:`COMMAND_TABLE` gives each command its runner and
flags; a run builds the flags of its own command alone.  :data:`HELD_FLAGS`
are the benchmark's fixed flags that three solve commands accept and ignore.
Flags are checked before any command does work.
Exit codes: 0 success, 2 input error, 3 infeasible model, 4 node budget
exhausted before reaching the gap target; each failure prints one line on
stderr.  ``anova`` stops at its first failed run with 3 or 4 (2 when the run's
storage profit alone is 0) and names the run, while ``sweep`` records a failed
cell as NaN, exits 0, and prints one stderr line per such cell with its levels
and reason.  ``frontier`` exits 0 when it drops storage floors, and says on one
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
from typing import Callable, NamedTuple

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


class Flag(NamedTuple):
    settings: dict  # add_argument's keywords
    valid: Callable | None = None  # the check a value must pass
    rule: str = ""  # what ``valid`` asks of the value, for the error line


FLAGS = {
    "--scenario": Flag(dict(type=Path, required=True)),
    "--out": Flag(
        dict(type=Path, default="out"),
        lambda v: next(p for p in (v, *v.parents) if p.exists()).is_dir(),
        "name a directory or a path that can become one",
    ),
    "--seed": Flag(dict(type=int, default=0), lambda v: v >= 0, "be >= 0"),
    "--days": Flag(dict(type=int, default=30), lambda v: v >= 1, "be >= 1"),
    "--gap": Flag(dict(type=float, default=DEFAULT_GAP), lambda v: 0 < v <= 0.1, "be in (0, 0.1]"),
    "--node-budget": Flag(
        dict(
            type=int, default=DEFAULT_NODE_BUDGET,
            help="branch-and-bound nodes each MILP may search; the storage model's"
            " compartments share one budget, and so do the total-cost model's"
            " pricing and its fallback search; the Nash bargain is one search,"
            f" which adds its tangent cuts as it goes, of at most {2 * CELL_NODE_BUDGET} nodes;"
            " a bargain whose bound its search leaves above the product by more than --gap"
            " still exits 0, with one stderr line giving the bound, the product and the gap",
        ),
        lambda v: v >= 1, "be >= 1",
    ),
    "--grid-points": Flag(
        dict(type=int, default=DEFAULT_GRID_POINTS, help="storage floors the frontier samples"),
        lambda v: v >= 2, "be >= 2",
    ),
    "--workers": Flag(
        dict(type=int, default=1, help="worker processes for the sweep and anova commands"),
        lambda v: v >= 1, "be >= 1",
    ),
    "--alpha": Flag(dict(type=float, default=0.05), lambda v: 0 < v < 1, "be in (0, 1)"),
}


def _not_certified(what: str, missed, args) -> str:
    """The stderr line for a Nash ``(bound, product, gap)`` whose gap exceeds ``--gap``."""
    bound, product, gap = missed
    return (
        f"{what}: not certified: nash bound {bound!r} is above the product {product!r}"
        f" by a relative gap of {gap:.4g}, more than --gap {args.gap!r}"
    )


def _solve_options(args) -> dict:
    """The solve flags, as keywords of ``solve_study`` and of the two studies."""
    return {key: getattr(args, key) for key in ("gap", "node_budget")}


def _report(bundle, args, *lines) -> int:
    """Print the result ``lines`` and write the bundle's reports into ``--out``."""
    print(*lines, sep="\n")
    emit_report(bundle, args.out)
    return EXIT_OK


def _run_p1(args) -> int:
    # P1 is an LP with no storage columns: no gap, node budget or revenue mode changes it
    bundle = solve_study(load_scenario(args.scenario), "p1")
    return _report(bundle, args, f"hub cost: {bundle.p1.objective!r}")


def _run_p2(args) -> int:
    bundle = solve_study(load_scenario(args.scenario), "p2", **_solve_options(args))
    return _report(bundle, args, f"bss profit: {bundle.p2.objective!r}")


def _run_tcm(args) -> int:
    bundle = solve_study(load_scenario(args.scenario), "tcm", **_solve_options(args))
    tcm = bundle.tcm
    return _report(bundle, args, f"tcm hub cost: {tcm.f_a!r}", f"tcm bss profit: {tcm.f_b!r}")


def _run_nbs(args) -> int:
    bundle = solve_study(load_scenario(args.scenario), "nbs", **_solve_options(args))
    nbs, bound, gap = bundle.bargain.nbs, bundle.bargain.bound, bundle.bargain.gap
    if gap > args.gap:
        print(_not_certified("nbs", (bound, nbs.product, gap), args), file=sys.stderr)
    return _report(
        bundle, args, f"nbs hub cost: {nbs.f_a!r}", f"nbs bss profit: {nbs.f_b!r}",
        f"nash product: {nbs.product!r}", f"nash bound: {bound!r}",
    )


def _run_frontier(args) -> int:
    scn = load_scenario(args.scenario)
    bundle = solve_study(scn, "frontier", grid_points=args.grid_points, **_solve_options(args))
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


def _run_generate_demand(args) -> int:
    history = synthetic_demand_history(args.seed, args.days, PRESET_HUB)
    args.out.mkdir(parents=True, exist_ok=True)
    write_history(args.out / "demand_history.csv", {"ev_load": history})
    for p in SWEEP_PERCENTILES:
        profile = map(float, percentile_profiles(history, p))
        write_csv(args.out / f"demand_p{int(p)}.csv", ("hour", "ev_load"), list(enumerate(profile)))
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
    result = sweep_grid(scn, factors, workers=args.workers, **_solve_options(args))
    args.out.mkdir(parents=True, exist_ok=True)
    labels = SWEEP_LABELS
    header = ("da_price", *(f"demand_{dem}_rt_{rt}" for dem in labels for rt in labels))
    # one row per day-ahead price level; its cells run over demand, then real-time price
    rows = [(da, *map(float, result.reductions[i].T.ravel())) for i, da in enumerate(labels)]
    write_csv(args.out / "table3.csv", header, rows)
    long_rows = [
        (labels[i], labels[j], labels[k], float(result.reductions[i, j, k]))
        for i in range(3) for j in range(3) for k in range(3)
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
        scn, factors, workers=args.workers, **_solve_options(args))
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
    response_rows = list(enumerate(map(float, responses)))
    write_csv(args.out / "factorial_responses.csv", ("run", "profit_increase_pct"), response_rows)
    for run, missed in uncertified.items():
        print(_not_certified(f"anova run {run}", missed, args), file=sys.stderr)
    print(f"anova written to {args.out}")
    return EXIT_OK


_SOLVE = ("--scenario", "--out", "--gap", "--node-budget")
_STUDY = _SOLVE + ("--seed", "--days", "--workers")
_HISTORY = ("--out", "--seed", "--days")

# each command's runner and the flags that can change what it does
COMMAND_TABLE = {
    "solve-p1": (_run_p1, ("--scenario", "--out")),
    "solve-p2": (_run_p2, _SOLVE),
    "solve-p3-tcm": (_run_tcm, _SOLVE),
    "solve-p3-nbs": (_run_nbs, _SOLVE),
    "frontier": (_run_frontier, _SOLVE + ("--grid-points",)),
    "simulate-market": (_run_simulate_market, _HISTORY),
    "generate-demand": (_run_generate_demand, _HISTORY),
    "sweep": (_run_sweep, _STUDY),
    "anova": (_run_anova, _STUDY + ("--alpha",)),
}

# Held flags: the benchmark's fixed command lines (perfbench/run.py and
# perfbench/workloads.py) pass these to commands that do not read them.  They
# are accepted and range-checked, and do nothing; drop this entry once those
# command lines stop passing them.
HELD_FLAGS = {"solve-p2": ("--workers",), "solve-p3-tcm": ("--workers",),
              "solve-p3-nbs": ("--workers", "--grid-points")}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command in :data:`COMMAND_TABLE`, each with its
    flags and :data:`HELD_FLAGS`.  Given a ``command``, it registers every
    command but adds flags to that one alone, so ``coopt --help`` and
    argparse's errors read the same and a run builds only the flags it parses.
    """
    parser = argparse.ArgumentParser(
        prog="coopt", description="Joint EV-hub / battery-storage operation studies"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMAND_TABLE.items():
        p = sub.add_parser(name)
        if command not in (None, name):
            continue
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag].settings)
        for flag in HELD_FLAGS.get(name, ()):
            p.add_argument(flag, **{**FLAGS[flag].settings, "help": "ignored by this command"})
    return parser


def _check_flags(args) -> None:
    """Reject out-of-range values of the command's flags before it does any work."""
    for flag, (_, valid, rule) in FLAGS.items():
        value = vars(args).get(flag[2:].replace("-", "_"))
        if valid and value is not None and not valid(value):
            raise ScenarioError(f"{flag} must {rule}, got {value}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes no option with a value, so its first other word is the command
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        _check_flags(args)
        run, _ = COMMAND_TABLE[args.command]
        return run(args)
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
