import argparse
import csv
import hashlib
import importlib.util
import inspect
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from coopt import bargain, cli, presets, sensitivity
from coopt.bargain import DEFAULT_GAP, pareto_frontier, solve_study
from coopt.bnb import BUDGET_EXHAUSTED, INFEASIBLE, MilpSolution, SolverError
from coopt.cli import main
from coopt.io import (
    EXIT_BUDGET_EXHAUSTED,
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    load_scenario,
    save_scenario,
)
from coopt.linear import MAX
from coopt.presets import build_scenario, synthetic_market_history

from conftest import tiny_scenario
from oracles import var_layout

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def test_exhausted_node_budget_in_p3_command_exits_4(tmp_path, capsys):
    code = main([
        "solve-p3-tcm",
        "--scenario", str(SCENARIOS / "median_k2.scenario"),
        "--node-budget", "40",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_BUDGET_EXHAUSTED
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["total-cost model: node budget exhausted before reaching the gap target"]


def test_infeasible_model_in_p3_command_exits_3(tmp_path, capsys, monkeypatch):
    real_solve = bargain.solve_milp

    def joint_model_infeasible(model, *args, **kwargs):
        if "lease_da_in[0,0]" not in var_layout(model):  # P1 and P2 solve as usual
            return real_solve(model, *args, **kwargs)
        return MilpSolution(INFEASIBLE, None, math.nan, math.nan, math.inf, 1)

    monkeypatch.setattr(bargain, "solve_milp", joint_model_infeasible)
    path = tmp_path / "tiny.scenario"
    save_scenario(tiny_scenario(), path)
    code = main(["solve-p3-tcm", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_INFEASIBLE
    assert capsys.readouterr().err.strip().splitlines() == ["total-cost model: model is infeasible"]


def test_anova_run_out_of_nodes_exits_4_and_names_the_run(tmp_path, capsys, monkeypatch):
    real_solve = bargain.solve_milp

    def storage_model_exhausted(model, *args, **kwargs):
        if model.sense == MAX:
            return MilpSolution(BUDGET_EXHAUSTED, None, math.nan, 1e6, math.inf, 40)
        return real_solve(model, *args, **kwargs)

    monkeypatch.setattr(bargain, "solve_milp", storage_model_exhausted)
    code = main([
        "anova",
        "--scenario", str(SCENARIOS / "median_k2.scenario"),
        "--days", "3",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_BUDGET_EXHAUSTED
    assert capsys.readouterr().err.strip().splitlines() == [
        "anova run 0: storage model: node budget exhausted before reaching the gap target"
    ]


def test_sweep_names_each_failed_cell_on_stderr_and_exits_0(tmp_path, capsys, monkeypatch):
    exhausted = MilpSolution(BUDGET_EXHAUSTED, None, math.nan, math.nan, math.inf, 1)
    monkeypatch.setattr(bargain, "solve_milp", lambda *args, **kwargs: exhausted)
    path = tmp_path / "k1.scenario"
    save_scenario(build_scenario(K=1), path)
    out = tmp_path / "out"
    code = main(["sweep", "--scenario", str(path), "--days", "3", "--out", str(out)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"sweep written to {out}"]
    labels = ("low", "median", "high")
    assert captured.err.splitlines() == [
        f"sweep: cell da_price={da} rt_price={rt} demand={dem} is NaN:"
        " hub model: node budget exhausted before reaching the gap target"
        for da in labels
        for rt in labels
        for dem in labels
    ]
    with open(out / "sweep_long.csv", newline="") as fh:
        assert all(math.isnan(float(row["cost_reduction_pct"])) for row in csv.DictReader(fh))


def test_generate_demand_writes_the_preset_demand(tmp_path):
    assert main(["generate-demand", "--seed", "7", "--days", "30", "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "demand_p50.csv", newline="") as fh:
        p50 = tuple(float(row["ev_load"]) for row in csv.DictReader(fh))
    assert p50 == load_scenario(SCENARIOS / "median.scenario").demand.ev_load


def test_nbs_command_prints_the_solve_study_result(tmp_path, capsys):
    path = tmp_path / "tiny.scenario"
    save_scenario(tiny_scenario(T=2, K=1, seed=12), path)
    code = main([
        "solve-p3-nbs", "--scenario", str(path), "--grid-points", "2",
        "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    nbs = solve_study(load_scenario(path), "nbs", grid_points=2).bargain.nbs
    assert f"nbs hub cost: {nbs.f_a!r}" in printed
    assert f"nash product: {nbs.product!r}" in printed


@pytest.mark.parametrize(
    "command, label, quantity",
    [("solve-p1", "hub cost", "hub_cost"), ("solve-p2", "bss profit", "bss_profit")],
)
def test_independent_objective_in_summary_is_the_printed_one(tmp_path, capsys, command, label, quantity):
    path = tmp_path / "tiny.scenario"
    save_scenario(tiny_scenario(T=3, K=2, seed=4), path)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines() if ": " in line)
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = {row["quantity"]: row for row in csv.DictReader(fh)}
    assert float(rows[quantity]["independent"]) == float(printed[label])


def test_nbs_command_prints_a_bound_at_least_the_product(tmp_path, capsys):
    path = tmp_path / "gains.scenario"
    save_scenario(tiny_scenario(T=2, K=1, seed=1, lease_markup=3.0), path)
    code = main(["solve-p3-nbs", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert list(printed) == ["nbs hub cost", "nbs bss profit", "nash product", "nash bound"]
    assert float(printed["nash product"]) > 0.0
    assert float(printed["nash bound"]) >= float(printed["nash product"])


@pytest.mark.parametrize("cell_budget, certified", [(bargain.CELL_NODE_BUDGET, True), (1, False)])
def test_nbs_command_says_on_stderr_when_its_bound_misses_the_gap(
    tmp_path, capsys, monkeypatch, cell_budget, certified
):
    # the Nash tree gets 2 * CELL_NODE_BUDGET nodes; this scenario's needs more than 2
    monkeypatch.setattr(bargain, "CELL_NODE_BUDGET", cell_budget)
    path = tmp_path / "tiny.scenario"
    save_scenario(tiny_scenario(T=4, K=2, seed=1), path)
    code = main(["solve-p3-nbs", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    out, err = capsys.readouterr()
    printed = dict(line.split(": ", 1) for line in out.splitlines())
    product, bound = float(printed["nash product"]), float(printed["nash bound"])
    gap = (bound - product) / product
    assert (gap <= DEFAULT_GAP) == certified
    assert err.splitlines() == ([] if certified else [
        f"nbs: not certified: nash bound {bound!r} is above the product {product!r}"
        f" by a relative gap of {gap:.4g}, more than --gap {DEFAULT_GAP!r}"
    ])


@pytest.mark.parametrize("command", ["sweep", "anova"])
def test_study_commands_name_each_uncertified_cell_on_stderr(tmp_path, capsys, monkeypatch, command):
    # the Nash tree gets 2 * CELL_NODE_BUDGET nodes; this scenario's needs more than 2
    monkeypatch.setattr(bargain, "CELL_NODE_BUDGET", 1)
    scn = tiny_scenario(T=4, K=2, seed=1)
    # one day of history at the scenario's own series, so every cell is the scenario itself
    series = {**asdict(scn.prices), **asdict(scn.probabilities), **asdict(scn.demand)}
    histories = {name: np.array([values]) for name, values in series.items()}
    monkeypatch.setattr(cli, "study_histories", lambda seed, days, hub: (histories, None))
    path = tmp_path / "tiny.scenario"
    save_scenario(scn, path)
    out = tmp_path / "out"
    code = main([command, "--scenario", str(path), "--workers", "1", "--out", str(out)])
    assert code == EXIT_OK
    result = solve_study(scn, "nbs").bargain
    assert result.gap > DEFAULT_GAP
    reason = (
        f": not certified: nash bound {result.bound!r} is above the product {result.nbs.product!r}"
        f" by a relative gap of {result.gap:.4g}, more than --gap {DEFAULT_GAP!r}"
    )
    labels = ("low", "median", "high")
    cells = [
        f"sweep: cell da_price={da} rt_price={rt} demand={dem}"
        for da in labels
        for rt in labels
        for dem in labels
    ] if command == "sweep" else [f"anova run {run}" for run in range(32)]
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [cell + reason for cell in cells]
    assert captured.out.splitlines() == [f"{command} written to {out}"]


# SHA-256 of every file each command writes: the market and demand histories
# that the presets build their scenarios from are pinned byte for byte
RECORDED_OUTPUTS = {
    ("simulate-market", "--seed", "3", "--days", "5"): {
        "bids_dn.csv": "8e2ab2ab01fc7177f51c1a92e24aceaf59f15d19b4f30baa0bd210a603bebcb0",
        "bids_up.csv": "0bfc7cd7dfc52286db8201d8a47ea832ca0e835f6e16b9e2d4557b325696681b",
        "clearing_prices.csv": "a0e54bf0a7ac3e37f7b92200d4a0450ad5be033018ceca348e68c7dd4d0d2168",
        "probabilities.csv": "45e53de21ce893cc23b289c4f3d507384487983e17cd2b4fbd09c67ecd767553",
    },
    ("generate-demand", "--seed", "7", "--days", "30"): {
        "demand_history.csv": "da9ddf33fffcc3e976816abb56d8dab023a40402c0c4ceff0990e795e9076e8e",
        "demand_p10.csv": "6f0bb3d18d1345a6e82af15feb8d09ed277e9e51039334a0fdfd7e6165e5c64a",
        "demand_p50.csv": "a3895fc6abf9e046532e38ec49ca82e0a1d64bf949bdd0dba86fda4bf94dfb82",
        "demand_p90.csv": "053d87a23a08f242cf585f12438c3694ee2c3ec08bb5a5f04f035b04340be341",
    },
}


@pytest.mark.parametrize("argv", list(RECORDED_OUTPUTS), ids=lambda argv: argv[0])
def test_history_commands_write_the_recorded_bytes(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert written == RECORDED_OUTPUTS[argv]


def test_generate_demand_draws_neither_prices_nor_market(tmp_path, monkeypatch):
    def not_drawn(*args, **kwargs):
        raise AssertionError("generate-demand draws only the demand it writes")

    monkeypatch.setattr(presets, "synthetic_price_history", not_drawn)
    monkeypatch.setattr(presets, "synthetic_market_history", not_drawn)
    argv = ("generate-demand", "--seed", "7", "--days", "30")
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
    }
    assert written == RECORDED_OUTPUTS[argv]


SOLVE_FLAGS = {"--scenario", "--out", "--gap", "--node-budget"}
STUDY_FLAGS = SOLVE_FLAGS | {"--seed", "--days", "--workers"}
HISTORY_FLAGS = {"--out", "--seed", "--days"}
# the flags each command reads; the benchmark's command lines also pass
# --workers to three solve commands and --grid-points to the Nash one, which
# accept and ignore them
COMMAND_FLAGS = {
    "solve-p1": {"--scenario", "--out"},
    "solve-p2": SOLVE_FLAGS | {"--workers"},
    "solve-p3-tcm": SOLVE_FLAGS | {"--workers"},
    "solve-p3-nbs": SOLVE_FLAGS | {"--workers", "--grid-points"},
    "frontier": SOLVE_FLAGS | {"--grid-points"},
    "simulate-market": HISTORY_FLAGS,
    "generate-demand": HISTORY_FLAGS,
    "sweep": STUDY_FLAGS,
    "anova": STUDY_FLAGS | {"--alpha"},
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_history_commands_take_only_the_flags_they_read(tmp_path, capsys, command):
    # every command, the histories included, takes only the flags it reads
    with pytest.raises(SystemExit) as shown:
        main([command, "--help"])
    assert shown.value.code == 0
    flags = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
    assert flags == COMMAND_FLAGS[command] | {"--help"}
    if COMMAND_FLAGS[command] == HISTORY_FLAGS:
        assert main([command, "--days", "2", "--out", str(tmp_path)]) == EXIT_OK
        assert any(tmp_path.iterdir())


def subparsers(parser):
    """Each command's parser, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def option_strings(parser):
    return {s for action in parser._actions for s in action.option_strings}


def test_the_parser_without_a_command_builds_every_commands_flags():
    commands = subparsers(cli.build_parser())
    assert list(commands) == list(COMMAND_FLAGS)
    for name, parser in commands.items():
        assert option_strings(parser) == COMMAND_FLAGS[name] | {"-h", "--help"}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_a_commands_parser_builds_its_flags_alone_and_helps_as_the_full_one(command, capsys):
    commands = subparsers(cli.build_parser(command))
    assert list(commands) == list(COMMAND_FLAGS)
    for name, parser in commands.items():
        assert option_strings(parser) == (COMMAND_FLAGS[name] if name == command else set()) | {
            "-h", "--help"
        }
    with pytest.raises(SystemExit) as shown:
        main([command, "--help"])
    assert shown.value.code == 0
    assert capsys.readouterr().out == subparsers(cli.build_parser())[command].format_help()


def test_coopt_help_lists_the_nine_commands(capsys):
    with pytest.raises(SystemExit) as shown:
        main(["--help"])
    assert shown.value.code == 0
    out = capsys.readouterr().out
    assert out == cli.build_parser().format_help()
    assert len(COMMAND_FLAGS) == 9 and "{" + ",".join(COMMAND_FLAGS) + "}" in out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["solve-p4", "--scenario", "x"], "invalid choice: 'solve-p4'"),
        (["--scenario", "x", "solve-p2"], "invalid choice: 'x'"),
        (["solve-p2", "--scenario", "x", "--alpha", "0.1"], "unrecognized arguments: --alpha 0.1"),
        (["solve-p2"], "the following arguments are required: --scenario"),
        ([], "the following arguments are required: command"),
    ],
)
def test_argparse_errors_exit_2_as_the_full_parsers(argv, error, capsys):
    with pytest.raises(SystemExit) as shown:
        main(argv)
    assert shown.value.code == 2
    err = capsys.readouterr().err
    assert error in err
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert capsys.readouterr().err == err


def test_benchmark_command_lines_still_parse(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up
    monkeypatch.setattr(sys, "path", [*sys.path])  # it puts src/ on the path
    spec.loader.exec_module(workloads)
    for wl in workloads.WORKLOADS.values():
        # the flags perfbench/run.py adds to each workload's command line
        argv = [*wl.args, "--scenario", str(tmp_path / "wl.scenario"),
                "--out", str(tmp_path / wl.name), "--workers", "1"]
        for parser in (cli.build_parser(), cli.build_parser(wl.args[0])):
            cli._check_flags(parser.parse_args(argv))


def test_clearing_prices_are_the_reserve_prices_under_their_names(tmp_path):
    assert main(["simulate-market", "--days", "2", "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "clearing_prices.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["day", "hour", "lambda_up", "lambda_dn"]
    market = synthetic_market_history(0, 2)
    for side in ("up", "dn"):
        expected = market[side]["clearing_price"].ravel().tolist()
        assert [float(row[f"lambda_{side}"]) for row in rows] == expected


def test_frontier_does_not_depend_on_the_worker_count(tmp_path, capsys):
    # the sweep is serial: no worker count reaches it, and the command takes none
    assert "workers" not in inspect.signature(pareto_frontier).parameters
    with pytest.raises(SystemExit) as refused:
        main([
            "frontier", "--scenario", str(SCENARIOS / "median_k2.scenario"),
            "--workers", "2", "--out", str(tmp_path / "out"),
        ])
    assert refused.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["frontier", "--gap", "0"], "--gap"),
        (["solve-p3-tcm", "--gap", "0.2"], "--gap"),
        (["frontier", "--grid-points", "1"], "--grid-points"),
        (["sweep", "--workers", "0"], "--workers"),
        (["generate-demand", "--days", "0"], "--days"),
        (["anova", "--alpha", "1.5"], "--alpha"),
        (["solve-p2", "--node-budget", "0"], "--node-budget"),
        (["generate-demand", "--seed", "-1"], "--seed"),
        (["solve-p1", "--out", "a-file"], "--out"),
        (["generate-demand", "--out", "a-file"], "--out"),
        (["solve-p1", "--scenario", "."], "no scenario file at ."),
        (["generate-demand", "--out", "a-file/sub"], "--out"),
    ],
)
def test_bad_flag_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv, named):
    def no_solve(*args, **kwargs):
        raise AssertionError("a command solved despite a bad flag")

    monkeypatch.setattr(cli, "solve_study", no_solve)
    monkeypatch.setattr(sensitivity, "solve_study", no_solve)
    monkeypatch.chdir(tmp_path)
    Path("a-file").write_text("")
    if argv[0] != "generate-demand" and "--scenario" not in argv:
        argv = argv + ["--scenario", str(SCENARIOS / "median_k2.scenario")]
    if "--out" not in argv:
        argv = argv + ["--out", "out"]
    assert main(argv) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and named in err[0]
    assert not Path("out").exists() and Path("a-file").read_text() == ""


def test_frontier_drops_a_cell_whose_solve_fails(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gains.scenario"
    save_scenario(tiny_scenario(T=2, K=1, seed=1, lease_markup=3.0), path)
    argv = ["frontier", "--scenario", str(path), "--grid-points", "5"]
    assert main(argv + ["--out", str(tmp_path / "all")]) == EXIT_OK
    assert capsys.readouterr().err == ""  # no floor dropped, nothing said

    real_solve = bargain.solve_milp
    floors = []

    def third_cell_singular(model, *args, **kwargs):
        if model.constraints[-1].name == "storage_floor":
            floors.append(model.constraints[-1].rhs)
            if len(floors) == 3:
                raise SolverError("simplex stopped on the root relaxation: singular")
        return real_solve(model, *args, **kwargs)

    monkeypatch.setattr(bargain, "solve_milp", third_cell_singular)
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_OK
    assert len(floors) == 5
    with open(out / "frontier.csv", newline="") as fh:
        thetas = [float(row["theta"]) for row in csv.DictReader(fh)]
    assert thetas and floors[2] not in thetas
    assert set(thetas) <= set(floors)
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"frontier points: {len(thetas)}"]
    assert captured.err.splitlines() == [
        "frontier: 1 of 5 storage floors dropped"
        " (1 simplex stopped on the root relaxation: singular)"
    ]


@pytest.mark.parametrize(
    "command",
    [
        "solve-p1",
        "solve-p2",
        "solve-p3-tcm",
        "solve-p3-nbs",
        "frontier",
        "simulate-market",
        "generate-demand",
    ],
)
def test_joint_commands_write_the_same_bytes_in_two_processes(tmp_path, command):
    path = tmp_path / "tiny.scenario"
    save_scenario(tiny_scenario(T=3, K=2), path)
    if command in ("simulate-market", "generate-demand"):
        argv = [command, "--days", "3"]
    else:
        argv = [command, "--scenario", str(path)]
    assert_two_processes_write_the_same_reports(tmp_path, argv)


def test_total_cost_on_six_compartments_writes_the_same_bytes_in_two_processes(tmp_path):
    argv = ["solve-p3-tcm", "--scenario", str(SCENARIOS / "median.scenario")]
    assert_two_processes_write_the_same_reports(tmp_path, argv)


def assert_two_processes_write_the_same_reports(tmp_path, argv):
    """``argv`` exits 0 in two fresh processes, and both write the same CSV reports."""
    # the B&B carries search state (pseudo-costs); each process draws its own hash seed,
    # and the two simulators draw from the default --seed
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONHASHSEED", None)
    outputs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        subprocess.run(
            [sys.executable, "-m", "coopt.cli", *argv, "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    assert outputs[0] and outputs[0] == outputs[1]
