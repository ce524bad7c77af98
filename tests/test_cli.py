from pathlib import Path

from coopt.cli import main
from coopt.io import EXIT_BUDGET_EXHAUSTED

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
