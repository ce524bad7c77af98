"""Checks of the benchmark itself (slow: about five minutes).

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own suite (``tests/``) does not collect them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from trace_layers import layer_metrics
from workloads import WORKLOADS
from coopt.io import save_scenario

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("simplex.iters", "simplex.calls", "bnb.nodes", "bargain.frontier_points")


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer_metrics([], 1.0, 1.0).items()
    }


@pytest.mark.parametrize(
    "workload, bundled", [("p2-k6", "median.scenario"), ("tcm-k2", "median_k2.scenario")]
)
def test_preset_seed_reproduces_bundled_scenario(tmp_path, workload, bundled):
    path = tmp_path / bundled
    save_scenario(WORKLOADS[workload].base_scenario(), path)
    assert path.read_bytes() == (ROOT / "scenarios" / bundled).read_bytes()


def test_seed_draws_scenario_in_a_currency_unit():
    wl = WORKLOADS["tcm-k2"]
    base, scaled = wl.base_scenario(), wl.scenario(5)
    unit = wl.currency_unit(5)
    assert unit != 1.0
    assert scaled.prices.lambda_da == tuple(unit * v for v in base.prices.lambda_da)
    assert scaled.demand == base.demand
    assert wl.scenario(5) == scaled


def _traced(workload: str, seed: int):
    """Per-layer metrics and the report files of one traced benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    workdir = ROOT / ".bench_out" / f"{workload}-seed{seed}"
    reports = [
        {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        for out in sorted(workdir.glob("out-*"))
    ]
    return {key: result["metrics"][key]["value"] for key in COUNTS}, reports


@pytest.mark.parametrize("workload", ["tcm-k2", "nbs-k1"])
def test_traced_runs_repeat_counts_and_results(workload):
    counts, reports = _traced(workload, 11)
    again, reports_again = _traced(workload, 11)
    assert again == counts
    # the untraced and the traced command of a run, and both runs, agree
    assert len(reports) == 2
    assert reports[0] == reports[1] == reports_again[0] == reports_again[1]
