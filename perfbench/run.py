"""Benchmark of the ``coopt`` CLI: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {p2-k6,tcm-k2,nbs-k1} --seed N --seconds S --trace {0,1}

The run writes the seed's scenario file under ``.bench_out/``, solves the
HiGHS reference (``scipy.optimize.milp``) and then runs whole rounds of the
workload's CLI command, each a fresh ``python3`` process with BLAS/OpenMP
pinned to one thread, until ``S`` seconds have passed.  Every command's
outputs are checked outside the timed interval; a command that fails a
check counts as failed.  Set-up time is the median of eleven fresh
processes that import ``coopt`` and stop on reaching ``coopt.cli.main``.

``--trace 0`` prints the end-to-end metrics (medians over the rounds).
``--trace 1`` also runs one command with every layer wrapped in spans
(``trace_layers.py``) and prints the per-layer metrics; the traced command's
wall time minus the untraced median is the tracing overhead.  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170.0  # every run, with its set-up, ends well within 180 s
_PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COOPT_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # whether the kernel can back numpy's large arrays with huge pages depends
    # on the machine's memory fragmentation, and moved p2-k6 by 10% between runs
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    for key in _PINNED:
        env[key] = "1"
    return env


class Runner:
    """Starts the fresh processes of one benchmark run and collects their results."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.env = _child_env(root)
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str, argv=()) -> tuple[dict, subprocess.CompletedProcess | None]:
        """Run ``child.py`` once; the result has ``setup_s`` and, unless
        ``mode`` is ``setup``, the command's exit code and timings."""
        self.count += 1
        result_path = self.workdir / f"child-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path), *argv]
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}, None
        if not result_path.is_file():
            return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"}, proc
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["entered"] - started
        return result, proc


def main(argv=None) -> int:
    root = HERE.parent
    if not (root / "src" / "coopt" / "cli.py").is_file():
        print(f"no coopt sources under {root / 'src'}; the benchmark runs in a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="coopt CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    from coopt.io import save_scenario
    from workloads import check, reference

    wl = WORKLOADS[args.workload]
    workdir = root / ".bench_out" / f"{wl.name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scenario = workdir / "input.scenario"
    scn = wl.scenario(args.seed)
    save_scenario(scn, scenario)
    ref = reference(wl, scn)
    print(f"{wl.name} seed {args.seed}: currency unit {wl.currency_unit(args.seed)}, "
          f"HiGHS reference {ref}")

    runner = Runner(root, workdir, began + RUN_LIMIT_S)
    runner.spawn("setup")  # untimed: writes the bytecode caches a user's install keeps
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            res, _ = runner.spawn("setup")
            if "error" in res:
                print(f"set-up process failed: {res['error']}", file=sys.stderr)
                return 1
            setups.append(res["setup_s"])

    attempted = failed = 0
    wrong = False
    passed: list[dict] = []

    def command(mode: str) -> dict | None:
        nonlocal attempted, failed, wrong
        attempted += 1
        outdir = workdir / f"out-{attempted}"
        res, proc = runner.spawn(mode, [*wl.args, "--scenario", str(scenario),
                                        "--out", str(outdir), "--workers", "1"])
        if "error" in res:
            errors = [res["error"]]
        else:
            errors, res["result_vs_highs"] = check(wl, res["rc"], proc.stdout, outdir, ref)
            wrong = wrong or (res["rc"] == 0 and bool(errors))
        if errors:
            failed += 1
            print(f"command {attempted} failed: {'; '.join(errors)}", file=sys.stderr)
            return None
        return res

    rounds_began = time.monotonic()
    while True:
        res = command("run")
        if res is not None:
            passed.append(res)
        if time.monotonic() - rounds_began >= args.seconds:
            break
    if not passed:
        print(f"{wl.name}: every command failed", file=sys.stderr)
        return 1

    metrics = {
        "wall_s": (median(r["wall_s"] for r in passed), "s"),
        "cpu_s": (median(r["cpu_s"] for r in passed), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in passed), "MiB"),
        "result_vs_highs": (median(r["result_vs_highs"] for r in passed), "ratio"),
    }
    if args.trace:
        from trace_layers import layer_metrics

        traced = command("trace")
        if traced is None:
            return 1
        (workdir / "spans.json").write_text(json.dumps(traced["spans"]))
        metrics = layer_metrics(traced["spans"], traced["wall_s"], metrics["wall_s"][0])
    else:
        metrics["setup_s"] = (median(setups), "s")

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(f"commands attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
