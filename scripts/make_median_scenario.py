"""Regenerate the bundled scenario fixtures from the synthetic case study.

Writes ``scenarios/median.scenario`` (full six-compartment system at median
inputs) and ``scenarios/median_k2.scenario`` (two compartments, the size the
test suite solves end to end).
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coopt.io import save_scenario
from coopt.presets import build_scenario

OUT = Path(__file__).resolve().parents[1] / "scenarios"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    median = build_scenario(K=6, seed=7, days=30)
    save_scenario(median, OUT / "median.scenario")
    small = build_scenario(K=2, seed=7, days=30, compartment_spread=0.05)
    save_scenario(small, OUT / "median_k2.scenario")
    print(f"wrote {OUT / 'median.scenario'} and {OUT / 'median_k2.scenario'}")


if __name__ == "__main__":
    main()
