"""Joint EV-hub / battery-storage operation study toolkit.

Model builders, an exact LP/MILP solver stack, Nash bargaining over the joint
bi-objective model, scenario simulation, and sensitivity studies.
"""

__version__ = "0.1.0"

from .bargain import (
    BargainResult,
    BudgetExhaustedError,
    DisagreementPoints,
    InfeasibleError,
    ParetoPoint,
    ResultsBundle,
    pareto_frontier,
    solve_nbs,
    solve_study,
    solve_tcm,
)
from .bnb import MilpSolution, solve_milp
from .io import ScenarioError, emit_report, load_scenario, save_scenario
from .linear import BiObjectiveModel, Constraint, LinearModel, Variable
from .models import build_p1, build_p2, build_p3, degradation_cost
from .scenario import (
    BssSpec,
    CompartmentSpec,
    DemandProfile,
    HubSpec,
    JointTerms,
    PriceProfiles,
    ReserveProbabilities,
    ScenarioInputs,
)
from .sensitivity import AnovaTable, FactorSpec, anova, f_critical, fractional_factorial_design, sweep_grid
from .simplex import LpSolution
from .simulate import clear_reserve_market, estimate_probabilities, percentile_profiles

__all__ = [
    "AnovaTable",
    "BargainResult",
    "BiObjectiveModel",
    "BssSpec",
    "BudgetExhaustedError",
    "CompartmentSpec",
    "Constraint",
    "DemandProfile",
    "DisagreementPoints",
    "FactorSpec",
    "HubSpec",
    "InfeasibleError",
    "JointTerms",
    "LinearModel",
    "LpSolution",
    "MilpSolution",
    "ParetoPoint",
    "PriceProfiles",
    "ReserveProbabilities",
    "ResultsBundle",
    "ScenarioError",
    "ScenarioInputs",
    "Variable",
    "anova",
    "build_p1",
    "build_p2",
    "build_p3",
    "clear_reserve_market",
    "degradation_cost",
    "emit_report",
    "estimate_probabilities",
    "f_critical",
    "fractional_factorial_design",
    "load_scenario",
    "pareto_frontier",
    "percentile_profiles",
    "save_scenario",
    "solve_milp",
    "solve_nbs",
    "solve_study",
    "solve_tcm",
    "sweep_grid",
    "__version__",
]
