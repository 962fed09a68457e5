"""Resilient edge service placement and sizing under demand and failure uncertainty.

The package plans where to install an edge service and how much capacity to
procure at each node (first stage) so that workload allocation (second stage)
stays cheap for every demand vector in a budgeted box and every failure
pattern of at most K nodes.  Exact plans come from column-and-constraint
generation, conservative ones from affine decision rules; deterministic,
stochastic and greedy baselines plus Monte-Carlo evaluation support
experiment pipelines.
"""

from .core import (
    FirstStagePlan,
    InstanceError,
    ProblemInstance,
    RecourseOutcome,
    Scenario,
    UncertaintyModel,
    demand_from_g,
    enumerate_vertices,
    provisioning_cost,
)
from .ccg import run_ccg, solve_extensive_form, solve_master, solve_subproblem_duality, solve_subproblem_kkt
from .adr import solve_adr
from .baselines import heuristic_placement, solve_deterministic, solve_stochastic
from .evaluation import (
    certify_worst_case,
    generate_test_scenarios,
    monte_carlo,
    sensitivity_sweep,
    solve_recourse,
    solve_recourse_batch,
)

__version__ = "0.1.0"

__all__ = [
    "FirstStagePlan",
    "InstanceError",
    "ProblemInstance",
    "RecourseOutcome",
    "Scenario",
    "UncertaintyModel",
    "demand_from_g",
    "enumerate_vertices",
    "provisioning_cost",
    "run_ccg",
    "solve_extensive_form",
    "solve_master",
    "solve_subproblem_duality",
    "solve_subproblem_kkt",
    "solve_adr",
    "heuristic_placement",
    "solve_deterministic",
    "solve_stochastic",
    "certify_worst_case",
    "generate_test_scenarios",
    "monte_carlo",
    "sensitivity_sweep",
    "solve_recourse",
    "solve_recourse_batch",
    "__version__",
]
