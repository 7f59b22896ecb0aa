"""Finite-horizon stochastic linear-quadratic control with multiplicative
noise, indefinite weights, and a transmission delay in the control channel.

The backward recursion couples d+1 matrix sequences; controls are restricted
to information delayed by d steps. The package solves the recursion, checks
solvability (pseudo-inverse feedback with indefinite weights), cross-checks
everything against a brute-force minimization on the exact scenario tree,
evaluates policies exactly and by Monte Carlo, and handles the equivalent
matrix equality/inequality feasibility system constructively.
"""
from .errors import (
    ConsistencyError,
    DelqError,
    ResourceLimitError,
    UnsolvableError,
    ValidationError,
)
from .jsontext import dumps
from .linalg import (
    PINV_RTOL,
    PSD_TOL,
    is_pd,
    is_psd,
    pinv,
    range_residual,
    schur_block_psd,
    symmetrize,
)
from .model import (
    AdaptedProcess,
    FeedbackPolicy,
    OpenLoopPolicy,
    ProblemData,
    ScenarioTree,
    Trajectory,
    build_tree,
    ensure_valid,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    rollout,
    save_problem,
    trajectory_cost,
    validate,
    zero_policy,
)
from .riccati import (
    CONVEX_CANDIDATE,
    NOT_CONVEX,
    SOLVABLE_ALL_PAIRS,
    UNIQUELY_SOLVABLE,
    RiccatiSolution,
    SolvabilityReport,
    classify,
    feedback_policy,
    optimal_value,
    recompute_wh,
    solution_from_dict,
    solution_to_dict,
    solve_riccati,
    solve_riccati_bar,
)
from .bsde import (
    OracleOutcome,
    QuadraticForm,
    StackedControlLayout,
    apply_operators,
    assemble_quadratic,
    cost_difference_residual,
    decoupling_residual,
    first_variation_inner,
    fixed_pair_check,
    oracle_cost,
    oracle_minimize,
    process_inner,
    solve_bsde,
    stationary_residual,
    terminal_inner,
)
from .lmei import (
    LmeiCandidate,
    LmeiReport,
    auxiliary_cost,
    candidate_from_dict,
    candidate_to_dict,
    certificate_from_riccati,
    check_membership,
    construct_from_candidate,
    make_candidate,
    zero_candidate,
)
from .simulate import (
    EvaluationResult,
    completion_of_squares_residual,
    cost_decomposition_check,
    exact_cost,
    monte_carlo_cost,
    predictor,
    shifted_policy,
)
from .worked_example import benchmark_problem, benchmark_report

__version__ = "0.1.0"

__all__ = [
    "AdaptedProcess", "CONVEX_CANDIDATE", "ConsistencyError",
    "DelqError", "EvaluationResult", "FeedbackPolicy", "LmeiCandidate",
    "LmeiReport", "NOT_CONVEX", "OpenLoopPolicy", "OracleOutcome", "PINV_RTOL",
    "PSD_TOL", "ProblemData", "QuadraticForm", "ResourceLimitError",
    "RiccatiSolution", "SOLVABLE_ALL_PAIRS", "ScenarioTree", "SolvabilityReport",
    "StackedControlLayout", "Trajectory", "UNIQUELY_SOLVABLE", "UnsolvableError",
    "ValidationError", "apply_operators", "assemble_quadratic", "auxiliary_cost",
    "benchmark_problem", "benchmark_report", "build_tree", "candidate_from_dict",
    "candidate_to_dict", "certificate_from_riccati", "check_membership", "classify",
    "completion_of_squares_residual", "construct_from_candidate",
    "cost_decomposition_check", "cost_difference_residual",
    "decoupling_residual", "dumps", "ensure_valid", "exact_cost", "feedback_policy",
    "first_variation_inner", "fixed_pair_check",
    "is_pd", "is_psd", "load_problem", "make_candidate",
    "monte_carlo_cost", "optimal_value", "oracle_cost",
    "oracle_minimize", "pinv", "predictor", "problem_from_dict",
    "problem_to_dict", "process_inner", "range_residual",
    "recompute_wh", "rollout", "save_problem", "schur_block_psd",
    "shifted_policy", "solution_from_dict", "solution_to_dict", "solve_bsde",
    "solve_riccati", "solve_riccati_bar", "stationary_residual", "symmetrize",
    "terminal_inner", "trajectory_cost", "validate", "zero_candidate", "zero_policy",
]
