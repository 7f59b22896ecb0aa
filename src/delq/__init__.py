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
    FeedbackPolicy,
    ProblemData,
    ensure_valid,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate,
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
    solution_from_dict,
    solution_to_dict,
    solve_riccati,
    solve_riccati_bar,
)
from .bsde import (
    OracleOutcome,
    QuadraticForm,
    StackedControlLayout,
    assemble_quadratic,
    oracle_minimize,
)
from .lmei import (
    LmeiCandidate,
    LmeiReport,
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
    exact_cost,
    monte_carlo_cost,
    predictor,
)
from .worked_example import benchmark_problem, benchmark_report

__version__ = "0.1.0"

__all__ = [
    "CONVEX_CANDIDATE", "ConsistencyError", "DelqError", "EvaluationResult",
    "FeedbackPolicy", "LmeiCandidate", "LmeiReport", "NOT_CONVEX", "OracleOutcome",
    "PINV_RTOL", "PSD_TOL", "ProblemData", "QuadraticForm", "ResourceLimitError",
    "RiccatiSolution", "SOLVABLE_ALL_PAIRS", "SolvabilityReport",
    "StackedControlLayout", "UNIQUELY_SOLVABLE", "UnsolvableError", "ValidationError",
    "assemble_quadratic", "benchmark_problem", "benchmark_report",
    "candidate_from_dict", "candidate_to_dict", "certificate_from_riccati",
    "check_membership", "classify", "construct_from_candidate", "dumps", "ensure_valid",
    "exact_cost", "feedback_policy", "is_pd", "is_psd", "load_problem",
    "make_candidate", "monte_carlo_cost", "optimal_value", "oracle_minimize", "pinv",
    "predictor", "problem_from_dict", "problem_to_dict", "range_residual",
    "save_problem", "schur_block_psd", "solution_from_dict", "solution_to_dict",
    "solve_riccati", "solve_riccati_bar", "symmetrize", "validate", "zero_candidate",
]
