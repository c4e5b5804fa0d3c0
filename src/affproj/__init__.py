"""Projection of a point onto the intersection of closed affine subspaces.

Three solvers (plain alternating projections and two supporting-
hyperplane accelerations), convergence-certificate monitors, a direct
least-squares oracle, and the quadratic-pencil model-updating problem
family built on top of them.
"""

from .diagnostics import (ConditionReport, IterationRecord, check_b_prime, check_condition_b,
                          condition_report, step_decompositions)
from .linalg import gram_solve, inner, lstsq_min_norm, norm
from .oracle import UnsupportedSetError, direct_projection, stack
from .sets import (AffineSet, Hyperplane, InfeasibleIntersectionError, InfeasibleSetError,
                   RowConstraintSet, project_hyperplane_intersection)
from .solver import (All, LastQ, SolveResult, StoppingRule, WindowPolicy, run_alg1, run_alg2,
                     run_map)

__version__ = "0.1.0"

__all__ = [
    "AffineSet", "All", "ConditionReport", "Hyperplane",
    "InfeasibleIntersectionError", "InfeasibleSetError", "IterationRecord",
    "LastQ", "RowConstraintSet", "SolveResult", "StoppingRule",
    "UnsupportedSetError", "WindowPolicy",
    "check_b_prime", "check_condition_b", "condition_report",
    "direct_projection", "gram_solve", "inner", "lstsq_min_norm", "norm",
    "project_hyperplane_intersection",
    "run_alg1", "run_alg2", "run_map", "stack", "step_decompositions",
]
