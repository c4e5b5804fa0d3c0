"""Runtime monitors for the convergence behaviour of a solver run.

These check observable certificates on a finished (or in-progress)
trace: monotone distance decrease toward a known member of the
intersection, the span condition linking the accumulated displacement
to the recorded hyperplane normals, and the bounded-ratio condition on
the per-iteration orthogonal decompositions.  They report margins and
ratios; they do not prove convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .linalg import as_point, inner, lstsq_min_norm, norm


@dataclass
class IterationRecord:
    """One projection sub-step of a solver run.

    index is the main-iteration number (records of the same iteration
    share it); phase is one of set-projection, hyperplane-projection,
    m1-projection.  point is a copy of the sub-step's point; residuals
    and distances are computed from it by the reader that wants them
    (see cli.write_trace_csv).
    """

    index: int
    phase: str
    set_index: Optional[int]
    step_norm: float
    point: np.ndarray


@dataclass
class ConditionReport:
    """Aggregated monitor output for one solver run."""

    fejer_violations: int
    fejer_worst: float
    condition_b_residuals: List[float]
    b_prime_ratios: List[float]
    sum_of_squares: List[float]  # running, non-decreasing


def check_fejer(points: Sequence[np.ndarray], m) -> float:
    """Worst increase of distance to m along consecutive points.

    Returns max(||x_{i+1} - m|| - ||x_i - m||); non-positive on a
    correct run up to roundoff (<= 1e-9 in the test suites).  m must be
    a verified member of the intersection.
    """
    return count_fejer_violations(points, m)[1]


def count_fejer_violations(points: Sequence[np.ndarray], m, tol: float = 1e-9):
    """(number of consecutive pairs with increase > tol, worst margin)."""
    m = as_point(m)
    pts = list(points)
    if len(pts) < 2:
        return 0, 0.0
    dists = [norm(np.asarray(p) - m) for p in pts]
    margins = [b - a for a, b in zip(dists[:-1], dists[1:])]
    return sum(1 for g in margins if g > tol), max(margins)


def check_condition_b(x0, x_i, normals: Sequence[np.ndarray]) -> float:
    """Distance of x0 - x_i from the span of the given normals.

    Computed as the least-squares residual of expressing x0 - x_i in
    the normal family; zero (to roundoff) certifies the span condition
    at this iteration.
    """
    v = as_point(x0) - as_point(x_i)
    normals = [np.asarray(a, dtype=float).reshape(-1) for a in normals]
    normals = [a for a in normals if np.any(a)]
    if not normals:
        return norm(v)
    A = np.vstack(normals).T  # columns span the candidate subspace
    coef = lstsq_min_norm(A, v)
    return norm(v - A @ coef)


def check_b_prime(decompositions) -> List[float]:
    """Per-iteration ratio components / steps of the squared-norm
    decomposition; iterations with zero step are skipped."""
    ratios = []
    for d in decompositions:
        if d.steps > 0.0:
            ratios.append(d.components / d.steps)
    return ratios


def running_sum_of_squares(decompositions) -> List[float]:
    """Cumulative sum of the per-iteration squared step norms.

    Bounded by ||x0 - m||^2 for any member m of the intersection, which
    is the telescoping certificate behind the convergence argument.
    """
    out = []
    total = 0.0
    for d in decompositions:
        total += d.steps
        out.append(total)
    return out


def condition_report(result, m: Optional[np.ndarray] = None,
                     fejer_tol: float = 1e-9) -> ConditionReport:
    """Assemble the monitors for a finished run.

    m is a certified member of the intersection; when omitted the
    Fejer fields are reported as zero-length (0 violations, 0 margin).
    Condition-B residuals need the run to have recorded hyperplanes
    (the accelerated schemes); for plain alternating projections the
    series is empty.
    """
    if m is not None:
        viol, worst = count_fejer_violations(result.points(), m, tol=fejer_tol)
    else:
        viol, worst = 0, 0.0
    cond_b = []
    if result.generated and result.selected_history:
        main_points = [r.point for r in result.trace if r.phase == "hyperplane-projection"]
        for i, sel in enumerate(result.selected_history):
            if i >= len(main_points):
                break
            normals = [result.generated[j][1].normal for j in sel]
            cond_b.append(check_condition_b(result.x0, main_points[i], normals))
    return ConditionReport(
        fejer_violations=viol,
        fejer_worst=worst,
        condition_b_residuals=cond_b,
        b_prime_ratios=check_b_prime(result.decompositions),
        sum_of_squares=running_sum_of_squares(result.decompositions),
    )
