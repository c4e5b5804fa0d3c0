"""Monitors for the convergence behaviour of a solver run.

These check observable certificates on a finished (or in-progress)
trace: monotone distance decrease toward a known member of the
intersection, the span condition linking the accumulated displacement
to the recorded hyperplane normals, and the bounded-ratio condition (B')
on the per-iteration orthogonal decompositions, which step_decompositions
rebuilds after the run.  They report margins and ratios; they do not
prove convergence.
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
class StepDecomposition:
    """Squared-norm bookkeeping for one main iteration.

    components: sum over sets of ||v_l||^2 for the orthogonal pieces
    assigned to each set (the set-projection displacement plus the
    correction terms grouped by the set that generated each normal).
    steps: ||x - x~||^2 + ||x~ - x_next||^2.
    """

    components: float
    steps: float


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
    return _span_residual(v, np.reshape(normals, (len(normals), v.shape[0])))


def _span_residual(v: np.ndarray, normals: np.ndarray) -> float:
    """Distance of v from the span of the rows of normals."""
    if not normals.shape[0]:
        return norm(v)
    A = normals.T  # columns span the candidate subspace
    coef = lstsq_min_norm(A, v)
    return norm(v - A @ coef)


def _corrections(result):
    """For each correction of an accelerated run: the stacked normals of
    its window's nonzero-normal entries, in window order, and its
    StepDecomposition under run_alg1 (None under run_alg2)."""
    dim = result.x0.shape[0]
    for i, selected in enumerate(result.selected_history):
        live = [result.generated[j] for j in selected]
        live = [(k, h.normal) for k, h in live if not h.is_whole_space()]
        normals = np.reshape([a for _, a in live], (len(live), dim))
        alg1 = result.trace[0].phase == "set-projection"  # run_alg2 starts with its lift
        yield normals, (_alg1_decomposition(result, i, [k for k, _ in live], normals)
                        if alg1 else None)


def _alg1_decomposition(result, i: int, set_indices, normals) -> StepDecomposition:
    """Iteration i + 1 of run_alg1: the recorded normal (the set projection's
    displacement), then the correction sum(lam_j a_j) split by the set that
    generated each a_j; every normal is orthogonal to its set's directions."""
    a = result.generated[i][1].normal
    total = float(np.dot(a, a))
    lam = result.coefficients[i]  # empty after a fallback to no correction
    by_set = {}
    for k, piece in zip(set_indices, normals[:lam.shape[0]] * lam[:, None]):
        by_set[k] = by_set[k] + piece if k in by_set else piece
    total += float(sum(np.dot(v, v) for v in by_set.values()))
    project, correct = result.trace[2 * i].step_norm, result.trace[2 * i + 1].step_norm
    return StepDecomposition(components=total, steps=project * project + correct * correct)


def step_decompositions(result) -> List[StepDecomposition]:
    """The per-iteration decompositions of a finished run.

    Under run_map components and steps are both an iteration's squared
    step norm; under run_alg1 see _alg1_decomposition.  run_alg2 has none:
    its corrections follow a composite step.
    """
    if all(r.phase == "set-projection" for r in result.trace):  # run_map
        return [StepDecomposition(components=s * s, steps=s * s)
                for s in (r.step_norm for r in result.trace)]
    return [d for _, d in _corrections(result) if d is not None]


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
    series is empty.  One pass over the corrections stacks each window
    once, for its span residual and, under run_alg1, its decomposition.
    """
    if m is not None:
        viol, worst = count_fejer_violations(result.points(), m, tol=fejer_tol)
    else:
        viol, worst = 0, 0.0
    x0 = as_point(result.x0)
    main_points = [r.point for r in result.trace if r.phase == "hyperplane-projection"]
    cond_b, decomps = [], [] if result.selected_history else step_decompositions(result)
    for point, (normals, d) in zip(main_points, _corrections(result)):
        cond_b.append(_span_residual(x0 - point, normals))
        if d is not None:
            decomps.append(d)
    return ConditionReport(
        fejer_violations=viol,
        fejer_worst=worst,
        condition_b_residuals=cond_b,
        b_prime_ratios=check_b_prime(decomps),
        sum_of_squares=running_sum_of_squares(decomps),
    )
