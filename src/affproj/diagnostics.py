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

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .linalg import SpanBasis, as_point, norm, window_residual


@dataclass
class IterationRecord:
    """One projection sub-step of a solver run.

    index is the main-iteration number (records of the same iteration
    share it); phase is one of set-projection, hyperplane-projection,
    m1-projection.  point is the sub-step's point itself, read-only; step
    lengths, residuals and distances are computed from it by the reader
    that wants them (see SolveResult.step_norms and cli.write_trace_csv).
    """

    index: int
    phase: str
    set_index: Optional[int]
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


FEJER_TOL = 1e-9  # a larger increase of the distance to the member is a violation


def count_fejer_violations(points: Sequence[np.ndarray], m):
    """(number of consecutive pairs with increase > FEJER_TOL, worst margin).

    The worst margin is max(||x_{i+1} - m|| - ||x_i - m||), non-positive on
    a correct run up to roundoff; m must be a verified member of the
    intersection.  Raises ValueError when m and a point differ in dimension."""
    m = as_point(m)
    pts = list(points)
    for p in pts:
        if np.shape(p) != m.shape:
            raise ValueError(f"member has dimension {m.shape[0]}, "
                             f"points have dimension {np.shape(p)[0]}")
    if len(pts) < 2:
        return 0, 0.0
    dists = [norm(np.asarray(p) - m) for p in pts]
    margins = [b - a for a, b in zip(dists[:-1], dists[1:])]
    return sum(1 for g in margins if g > FEJER_TOL), max(margins)


def check_condition_b(x0, x_i, normals: Sequence[np.ndarray]) -> float:
    """Distance of x0 - x_i from the span of the given normals.

    Zero normals are ignored; the others are measured by one pivoted QR
    (linalg.window_residual, with SpanBasis's rank rule), as condition_report
    measures a sliding window.  Zero (to roundoff) certifies the span
    condition at this iteration.  Raises ValueError when x_i or a normal
    differs from x0 in dimension.
    """
    x0, x_i = as_point(x0), as_point(x_i)
    dim = x0.shape[0]
    if x_i.shape[0] != dim:
        raise ValueError(f"x0 has dimension {dim}, x_i has dimension {x_i.shape[0]}")
    normals = [np.asarray(a, dtype=float).reshape(-1) for a in normals]
    for a in normals:
        if a.shape[0] != dim:
            raise ValueError(f"x0 has dimension {dim}, a normal has dimension {a.shape[0]}")
    normals = [a for a in normals if np.any(a)]
    return window_residual(np.vstack(normals + [x0 - x_i]), len(normals))


def _span_start(result) -> np.ndarray:
    """The point the span condition is measured from: x0, or under run_alg2
    the lifted start (its m1-projection record), where its iterations begin."""
    lifted = result.trace and result.trace[0].phase == "m1-projection"
    return result.trace[0].point if lifted else as_point(result.x0)


def _corrections(result, measure: bool = True):
    """For each correction of an accelerated run: its span residual, the
    distance of start - x_i from the span of its window's normals (start as
    in _span_start, x_i the correction's point), or None when not measure,
    and its StepDecomposition under run_alg1 (None under run_alg2).

    When measuring, a window that starts at generated[0] (every window
    under All(), fallbacks included, and the first q - 1 under LastQ(q))
    grows one SpanBasis by its new rows only.  Any other window (a LastQ
    window that has slid), and every window when not measuring, keeps no
    basis: its rows are copied into one work array.  A slid window's
    residual is then measured by linalg.window_residual, with one pivoted
    QR whose reflectors are applied to start - x_i, copied in after them.
    """
    history, generated = result.selected_history, result.generated
    if not history:
        return
    dim, q = result.x0.shape[0], max(len(window) for window in history)
    basis, work = SpanBasis(dim, q), np.empty((q + 1, dim))
    start = _span_start(result)
    points = [r.point for r in result.trace if r.phase == "hyperplane-projection"]
    alg1 = result.trace[0].phase == "set-projection"  # run_alg2 starts with its lift
    if not (alg1 or measure):
        return
    steps = result.step_norms() if alg1 else None
    owners = np.array([k for k, _ in generated], dtype=np.intp)
    stop = 0  # the previous window's
    for i, (window, point) in enumerate(zip(history, points)):
        own = window.stop > stop  # iteration i + 1 found generated[window.stop - 1]
        stop, k = window.stop, len(window)
        grows = measure and not window.start
        if grows:
            basis.extend([generated[j][1].normal for j in range(basis.size, stop)])
            normals = basis.rows[:k]
        else:
            for j, w in enumerate(window):
                work[j] = generated[w][1].normal
            normals = work[:k]
        # the decomposition reads the normals before window_residual overwrites them
        d = (_alg1_decomposition(result, steps, i, own, owners[window.start:stop], normals)
             if alg1 else None)
        if grows:
            yield basis.residual(start - point), d
        elif measure:
            np.subtract(start, point, out=work[k])
            yield window_residual(work, k), d
        else:
            yield None, d


def _alg1_decomposition(result, steps, i: int, own: bool, owners, normals) -> StepDecomposition:
    """Iteration i + 1 of run_alg1: the normal it found, its set projection's
    displacement (the window's last normal when own, else none), then the
    correction sum(lam_j a_j) over the window's normals, split by owners,
    the sets that generated them; every normal is orthogonal to its set's
    directions.  One product sums the pieces: row k of the weights holds
    the lam_j of set k, so it costs O(k m n) for k sets and m normals of
    dimension n.  steps is result.step_norms()."""
    total = float(np.dot(normals[-1], normals[-1])) if own else 0.0
    lam = result.coefficients[i]
    if lam.size:  # empty after a fallback to no correction
        weights = np.zeros((owners.max() + 1, lam.size))
        weights[owners, np.arange(lam.size)] = lam
        pieces = weights @ normals
        total += float(np.vdot(pieces, pieces))
    project, correct = steps[2 * i], steps[2 * i + 1]
    return StepDecomposition(components=total, steps=project * project + correct * correct)


def step_decompositions(result) -> List[StepDecomposition]:
    """The per-iteration decompositions of a finished run.

    Under run_map components and steps are both an iteration's squared
    step norm; under run_alg1 see _alg1_decomposition.  run_alg2 has none:
    its corrections follow a composite step.
    """
    if all(r.phase == "set-projection" for r in result.trace):  # run_map
        return [StepDecomposition(components=s * s, steps=s * s) for s in result.step_norms()]
    return [d for _, d in _corrections(result, measure=False) if d is not None]


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


def condition_report(result, m: Optional[np.ndarray] = None) -> ConditionReport:
    """Assemble the monitors for a finished run.

    m is a certified member of the intersection; when omitted the
    Fejer fields are reported as zero-length (0 violations, 0 margin).
    Raises ValueError when m and the run differ in dimension.

    Condition-B residuals need the run to have recorded hyperplanes
    (the accelerated schemes); for plain alternating projections the
    series is empty.  Each is the distance of start - x_i from the span of
    its window's normals, where start is x0 under run_alg1 and the lifted
    start under run_alg2, whose iterations begin there.  One pass over the
    corrections (see _corrections) costs O(n rank) per correction under
    All() and O(q^2 n) under LastQ(q), in dimension n.
    """
    if m is not None:
        viol, worst = count_fejer_violations(result.points(), m)
    else:
        viol, worst = 0, 0.0
    cond_b, decomps = [], [] if result.selected_history else step_decompositions(result)
    for residual, d in _corrections(result):
        cond_b.append(residual)
        if d is not None:
            decomps.append(d)
    return ConditionReport(
        fejer_violations=viol,
        fejer_worst=worst,
        condition_b_residuals=cond_b,
        b_prime_ratios=check_b_prime(decomps),
        sum_of_squares=running_sum_of_squares(decomps),
    )
