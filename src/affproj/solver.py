"""Alternating projections and the two hyperplane-accelerated variants.

All three drivers project a starting point onto the intersection of a
family of closed affine subspaces:

* run_map:  cyclic exact projections, one set per iteration.
* run_alg1: each projection step additionally records the supporting
  hyperplane it identifies; the iterate is then projected onto the
  intersection of a window of recorded hyperplanes.
* run_alg2: a designated easy set (index 0) is kept invariant; every
  iteration does other-set -> easy-set composite projections and
  records a deeper supporting hyperplane through the composite
  displacement, then corrects inside the easy set.

The window policy picks which recorded hyperplanes each correction
uses; LastQ(1) makes run_alg1 coincide with run_map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .diagnostics import IterationRecord
from .linalg import TOL_LIN, as_point, inner, norm
from .sets import (AffineSet, Hyperplane, InfeasibleIntersectionError,
                   InfeasibleSetError, _intersection_step)


@dataclass(frozen=True)
class LastQ:
    """Use the current hyperplane plus the most recent ones, q in total."""
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be a positive integer")


@dataclass(frozen=True)
class All:
    """Use every recorded hyperplane (the q = infinity window)."""


@dataclass(frozen=True)
class ConditionB:
    """Window certified to keep x0 - x_i inside span of selected normals.

    Keeping every normal ever used is the simplest certified choice, so
    selection coincides with All; the name is kept separate because
    diagnostics assert the span property only under this policy.
    """


WindowPolicy = Union[LastQ, All, ConditionB]


@dataclass
class BufferEntry:
    index: int
    set_index: int
    h: Hyperplane


class HyperplaneBuffer:
    """Ordered store of generated hyperplanes plus the window policy."""

    def __init__(self, policy: WindowPolicy):
        self.policy = policy
        self.entries: List[BufferEntry] = []

    def append(self, h: Hyperplane, set_index: int) -> int:
        idx = len(self.entries)
        self.entries.append(BufferEntry(idx, set_index, h))
        return idx

    def select(self, current: int) -> List[BufferEntry]:
        """Entries for the correction at generation index `current`.

        The current entry is always included.  The rest are the most
        recently generated nonzero-normal entries, at most q in total
        under LastQ and unbounded otherwise; duplicated normals keep
        only the newest copy.
        """
        chosen = [self.entries[current]]
        if isinstance(self.policy, LastQ):
            budget = self.policy.q - 1
        else:
            budget = len(self.entries)
        for e in reversed(self.entries[:current]):
            if budget <= 0:
                break
            if e.h.is_whole_space():
                continue
            if any(np.array_equal(e.h.normal, c.h.normal) for c in chosen):
                continue
            chosen.append(e)
            budget -= 1
        chosen.reverse()
        return chosen


@dataclass
class CyclicSchedule:
    """Fixed repeating order of set indices; enforces bounded revisit gaps."""

    order: List[int]

    def __post_init__(self):
        if not self.order:
            raise ValueError("schedule order is empty")

    def index_at(self, i: int) -> int:
        return self.order[i % len(self.order)]


@dataclass
class StoppingRule:
    """Stop when every set residual is <= stop_tol, or after max_iter
    projection sub-steps."""

    stop_tol: float = 1e-10
    max_iter: int = 10000


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
class SolveResult:
    solution: np.ndarray
    iterations: int
    trace: List[IterationRecord]
    converged: bool
    stop_reason: str  # residual-met | max-iter | infeasible
    x0: np.ndarray
    warnings: List[str] = field(default_factory=list)
    generated: List[Tuple[int, Hyperplane]] = field(default_factory=list)
    selected_history: List[List[int]] = field(default_factory=list)
    decompositions: List[StepDecomposition] = field(default_factory=list)

    def points(self) -> List[np.ndarray]:
        """Full interleaved point sequence, starting point first."""
        return [self.x0] + [r.point for r in self.trace]


def _set_residuals(sets: Sequence[AffineSet], x: np.ndarray) -> List[float]:
    return [s.residual(x) for s in sets]


def _dist(x: np.ndarray, target: Optional[np.ndarray]) -> Optional[float]:
    if target is None:
        return None
    return norm(x - target)


def lift_start(x0, m1: AffineSet) -> np.ndarray:
    """Move the starting point into the designated easy set.

    The projection onto the intersection is unchanged because the
    correction is orthogonal to every translate of the easy set.
    """
    return m1.project(as_point(x0))


def _correct(x: np.ndarray, buffer: HyperplaneBuffer, current: int,
             warnings: List[str]):
    """Hyperplane-window correction with the degeneracy fallback.

    Exact arithmetic guarantees the selected family is consistent; on a
    numerical infeasibility report, drop the older half of the window
    and retry once, then fall back to no correction at all.

    Returns (corrected point, selected entries, used entries, coefficients).
    """
    selected = buffer.select(current)
    try:
        p, kept, lam = _intersection_step(x, [e.h for e in selected])
    except InfeasibleIntersectionError:
        selected = selected[len(selected) // 2:]
        try:
            p, kept, lam = _intersection_step(x, [e.h for e in selected])
            warnings.append(f"correction {current}: dropped oldest hyperplanes after "
                            "an inconsistent intersection")
        except InfeasibleIntersectionError:
            warnings.append(f"correction {current}: intersection still inconsistent, "
                            "fell back to the uncorrected iterate")
            return x.copy(), selected, [], np.zeros(0)
    used = [selected[j] for j in kept]
    return p, selected, used, lam


def _component_sum(displacement: np.ndarray, used, lam) -> float:
    """||displacement||^2 plus the per-set squared norms of the
    correction pieces, grouped by the set that generated each normal.

    Every normal is orthogonal to its generating set's directions, so
    this realizes one admissible orthogonal-component decomposition of
    the iteration's movement."""
    total = float(np.dot(displacement, displacement))
    by_set = {}
    for e, c in zip(used, lam):
        v = by_set.get(e.set_index)
        if v is None:
            by_set[e.set_index] = c * e.h.normal
        else:
            by_set[e.set_index] = v + c * e.h.normal
    total += float(sum(np.dot(v, v) for v in by_set.values()))
    return total


def run_map(sets: Sequence[AffineSet], x0, schedule: Optional[CyclicSchedule] = None,
            stop: Optional[StoppingRule] = None,
            oracle_point: Optional[np.ndarray] = None) -> SolveResult:
    """Cyclic exact projections onto each set in turn."""
    x = as_point(x0).copy()
    start = x.copy()
    schedule = schedule or CyclicSchedule(list(range(len(sets))))
    stop = stop or StoppingRule()
    trace: List[IterationRecord] = []
    warnings: List[str] = []
    decomps: List[StepDecomposition] = []
    i = 0
    converged = False
    reason = "max-iter"
    while i < stop.max_iter:
        l = schedule.index_at(i)
        try:
            xn = sets[l].project(x)
            residuals = _set_residuals(sets, xn)
        except InfeasibleSetError as e:
            warnings.append(f"iteration {i + 1}: {e}")
            reason = "infeasible"
            break
        i += 1
        step = norm(xn - x)
        x = xn
        trace.append(IterationRecord(index=i, phase="set-projection", set_index=l,
                                     step_norm=step, per_set_residuals=residuals,
                                     distance_to_oracle=_dist(x, oracle_point),
                                     point=x.copy()))
        decomps.append(StepDecomposition(components=step * step, steps=step * step))
        if max(residuals) <= stop.stop_tol:
            converged = True
            reason = "residual-met"
            break
    return SolveResult(solution=x, iterations=i, trace=trace, converged=converged,
                       stop_reason=reason, x0=start, warnings=warnings,
                       decompositions=decomps)


def run_alg1(sets: Sequence[AffineSet], x0, policy: WindowPolicy = All(),
             schedule: Optional[CyclicSchedule] = None,
             stop: Optional[StoppingRule] = None,
             oracle_point: Optional[np.ndarray] = None) -> SolveResult:
    """Projections with supporting-hyperplane corrections.

    Each iteration projects onto the scheduled set, records the
    hyperplane {x : <a, x> = <a, p>} with a = iterate - projection, and
    then projects onto the intersection of the selected window.  Every
    recorded hyperplane contains the full intersection, so the window
    intersection is feasible in exact arithmetic.
    """
    x = as_point(x0).copy()
    start = x.copy()
    schedule = schedule or CyclicSchedule(list(range(len(sets))))
    stop = stop or StoppingRule()
    buffer = HyperplaneBuffer(policy)
    trace: List[IterationRecord] = []
    warnings: List[str] = []
    decomps: List[StepDecomposition] = []
    generated: List[Tuple[int, Hyperplane]] = []
    selected_history: List[List[int]] = []
    i = 0
    substeps = 0
    converged = False
    reason = "max-iter"
    while substeps < stop.max_iter:
        l = schedule.index_at(i)
        try:
            xt = sets[l].project(x)
            xt_residuals = _set_residuals(sets, xt)
        except InfeasibleSetError as e:
            warnings.append(f"iteration {i + 1}: {e}")
            reason = "infeasible"
            break
        substeps += 1
        i += 1
        a = x - xt
        if norm(a) <= 0.0:
            h = Hyperplane(np.zeros_like(x), 0.0)
        else:
            h = Hyperplane(a, inner(a, xt))
        cur = buffer.append(h, l)
        generated.append((l, h))
        step1 = norm(a)
        trace.append(IterationRecord(index=i, phase="set-projection", set_index=l,
                                     step_norm=step1, per_set_residuals=xt_residuals,
                                     distance_to_oracle=_dist(xt, oracle_point),
                                     point=xt.copy()))
        xn, selected, used, lam = _correct(xt, buffer, cur, warnings)
        substeps += 1
        selected_history.append([e.index for e in selected])
        step2 = norm(xn - xt)
        x = xn
        residuals = _set_residuals(sets, x)
        trace.append(IterationRecord(index=i, phase="hyperplane-projection", set_index=None,
                                     step_norm=step2, per_set_residuals=residuals,
                                     distance_to_oracle=_dist(x, oracle_point),
                                     point=x.copy()))
        decomps.append(StepDecomposition(
            components=_component_sum(a, used, lam),
            steps=step1 * step1 + step2 * step2))
        if max(residuals) <= stop.stop_tol:
            converged = True
            reason = "residual-met"
            break
    return SolveResult(solution=x, iterations=i, trace=trace, converged=converged,
                       stop_reason=reason, x0=start, warnings=warnings,
                       generated=generated, selected_history=selected_history,
                       decompositions=decomps)


def run_alg2(sets: Sequence[AffineSet], x0, policy: WindowPolicy = All(),
             schedule: Optional[CyclicSchedule] = None,
             stop: Optional[StoppingRule] = None,
             oracle_point: Optional[np.ndarray] = None) -> SolveResult:
    """Accelerated projections that keep every main iterate in sets[0].

    The starting point is first lifted into the easy set.  An iteration
    at x does x' = P_l(x), x'' = P_0(x'), then records the hyperplane
    with normal a = x - x'' passing through
    x + (||x - x'||^2 / ||x - x''||^2) (x'' - x), which contains the
    whole intersection and whose normal is a direction of the easy set.
    The correction therefore never leaves the easy set.
    """
    if len(sets) < 2:
        raise ValueError("need at least two sets (an easy set plus one more)")
    start = as_point(x0).copy()
    schedule = schedule or CyclicSchedule(list(range(1, len(sets))))
    stop = stop or StoppingRule()
    buffer = HyperplaneBuffer(policy)
    trace: List[IterationRecord] = []
    warnings: List[str] = []
    generated: List[Tuple[int, Hyperplane]] = []
    selected_history: List[List[int]] = []
    i = 0
    substeps = 1
    converged = False
    reason = "max-iter"
    try:
        x = lift_start(start, sets[0])
        residuals = _set_residuals(sets, x)
    except InfeasibleSetError as e:
        x = start.copy()
        warnings.append(f"starting lift: {e}")
        reason = "infeasible"
    else:
        trace.append(IterationRecord(index=0, phase="m1-projection", set_index=0,
                                     step_norm=norm(x - start), per_set_residuals=residuals,
                                     distance_to_oracle=_dist(x, oracle_point),
                                     point=x.copy()))
        if max(residuals) <= stop.stop_tol:
            converged = True
            reason = "residual-met"
    while reason == "max-iter" and substeps < stop.max_iter:
        l = schedule.index_at(i)
        if l == 0:
            raise ValueError("schedule for the accelerated-2 scheme must avoid set 0")
        try:
            xp = sets[l].project(x)
            xpp = sets[0].project(xp)
            xp_residuals = _set_residuals(sets, xp)
            xpp_residuals = _set_residuals(sets, xpp)
        except InfeasibleSetError as e:
            warnings.append(f"iteration {i + 1}: {e}")
            reason = "infeasible"
            break
        substeps += 2
        i += 1
        trace.append(IterationRecord(index=i, phase="set-projection", set_index=l,
                                     step_norm=norm(xp - x), per_set_residuals=xp_residuals,
                                     distance_to_oracle=_dist(xp, oracle_point),
                                     point=xp.copy()))
        trace.append(IterationRecord(index=i, phase="m1-projection", set_index=0,
                                     step_norm=norm(xpp - xp), per_set_residuals=xpp_residuals,
                                     distance_to_oracle=_dist(xpp, oracle_point),
                                     point=xpp.copy()))
        a = x - xpp
        nn = norm(a)
        if nn <= TOL_LIN:
            # numerically a fixed point of the composite projection; no
            # usable hyperplane, treat it as the whole space
            h = Hyperplane(np.zeros_like(x), 0.0)
            warnings.append(f"iteration {i}: degenerate composite step "
                            f"(displacement {nn:.3e}), recorded whole-space hyperplane")
        else:
            t = inner(x - xp, x - xp) / inner(a, a)
            xplus = x + t * (xpp - x)
            h = Hyperplane(a, inner(a, xplus))
        cur = buffer.append(h, l)
        generated.append((l, h))
        xn, selected, used, lam = _correct(xpp, buffer, cur, warnings)
        substeps += 1
        selected_history.append([e.index for e in selected])
        x = xn
        residuals = _set_residuals(sets, x)
        trace.append(IterationRecord(index=i, phase="hyperplane-projection", set_index=None,
                                     step_norm=norm(xn - xpp), per_set_residuals=residuals,
                                     distance_to_oracle=_dist(x, oracle_point),
                                     point=x.copy()))
        if max(residuals) <= stop.stop_tol:
            converged = True
            reason = "residual-met"
    return SolveResult(solution=x, iterations=i, trace=trace, converged=converged,
                       stop_reason=reason, x0=start, warnings=warnings,
                       generated=generated, selected_history=selected_history)
