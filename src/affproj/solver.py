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

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from numbers import Integral
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .diagnostics import IterationRecord
from .linalg import TOL_LIN, GramFactor, as_point, inner, norm
from .sets import (AffineSet, Hyperplane, InfeasibleIntersectionError,
                   InfeasibleSetError, _window_step)


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


# The window certified to keep x0 - x_i inside the span of the selected
# normals.  Keeping every normal ever used is the simplest certified
# choice, so it is the All policy under a second name.
ConditionB = All

WindowPolicy = Union[LastQ, All]


@dataclass
class BufferEntry:
    index: int
    set_index: int
    h: Hyperplane


class HyperplaneBuffer:
    """Ordered store of generated hyperplanes plus the window policy.

    entries holds every generated hyperplane; live lists the indices of
    those that are not the whole space, in generation order, so that a
    selection is a slice of it.

    The live normals and offsets are also copied into the rows of one
    array: a ring of q rows under LastQ(q) (live entry j in row j % q), and
    under All() an array whose capacity doubles when full.  Each live
    hyperplane adds its row and column of the Gram matrix of the stored
    rows with one mat-vec over them, O(q n).  Under LastQ the ring's q x q
    Gram matrix is kept, and each correction factors its window's block
    afresh with one LAPACK call.  Under All() every window is the previous
    one plus at most one row, so the new Gram column goes straight into the
    window's GramFactor, O(q^2), which is never refactored; the Gram matrix
    itself is not kept, because it would grow as the square of the window
    (a fallback recomputes the block it needs from the rows).
    """

    def __init__(self, policy: WindowPolicy):
        self.policy = policy
        self.entries: List[BufferEntry] = []
        self.live: List[int] = []
        self.ring = policy.q if isinstance(policy, LastQ) else None
        self.normals = self.offsets = self.gram = None  # allocated by the first live entry
        self.factor = None if self.ring else GramFactor()

    def append(self, h: Hyperplane, set_index: int) -> int:
        idx = len(self.entries)
        self.entries.append(BufferEntry(idx, set_index, h))
        if not h.is_whole_space():
            self._store(h)
            self.live.append(idx)
        return idx

    def _store(self, h: Hyperplane) -> None:
        m = len(self.live)
        if self.normals is None:
            cap = self.ring or 8
            self.normals = np.zeros((cap, h.dim))
            self.offsets = np.zeros(cap)
            if self.ring:
                self.gram = np.zeros((cap, cap))
        elif m == len(self.normals) and not self.ring:
            self.normals = np.concatenate([self.normals, np.zeros_like(self.normals)])
            self.offsets = np.concatenate([self.offsets, np.zeros_like(self.offsets)])
        row = m % self.ring if self.ring else m
        filled = min(m + 1, len(self.normals))
        self.normals[row] = h.normal
        self.offsets[row] = h.offset
        g = self.normals[:filled] @ h.normal
        if self.ring:
            self.gram[row, :filled] = g
            self.gram[:filled, row] = g
        else:
            self.factor.append(g)

    def select(self, current: int) -> List[BufferEntry]:
        """Entries for the correction at generation index `current`.

        The live entries generated before `current` (the newest q - 1 under
        LastQ, all of them otherwise), in generation order, then `current`
        itself.  Repeated normals are kept: they make the window's Gram
        matrix singular, and the GramFactor leaves the repeats out.  A
        selection is a slice of live, so it costs O(window).
        """
        older = bisect_left(self.live, current)
        first = max(0, older - self.policy.q + 1) if isinstance(self.policy, LastQ) else 0
        return [self.entries[j] for j in self.live[first:older]] + [self.entries[current]]

    def window(self, current: int):
        """(normals, offsets, rows, factor) for the correction at the newest
        entry `current`: the stored rows, the indices of the live entries of
        select(current) among them in generation order, and the GramFactor
        of those rows."""
        n = len(self.live)
        if not n:
            return None, None, np.arange(0), GramFactor()
        if not self.ring:
            return self.normals[:n], self.offsets[:n], np.arange(n), self.factor
        current_live = self.live[-1] == current
        return self.block(np.arange(n - min(n, self.ring - 1 + current_live), n) % self.ring)

    def block(self, rows):
        """window's tuple for the given stored rows, factored afresh."""
        A = self.normals[:min(len(self.live), len(self.normals))]
        G = self.gram.take(rows, 0).take(rows, 1) if self.ring else A[rows] @ A[rows].T
        return A, self.offsets[:len(A)], rows, GramFactor.of(G)


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
    """Stop when every set residual is <= stop_tol, or at the first
    iteration boundary with at least max_iter projection sub-steps.
    The set that a projection just put the iterate in is not checked but
    counts as met, which matters only for a stop_tol below roundoff.

    An iteration is one sub-step under run_map, two under run_alg1 and
    three under run_alg2, whose starting lift counts as one more; so
    run_alg1 may make max_iter + 1 sub-steps and run_alg2 max_iter + 2.
    """

    stop_tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if not self.stop_tol >= 0.0:  # also rejects NaN
            raise ValueError("stop_tol must be a non-negative number")
        if not isinstance(self.max_iter, Integral) or self.max_iter < 0:
            raise ValueError("max_iter must be a non-negative integer")


@dataclass
class SolveResult:
    """Under run_alg1 and run_alg2, correction i used the generated entries
    selected_history[i] with weights coefficients[i], one per nonzero normal
    (none after a fallback to no correction); diagnostics.step_decompositions
    rebuilds the decompositions of condition (B') from them."""

    solution: np.ndarray
    iterations: int
    trace: List[IterationRecord]
    converged: bool
    stop_reason: str  # residual-met | max-iter | infeasible
    x0: np.ndarray
    warnings: List[str] = field(default_factory=list)
    generated: List[Tuple[int, Hyperplane]] = field(default_factory=list)
    selected_history: List[List[int]] = field(default_factory=list)
    coefficients: List[np.ndarray] = field(default_factory=list)

    def points(self) -> List[np.ndarray]:
        """Full interleaved point sequence, starting point first."""
        return [self.x0] + [r.point for r in self.trace]


def lift_start(x0, m1: AffineSet) -> np.ndarray:
    """Move the starting point into the designated easy set.

    The projection onto the intersection is unchanged because the
    correction is orthogonal to every translate of the easy set.
    """
    return m1.project(as_point(x0))


def _correct(x: np.ndarray, buffer: HyperplaneBuffer, current: int,
             warnings: List[str]):
    """Hyperplane-window correction with the degeneracy fallback.

    Projects x onto the intersection of the window of the newest entry
    `current` through the buffer's stored rows and Gram factor: O(q n) for
    the three mat-vecs of sets._window_step, plus O(q^2) under All() and
    one q x q factorization under LastQ.  Exact arithmetic guarantees the
    selected family is consistent; on a numerical infeasibility report,
    drop the older half of the window (its newer half is factored afresh)
    and retry once, then fall back to no correction at all.

    Returns (corrected point, selected entries, coefficients); see
    SolveResult.coefficients.
    """
    selected = buffer.select(current)
    A, b, rows, factor = buffer.window(current)
    try:
        p, lam = _window_step(x, A, b, rows, factor)
    except InfeasibleIntersectionError:
        selected = selected[len(selected) // 2:]
        rows = rows[len(rows) - sum(not e.h.is_whole_space() for e in selected):]
        try:
            p, lam = _window_step(x, *buffer.block(rows))
            warnings.append(f"correction {current}: dropped oldest hyperplanes after "
                            "an inconsistent intersection")
        except InfeasibleIntersectionError:
            warnings.append(f"correction {current}: intersection still inconsistent, "
                            "fell back to the uncorrected iterate")
            return x.copy(), selected, np.zeros(0)
    return p, selected, lam


def _record(index, phase, set_index, point, step):
    # A copy, not the point itself: keeping alg1's projections raised its max RSS
    # on an n=100 pencil chain (dim 40 000) from 287 to 360 MB (heap fragmentation).
    return IterationRecord(index=index, phase=phase, set_index=set_index, step_norm=step,
                           point=point.copy())


def _first_step(sets, l, x):
    p = sets[l].project(x)
    return p, norm(p - x)


def _check(sets, x, l, skip, stop_tol):
    """(met, _first_step(sets, l, x)), with that step as x's residual to set l
    and set skip (None: none) not checked; ValueError names a non-finite one."""
    ahead = _first_step(sets, l, x)
    checked = [(l, ahead[1])] + [(j, s.residual(x)) for j, s in enumerate(sets)
                                 if j not in (l, skip)]
    for j, r in checked:
        if not math.isfinite(r):
            raise ValueError(f"set {j}: residual {r} is not finite")
    return max(r for _, r in checked) <= stop_tol, ahead


def _drive(sets, x0, schedule, stop, path, support=None, policy=None,
           lift=None) -> SolveResult:
    """The iteration loop of the three drivers.

    path(sets, l, p) gives the projections of an iteration from x, the
    first being p = P_l(x), as (phase, set index, point) triples; without
    support, their end is the next iterate.  support(x, path, i, warnings)
    gives the recorded hyperplane as a normal (None: the whole space) and
    a point on it, and the window correction of the path's end is the next
    iterate; its window and coefficients are only stored, for diagnostics.
    lift is the set the start is first projected onto; the default
    schedule then skips it (set 0).

    Each main iterate is checked once, by _check, inside the iteration
    that made it (one that raises InfeasibleSetError records nothing).
    The check makes the next iteration's first projection and skips the
    set a projection just put the iterate in, which counts as met.  A
    corrected iterate stays in the lift set only in exact arithmetic, so
    it is checked in full.  The last check's projection is dropped.

    The path's points are copied for the trace before the correction is
    made, and the point on the hyperplane lives until the next one is
    made.  At dim 40 000, copying after the correction raised the pencil
    benchmark's peak RSS from about 345 to 355 MB, and freeing that point
    at once raised alg2's max RSS from 110 to 120 MB (heap fragmentation).
    """
    start = as_point(x0).copy()
    schedule = schedule or CyclicSchedule(list(range(int(lift is not None), len(sets))))
    stop = stop or StoppingRule()
    buffer = HyperplaneBuffer(policy)
    trace, warnings, selected_history, coefficients = [], [], [], []
    i = substeps = 0
    reason = "max-iter"
    x, ahead = start.copy(), None  # ahead: the next iteration's (p, step), from _check
    if lift is not None:
        substeps = 1
        try:
            lifted = lift_start(start, lift)
            met, ahead = _check(sets, lifted, schedule.index_at(0), 0, stop.stop_tol)
        except InfeasibleSetError as e:
            warnings.append(f"starting lift: {e}")
            reason = "infeasible"
        else:
            x = lifted
            trace.append(_record(0, "m1-projection", 0, x, norm(x - start)))
            if met:
                reason = "residual-met"
    while reason == "max-iter" and substeps < stop.max_iter:
        l = schedule.index_at(i)
        noted = len(warnings)
        try:
            p, step = ahead or _first_step(sets, l, x)
            steps = path(sets, l, p)
            records = [_record(i + 1, *steps[0], step)]
            records += [_record(i + 1, *b, norm(b[2] - a[2])) for a, b in zip(steps, steps[1:])]
            xn = end = steps[-1][2]
            if support is not None:
                normal, through = support(x, steps, i + 1, warnings)
                h = (Hyperplane(np.zeros_like(x), 0.0) if normal is None
                     else Hyperplane(normal, inner(normal, through)))
                cur = buffer.append(h, l)
                xn, selected, lam = _correct(xn, buffer, cur, warnings)
            met, ahead = _check(sets, xn, schedule.index_at(i + 1),
                                l if support is None else None, stop.stop_tol)
        except InfeasibleSetError as e:
            del warnings[noted:]
            warnings.append(f"iteration {i + 1}: {e}")
            reason = "infeasible"
            break
        substeps += len(steps)
        i += 1
        trace += records
        x = xn
        if support is not None:
            substeps += 1
            selected_history.append([e.index for e in selected])
            coefficients.append(lam)
            trace.append(_record(i, "hyperplane-projection", None, x, norm(x - end)))
        if met:
            reason = "residual-met"
    return SolveResult(solution=x, iterations=i, trace=trace,
                       converged=reason == "residual-met", stop_reason=reason, x0=start,
                       warnings=warnings,
                       # drops the hyperplane of an iteration that failed
                       generated=[(e.set_index, e.h) for e in buffer.entries[:i]],
                       selected_history=selected_history, coefficients=coefficients)


def _set_projection(sets, l, p):
    return [("set-projection", l, p)]


def _composite_projection(sets, l, p):
    if l == 0:
        raise ValueError("schedule for the accelerated-2 scheme must avoid set 0")
    return [("set-projection", l, p), ("m1-projection", 0, sets[0].project(p))]


def _displacement_hyperplane(x, path, i, warnings):
    a = x - path[0][2]
    return (a if norm(a) > 0.0 else None), path[0][2]


def _composite_hyperplane(x, path, i, warnings):
    xp, xpp = path[0][2], path[1][2]
    a = x - xpp
    nn = norm(a)
    if nn <= TOL_LIN:
        # numerically a fixed point of the composite projection: no usable hyperplane
        warnings.append(f"iteration {i}: degenerate composite step "
                        f"(displacement {nn:.3e}), recorded whole-space hyperplane")
        return None, None
    t = inner(x - xp, x - xp) / inner(a, a)
    return a, x + t * (xpp - x)


def run_map(sets: Sequence[AffineSet], x0, schedule: Optional[CyclicSchedule] = None,
            stop: Optional[StoppingRule] = None) -> SolveResult:
    """Cyclic exact projections onto each set in turn."""
    return _drive(sets, x0, schedule, stop, _set_projection)


def run_alg1(sets: Sequence[AffineSet], x0, policy: WindowPolicy = All(),
             schedule: Optional[CyclicSchedule] = None,
             stop: Optional[StoppingRule] = None) -> SolveResult:
    """Projections with supporting-hyperplane corrections.

    Each iteration projects onto the scheduled set, records the
    hyperplane {x : <a, x> = <a, p>} with a = iterate - projection, and
    then projects onto the intersection of the selected window.  Every
    recorded hyperplane contains the full intersection, so the window
    intersection is feasible in exact arithmetic.
    """
    return _drive(sets, x0, schedule, stop, _set_projection, _displacement_hyperplane,
                  policy)


def run_alg2(sets: Sequence[AffineSet], x0, policy: WindowPolicy = All(),
             schedule: Optional[CyclicSchedule] = None,
             stop: Optional[StoppingRule] = None) -> SolveResult:
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
    return _drive(sets, x0, schedule, stop, _composite_projection, _composite_hyperplane,
                  policy, lift=sets[0])
