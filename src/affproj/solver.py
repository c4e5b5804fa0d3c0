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
        if isinstance(self.q, bool) or not isinstance(self.q, Integral) or self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q!r}")


@dataclass(frozen=True)
class All:
    """Use every recorded hyperplane (the q = infinity window)."""


WindowPolicy = Union[LastQ, All]


class HyperplaneBuffer:
    """The generated hyperplanes and the window policy.

    generated holds one (set index, hyperplane) record per generation
    index; live lists the generation indices of the hyperplanes that are
    not the whole space, in order, so that a selection is a slice of it.

    The live normals and offsets are also copied into the rows of one
    array: a ring of q rows under LastQ(q) (live entry j in row j % q), and
    under All() an array whose capacity doubles when full.  Each live
    hyperplane adds its row and column of the Gram matrix of the stored
    rows with one mat-vec over them, O(q n).  Under LastQ the ring's q x q
    Gram matrix is kept, and each correction factors its window's block
    afresh with one LAPACK call.  Under All() every window is the previous
    one plus at most one row, so the new Gram column goes straight into the
    window's GramFactor, O(q^2), which is never refactored; the Gram matrix
    itself is not kept, because it would grow as the square of the window.
    """

    def __init__(self, policy: WindowPolicy):
        if not isinstance(policy, (LastQ, All)):
            raise TypeError(f"window policy must be LastQ(q) or All(), got {policy!r}")
        self.policy = policy
        self.generated: List[Tuple[int, Hyperplane]] = []
        self.live: List[int] = []
        self.ring = policy.q if isinstance(policy, LastQ) else None
        self.normals = self.offsets = self.gram = None  # allocated by the first live entry
        self.factor = None if self.ring else GramFactor()

    def append(self, h: Hyperplane, set_index: int) -> int:
        """Record h, generated by a projection onto set set_index, and
        return its generation index."""
        idx = len(self.generated)
        self.generated.append((set_index, h))
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

    def _bounds(self, current: int) -> Tuple[int, int]:
        """(first, older): live[first:older] are the live entries generated
        before `current` that its window keeps, the newest q - 1 under
        LastQ(q) and all of them under All()."""
        older = bisect_left(self.live, current)
        first = max(0, older - self.policy.q + 1) if isinstance(self.policy, LastQ) else 0
        return first, older

    def select(self, current: int) -> List[int]:
        """Generation indices of the window of the correction at `current`.

        The live entries of _bounds(current), in generation order, then
        `current` itself, which is the only one that can be the whole space.
        Repeated normals are kept: they make the window's Gram matrix
        singular, and the GramFactor leaves the repeats out.  A selection
        is one slice of live.
        """
        first, older = self._bounds(current)
        return self.live[first:older] + [current]

    def window(self, current: int):
        """(normals, offsets, rows, factor) for the correction at the newest
        entry `current`: the stored rows, the indices among them of the live
        entries of select(current) in generation order, and the GramFactor
        of those rows (under All() the one grown by append, under LastQ the
        ring's block factored afresh)."""
        n = len(self.live)
        if not n:
            return None, None, np.arange(0), GramFactor()
        rows = np.arange(self._bounds(current)[0], n)
        if not self.ring:
            return self.normals[:n], self.offsets[:n], rows, self.factor
        rows %= self.ring
        A = self.normals[:min(n, self.ring)]
        G = self.gram.take(rows, 0).take(rows, 1)
        return A, self.offsets[:len(A)], rows, GramFactor.of(G)


@dataclass
class StoppingRule:
    """Stop when every set residual is <= stop_tol, or at the first
    iteration boundary with at least max_iter projection sub-steps.
    The set that a projection just put the iterate in is not checked but
    counts as met, which matters only for a stop_tol below roundoff.

    An iteration is one sub-step under run_map, two under run_alg1 and
    three under run_alg2, whose starting lift counts as one more; so
    run_alg1 may make max_iter + 1 sub-steps and run_alg2 max_iter + 2.
    The residual to the next set in the fixed cyclic order is read off
    that set's projection, which the next iteration reuses.
    """

    stop_tol: float = 1e-10
    max_iter: int = 10000

    def __post_init__(self):
        if not self.stop_tol >= 0.0:  # also rejects NaN
            raise ValueError("stop_tol must be a non-negative number")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, Integral)
                or self.max_iter < 0):
            raise ValueError(f"max_iter must be a non-negative integer, got {self.max_iter!r}")


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


def _correct(x: np.ndarray, buffer: HyperplaneBuffer, current: int,
             warnings: List[str]):
    """Hyperplane-window correction, or none at all.

    Projects x onto the intersection of the window of the newest entry
    `current` through the buffer's stored rows and Gram factor: O(q n) for
    the three mat-vecs of sets._window_step, plus O(q^2) under All() and
    one q x q factorization under LastQ.  Every recorded hyperplane contains
    the intersection of the sets, so the window is inconsistent only
    through roundoff or when the sets do not meet; then the correction is
    skipped with one warning, and x is returned unmoved.

    Returns (corrected point, generation indices of the window, coefficients);
    see SolveResult.coefficients.
    """
    selected = buffer.select(current)
    try:
        p, lam = _window_step(x, *buffer.window(current))
    except InfeasibleIntersectionError:
        warnings.append(f"correction {current}: inconsistent intersection, "
                        "fell back to the uncorrected iterate")
        return x.copy(), selected, np.zeros(0)
    return p, selected, lam


def _record(index, phase, set_index, point, step):
    # A copy, not the point itself: keeping alg1's projections raised its max RSS
    # on an n=100 pencil chain (dim 40 000) from 287 to 360 MB (heap fragmentation).
    return IterationRecord(index=index, phase=phase, set_index=set_index, step_norm=step,
                           point=point.copy())


def _first_step(sets, l, x):
    """(p, d, ||d||) with p = P_l(x) and d = x - p."""
    p = sets[l].project(x)
    d = x - p
    return p, d, norm(d)


def _check(sets, x, l, skip, stop_tol):
    """(met, _first_step(sets, l, x)), with that step as x's residual to set l
    and set skip (None: none) not checked; ValueError names a non-finite one."""
    ahead = _first_step(sets, l, x)
    checked = [(l, ahead[2])] + [(j, s.residual(x)) for j, s in enumerate(sets)
                                 if j not in (l, skip)]
    for j, r in checked:
        if not math.isfinite(r):
            raise ValueError(f"set {j}: residual {r} is not finite")
    return max(r for _, r in checked) <= stop_tol, ahead


def _drive(sets, x0, stop, path, support=None, policy=None, lift=None) -> SolveResult:
    """The iteration loop of the three drivers.

    Iteration i (from 0) starts at set cycle[i % len(cycle)], where cycle
    is every set index in order, or every one but 0 under a lift.
    path(sets, l, p) gives the projections of an iteration from x, the
    first being p = P_l(x), as (phase, set index, point) triples; without
    support, their end is the next iterate.  support(x, path, d, step, i,
    warnings), with d = x - p and step = ||d||, gives the recorded
    hyperplane as a normal (None: the whole space) and a point on it, and
    the window correction of the path's end is the next iterate; its window
    and coefficients are only stored, for diagnostics.  lift is the set the
    start is first projected onto (set 0).  An empty family raises
    ValueError.  policy is the window policy of an accelerated run; every
    whole-space hyperplane of the run is one shared record.

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
    if not sets:
        raise ValueError("the family has no sets")
    start = as_point(x0).copy()
    cycle = range(int(lift is not None), len(sets))
    stop = stop or StoppingRule()
    if support is not None:
        buffer = HyperplaneBuffer(policy)
        whole = Hyperplane(np.zeros_like(start), 0.0)
    trace, warnings, selected_history, coefficients = [], [], [], []
    i = substeps = 0
    reason = "max-iter"
    x, ahead = start.copy(), None  # ahead: the next iteration's _first_step, from _check
    if lift is not None:
        substeps = 1
        try:
            lifted = lift.project(start)
            met, ahead = _check(sets, lifted, cycle[0], 0, stop.stop_tol)
        except InfeasibleSetError as e:
            warnings.append(f"starting lift: {e}")
            reason = "infeasible"
        else:
            x = lifted
            trace.append(_record(0, "m1-projection", 0, x, norm(x - start)))
            if met:
                reason = "residual-met"
    while reason == "max-iter" and substeps < stop.max_iter:
        l = cycle[i % len(cycle)]
        noted = len(warnings)
        try:
            p, d, step = ahead or _first_step(sets, l, x)
            steps = path(sets, l, p)
            records = [_record(i + 1, *steps[0], step)]
            records += [_record(i + 1, *b, norm(b[2] - a[2])) for a, b in zip(steps, steps[1:])]
            xn = end = steps[-1][2]
            if support is not None:
                normal, through = support(x, steps, d, step, i + 1, warnings)
                h = whole if normal is None else Hyperplane(normal, inner(normal, through))
                cur = buffer.append(h, l)
                xn, selected, lam = _correct(xn, buffer, cur, warnings)
            d = ahead = None  # kept alive through _check, d slowed pencil map_s by 11%
            met, ahead = _check(sets, xn, cycle[(i + 1) % len(cycle)],
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
            selected_history.append(selected)
            coefficients.append(lam)
            trace.append(_record(i, "hyperplane-projection", None, x, norm(x - end)))
        if met:
            reason = "residual-met"
    return SolveResult(solution=x, iterations=i, trace=trace,
                       converged=reason == "residual-met", stop_reason=reason, x0=start,
                       warnings=warnings,
                       # drops the hyperplane of an iteration that failed
                       generated=buffer.generated[:i] if support is not None else [],
                       selected_history=selected_history, coefficients=coefficients)


def _set_projection(sets, l, p):
    return [("set-projection", l, p)]


def _composite_projection(sets, l, p):
    return [("set-projection", l, p), ("m1-projection", 0, sets[0].project(p))]


# A displacement of at most ROUNDOFF_STEP * max(1, ||x||) is roundoff (such as
# a repeated projection onto a one-row set): as a live window row, its noise
# direction would pull the correction along C - C, away from P_C(x0).
ROUNDOFF_STEP = 64 * np.finfo(float).eps


def _displacement_hyperplane(x, path, d, step, i, warnings):
    return (d if step > ROUNDOFF_STEP * max(1.0, norm(x)) else None), path[0][2]


def _composite_hyperplane(x, path, d, step, i, warnings):
    xpp = path[1][2]
    a = x - xpp
    nn = norm(a)
    if nn <= TOL_LIN:
        # numerically a fixed point of the composite projection: no usable hyperplane
        warnings.append(f"iteration {i}: degenerate composite step "
                        f"(displacement {nn:.3e}), recorded whole-space hyperplane")
        return None, None
    t = inner(d, d) / inner(a, a)
    return a, x + t * (xpp - x)


def run_map(sets: Sequence[AffineSet], x0, stop: Optional[StoppingRule] = None) -> SolveResult:
    """Cyclic exact projections onto each set in turn."""
    return _drive(sets, x0, stop, _set_projection)


def run_alg1(sets: Sequence[AffineSet], x0, policy: WindowPolicy = All(),
             stop: Optional[StoppingRule] = None) -> SolveResult:
    """Projections with supporting-hyperplane corrections.

    Each iteration projects onto the next set in the cyclic order, records
    the hyperplane {x : <a, x> = <a, p>} with a = iterate - projection (the
    whole space when a is roundoff, see ROUNDOFF_STEP), and then projects
    onto the intersection of the selected window.  Every
    recorded hyperplane contains the full intersection, so the window
    intersection is feasible in exact arithmetic.
    """
    return _drive(sets, x0, stop, _set_projection, _displacement_hyperplane, policy)


def run_alg2(sets: Sequence[AffineSet], x0, policy: WindowPolicy = All(),
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
    return _drive(sets, x0, stop, _composite_projection, _composite_hyperplane,
                  policy, lift=sets[0])
