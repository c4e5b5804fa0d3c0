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
from dataclasses import dataclass, field
from numbers import Integral
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .diagnostics import IterationRecord
from .linalg import GramFactor, as_point, inner, norm
from .sets import (AffineSet, Hyperplane, InfeasibleIntersectionError,
                   InfeasibleSetError, _window_step)


@dataclass(frozen=True)
class LastQ:
    """Use the newest q hyperplanes: the current iteration's and the q - 1
    before it, or only those q - 1 when the iteration found none."""
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

    generated holds one (set index, hyperplane) record per hyperplane that
    an iteration found, in order; an iteration that found none records
    nothing, so a window is a range over generated.

    The normals and offsets are also copied into the rows of one array: a
    ring of q rows under LastQ(q) (entry j in row j % q), and under All() an
    array whose capacity doubles when full.  Each hyperplane adds its row
    and column of the Gram matrix of the stored rows with one mat-vec over
    them, O(q n).  Under LastQ the ring's Gram matrix is kept doubled, as
    2q x 2q slots with slot t on ring row t % q, so that the block of any
    window, in window order, is a view: slots s .. s + k - 1 with s the
    window's start mod q.  Each correction factors that block with one
    dpotrf and solves it with one dpotrs (GramFactor.of's full-rank case),
    with no copy, index array or factor bookkeeping of its own; a window
    whose factor leaves a row out takes the general rank rule.  A factor
    that slides (drops the oldest row, appends the newest) would cost
    more: an O(q^2) update in Python is slower than one dpotrf at q <= 5.
    Under All() every window is the previous one plus at most one row, so
    the new Gram column goes straight into the window's GramFactor, O(q^2),
    which is never refactored; the Gram matrix itself is not kept, because
    it would grow as the square of the window.
    """

    def __init__(self, policy: WindowPolicy):
        if not isinstance(policy, (LastQ, All)):
            raise TypeError(f"window policy must be LastQ(q) or All(), got {policy!r}")
        self.policy = policy
        self.generated: List[Tuple[int, Hyperplane]] = []
        self.ring = policy.q if isinstance(policy, LastQ) else None
        self.normals = self.offsets = self.gram = self.tiles = None  # allocated by the first entry
        self.factor = None if self.ring else GramFactor()
        self.slots = np.arange(2 * self.ring) % self.ring if self.ring else None

    def append(self, h: Hyperplane, set_index: int) -> None:
        """Record h, found by a projection onto set set_index."""
        m = len(self.generated)
        self.generated.append((set_index, h))
        if self.normals is None:
            cap = self.ring or 8
            self.normals = np.zeros((cap, h.dim))
            self.offsets = np.zeros(cap)
            if self.ring:
                self.tiles = np.zeros((2, cap, 2, cap))  # [a, i, b, j]: slots a q + i, b q + j
                self.gram = self.tiles.reshape(2 * cap, 2 * cap)
        elif m == len(self.normals) and not self.ring:
            self.normals = np.concatenate([self.normals, np.zeros_like(self.normals)])
            self.offsets = np.concatenate([self.offsets, np.zeros_like(self.offsets)])
        row = m % self.ring if self.ring else m
        filled = min(m + 1, len(self.normals))
        self.normals[row] = h.normal
        self.offsets[row] = h.offset
        g = self.normals[:filled] @ h.normal
        if self.ring:
            self.tiles[:, row, :, :filled] = g
            self.tiles[:, :filled, :, row] = g[:, None]
        else:
            self.factor.append(g)

    def select(self, recorded: bool) -> range:
        """The window of a correction, as a range over generated: the newest
        q entries under LastQ(q) when its iteration recorded a hyperplane
        (that one and the q - 1 before it), else the newest q - 1; every
        entry under All().  Repeated normals are kept: they make the
        window's Gram matrix singular, and the GramFactor leaves the
        repeats out.
        """
        stop = len(self.generated)
        if isinstance(self.policy, All):
            return range(0, stop)
        return range(max(0, stop - self.policy.q + (not recorded)), stop)

    def window(self, selected: range):
        """(normals, offsets, rows, factor) for the window `selected`: the
        stored rows, the rows of its entries in order (entry j in row j % q
        of the ring; None when they are all the stored rows in order, as
        under All()), and the GramFactor of those rows (under All() the one
        grown by append, under LastQ the ring's block factored afresh)."""
        if not selected:
            return None, None, np.arange(0), GramFactor()
        if not self.ring:
            return self.normals[:selected.stop], self.offsets[:selected.stop], None, self.factor
        s, k = selected.start % self.ring, len(selected)
        A = self.normals[:min(selected.stop, self.ring)]
        rows = None if s == 0 and k == len(A) else self.slots[s:s + k]
        return A, self.offsets[:len(A)], rows, GramFactor.of(self.gram[s:s + k, s:s + k])


@dataclass(frozen=True)
class StoppingRule:
    """Stop when every set residual is <= stop_tol, or at the first
    iteration boundary with at least max_iter projection sub-steps.
    The set that a projection just put the iterate in is not checked but
    counts as met, which matters only for a stop_tol below roundoff.

    An iteration is one sub-step under run_map, two under run_alg1 and
    three under run_alg2, whose starting lift counts as one more; so
    run_alg1 may make max_iter + 1 sub-steps and run_alg2 max_iter + 2.
    The residual to the next set in the fixed cyclic order is read off
    that set's projection, which the next iteration reuses.  The check
    reads that residual first, then the other sets' in index order, and
    stops at the first one above stop_tol, so an iterate it rejects on the
    next set costs no residual call.  Every set's residual is also read
    once at the starting point, so an inconsistent set, or one with a
    non-finite residual there, is reported before anything is recorded.
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
    """Under run_alg1 and run_alg2, generated holds the hyperplanes that the
    completed iterations found, and correction i used the window
    generated[selected_history[i]] with weights coefficients[i], one per
    entry (none after a fallback to no correction).  selected_history[i].stop
    counts the hyperplanes found through iteration i + 1.  solution is a
    writable copy; every trace point is read-only.
    diagnostics.step_decompositions rebuilds the decompositions of
    condition (B') from these fields.  repr leaves out the trace and these
    three: with them, an 87-iteration alg1 run in dim 400 printed 2.05 MB."""

    solution: np.ndarray
    iterations: int
    trace: List[IterationRecord] = field(repr=False)
    converged: bool
    stop_reason: str  # residual-met | max-iter | infeasible
    x0: np.ndarray
    warnings: List[str] = field(default_factory=list)
    generated: List[Tuple[int, Hyperplane]] = field(default_factory=list, repr=False)
    selected_history: List[range] = field(default_factory=list, repr=False)
    coefficients: List[np.ndarray] = field(default_factory=list, repr=False)

    def points(self) -> List[np.ndarray]:
        """Full interleaved point sequence, starting point first."""
        return [self.x0] + [r.point for r in self.trace]

    def step_norms(self) -> List[float]:
        """The length of each trace record's step: ||point - previous point||,
        with x0 before the first record."""
        pts = self.points()
        return [norm(b - a) for a, b in zip(pts, pts[1:])]


def _correct(x: np.ndarray, buffer: HyperplaneBuffer, recorded: bool, i: int,
             warnings: List[str]):
    """Hyperplane-window correction i, or none at all.

    Projects x onto the intersection of the window buffer.select(recorded),
    where recorded tells whether the iteration found a hyperplane, through
    the buffer's stored rows and Gram factor: O(q n) for
    the three mat-vecs of sets._window_step, plus O(q^2) under All() and
    one q x q factorization under LastQ.  Every recorded hyperplane contains
    the intersection of the sets, so the window is inconsistent only
    through roundoff or when the sets do not meet; then the correction is
    skipped with one warning, and x is returned unmoved.

    Returns (corrected point, the window, coefficients); see SolveResult.
    """
    selected = buffer.select(recorded)
    try:
        p, lam = _window_step(x, *buffer.window(selected))
    except InfeasibleIntersectionError:
        warnings.append(f"correction {i}: inconsistent intersection, "
                        "fell back to the uncorrected iterate")
        return x, selected, np.zeros(0)
    return p, selected, lam


def _record(index, phase, set_index, point):
    """The trace record of a sub-step, holding point itself, made read-only.

    No copy: a fresh process's n = 100 pencil alg1 solve (dim 40 000)
    reaches a max RSS of 287.3-287.4 MiB, against 288.0-288.2 MiB when each
    point was copied (three processes each)."""
    point.setflags(write=False)
    return IterationRecord(index=index, phase=phase, set_index=set_index, point=point)


def _first_step(sets, l, x):
    """(p, d, ||d||) with p = P_l(x) and d = x - p."""
    p = sets[l].project(x)
    d = x - p
    return p, d, norm(d)


def _finite(j, r):
    """r, the residual of set j; ValueError names the set when r is not finite."""
    if not math.isfinite(r):
        raise ValueError(f"set {j}: residual {r} is not finite")
    return r


def _check(sets, x, l, skip, stop_tol):
    """(met, _first_step(sets, l, x)), with that step as x's residual to set l.

    met is whether every residual checked is <= stop_tol.  The check stops
    at the first one that is not: the step to set l, then the residuals of
    the other sets in index order, set skip (None: none) left out."""
    ahead = _first_step(sets, l, x)
    met = _finite(l, ahead[2]) <= stop_tol and all(
        _finite(j, s.residual(x)) <= stop_tol for j, s in enumerate(sets) if j not in (l, skip))
    return met, ahead


def _drive(sets, x0, stop, path, support=None, policy=None, lift=None) -> SolveResult:
    """The iteration loop of the three drivers.

    Iteration i (from 0) starts at set cycle[i % len(cycle)], where cycle
    is every set index in order, or every one but 0 under a lift.
    path(sets, l, p) gives the projections of an iteration from x, the
    first being p = P_l(x), as (phase, set index, point) triples; without
    support, their end is the next iterate.  support(x, path, d), with
    d = x - p, gives the hyperplane of the step as a normal and an offset,
    recorded exactly when ||normal|| > ROUNDOFF_STEP ||x|| (else the
    iteration found none), and the window correction of the path's end is
    the next iterate; its window and coefficients are only stored, for
    diagnostics.  lift is the set the start is first projected onto (set 0).
    An empty family raises ValueError.  policy is the window policy of an
    accelerated run.

    Before the lift and the loop, each set's residual is read once at the
    start: InfeasibleSetError stops the run as infeasible with one warning,
    and a non-finite residual raises ValueError.  Each main iterate is
    then checked once, by _check, inside the iteration that made it (one
    that raises InfeasibleSetError records nothing).  The check makes the
    next iteration's first projection, skips the set a projection just put
    the iterate in, which counts as met, and reads a residual only up to
    the first one above stop_tol; so a residual that turns non-finite
    later raises only once a check reaches it.  A corrected iterate stays
    in the lift set only in exact arithmetic, so no set is skipped for
    it.  The last check's projection is dropped.

    The trace holds the points themselves, not copies: each projection,
    the lift and each corrected iterate (the uncorrected one after a
    fallback) is recorded as made, and _record makes it read-only, since
    no sub-step writes to a point once made.  The solution is copied once,
    at the end, so the caller owns a writable array.  x0 is the solver's
    own copy of the start; it stays writable unless a set's project
    returns it unchanged.
    """
    if not sets:
        raise ValueError("the family has no sets")
    start = as_point(x0).copy()
    cycle = range(int(lift is not None), len(sets))
    stop = stop or StoppingRule()
    if support is not None:
        buffer = HyperplaneBuffer(policy)
    trace, warnings, selected_history, coefficients = [], [], [], []
    i = substeps = 0
    reason = "max-iter"
    x, ahead = start, None  # ahead: the next iteration's _first_step, from _check
    try:
        for j, s in enumerate(sets):
            _finite(j, s.residual(start))
    except InfeasibleSetError as e:
        warnings.append(f"start point, set {j}: {e}")
        reason = "infeasible"
    if lift is not None and reason == "max-iter":
        substeps = 1
        try:
            lifted = lift.project(start)
            met, ahead = _check(sets, lifted, cycle[0], 0, stop.stop_tol)
        except InfeasibleSetError as e:
            warnings.append(f"starting lift: {e}")
            reason = "infeasible"
        else:
            x = lifted
            trace.append(_record(0, "m1-projection", 0, x))
            if met:
                reason = "residual-met"
    while reason == "max-iter" and substeps < stop.max_iter:
        l = cycle[i % len(cycle)]
        noted = len(warnings)
        try:
            p, d, dn = ahead or _first_step(sets, l, x)
            steps = path(sets, l, p)
            records = [_record(i + 1, *s) for s in steps]
            xn = steps[-1][2]
            if support is not None:
                normal, offset = support(x, steps, d)
                found = (dn if normal is d else norm(normal)) > ROUNDOFF_STEP * norm(x)
                if found:
                    buffer.append(Hyperplane(normal, offset), l)
                xn, selected, lam = _correct(xn, buffer, found, i, warnings)
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
            trace.append(_record(i, "hyperplane-projection", None, x))
        if met:
            reason = "residual-met"
    return SolveResult(solution=x.copy(), iterations=i, trace=trace,
                       converged=reason == "residual-met", stop_reason=reason, x0=start,
                       warnings=warnings,
                       # drops the hyperplane of an iteration that failed
                       generated=(buffer.generated[:selected_history[-1].stop]
                                  if selected_history else []),
                       selected_history=selected_history, coefficients=coefficients)


def _set_projection(sets, l, p):
    return [("set-projection", l, p)]


def _composite_projection(sets, l, p):
    return [("set-projection", l, p), ("m1-projection", 0, sets[0].project(p))]


# A normal of at most ROUNDOFF_STEP * ||x|| is roundoff (such as a repeated
# projection onto a one-row set): as a window row, its noise direction would
# pull the correction along C - C, away from P_C(x0).  The rule has no unit,
# so it decides each step of a problem scaled by a power of two as at scale 1.
ROUNDOFF_STEP = 64 * np.finfo(float).eps


def _displacement_hyperplane(x, path, d):
    return d, inner(d, path[0][2])


def _composite_hyperplane(x, path, d):
    # offset <a, x + t (x'' - x)> with t = ||d||^2 / ||a||^2, without dividing
    a = x - path[1][2]
    return a, inner(a, x) - inner(d, d)


def run_map(sets: Sequence[AffineSet], x0, stop: Optional[StoppingRule] = None) -> SolveResult:
    """Cyclic exact projections onto each set in turn."""
    return _drive(sets, x0, stop, _set_projection)


def run_alg1(sets: Sequence[AffineSet], x0, policy: WindowPolicy = All(),
             stop: Optional[StoppingRule] = None) -> SolveResult:
    """Projections with supporting-hyperplane corrections.

    Each iteration projects onto the next set in the cyclic order, records
    the hyperplane {x : <a, x> = <a, p>} with a = iterate - projection (none
    when a is roundoff, see ROUNDOFF_STEP), and then projects onto the
    intersection of the selected window.  Every
    recorded hyperplane contains the full intersection, so the window
    intersection is feasible in exact arithmetic.
    """
    return _drive(sets, x0, stop, _set_projection, _displacement_hyperplane, policy)


def run_alg2(sets: Sequence[AffineSet], x0, policy: WindowPolicy = All(),
             stop: Optional[StoppingRule] = None) -> SolveResult:
    """Accelerated projections that keep every main iterate in sets[0].

    The starting point is first lifted into the easy set.  An iteration
    at x does x' = P_l(x), x'' = P_0(x'), then records the hyperplane
    with normal a = x - x'' (none when a is roundoff) passing through
    x + (||x - x'||^2 / ||x - x''||^2) (x'' - x), which contains the
    whole intersection and whose normal is a direction of the easy set.
    The correction therefore never leaves the easy set.
    """
    if len(sets) < 2:
        raise ValueError("need at least two sets (an easy set plus one more)")
    return _drive(sets, x0, stop, _composite_projection, _composite_hyperplane,
                  policy, lift=sets[0])
