"""Closed affine subspaces and their exact projectors.

Every set is an AffineSet: a Hyperplane {x : <a, x> = b}, which is also
what the accelerated solvers record, a row-constraint set {x : C x = d},
or any other subclass that implements an exact project() (mmup's S and V
are two).  A hyperplane's normal is never zero: a projection step that
identifies no hyperplane records none.  A row-constraint set and the
oracle factor {x : C x = d} alike (_unit_row_factor): one GramFactor of
the unit-row Gram matrix, whose rank rule leaves dependent rows out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .linalg import TOL_FEAS, GramFactor, as_matrix, as_point, gram_solve, norm
# This module does not call lstsq_min_norm, but perfbench/spans.py wraps
# affproj.sets.lstsq_min_norm for its per-layer split, so the name stays here.
from .linalg import lstsq_min_norm  # noqa: F401


class InfeasibleSetError(RuntimeError):
    """The constraint system defining a set admits no solution."""


class InfeasibleIntersectionError(RuntimeError):
    """A family of hyperplanes has empty intersection (numerically)."""


class AffineSet:
    """A closed affine subspace with an exact projection.

    Subclasses set dim and implement project().  residual() is the
    distance ||x - project(x)||; a subclass may override it with a closed
    form that costs less than a projection.  Sets that can be written as
    {x : C x = d} also implement rows(), returning the pair (C, d), for
    the direct stacked-system oracle.
    """

    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def residual(self, x) -> float:
        x = as_point(x)
        return norm(x - self.project(x))

    def rows(self):
        """Row-constraint form (C, d), or None when unavailable."""
        return None


@dataclass(frozen=True, eq=False)
class Hyperplane(AffineSet):
    """The single-equation set {x : <normal, x> = offset}, with a nonzero
    normal; a zero one raises ValueError.  Like every set, a hyperplane
    compares and hashes by identity."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", a := as_point(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not math.isfinite(self.offset):
            raise ValueError("offset is not finite")
        if not a.dot(a) and not a.any():  # a.a underflows to 0 for a 1e-200 normal
            raise ValueError("the normal of a hyperplane must not be zero")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def project(self, x) -> np.ndarray:
        x = as_point(x)
        a = self.normal
        if x.shape != a.shape:
            raise ValueError(f"dimension mismatch: point {x.shape} vs normal {a.shape}")
        return x + ((self.offset - float(np.dot(a, x))) / float(np.dot(a, a))) * a

    def rows(self):
        return self.normal.reshape(1, -1), np.array([self.offset])


def _window_step(x: np.ndarray, A: np.ndarray, b: np.ndarray, rows, factor: GramFactor):
    """Project x onto {y : <a_j, y> = b_j for j in rows}, the rows of A
    (normals) and b (offsets) listed by rows, given the GramFactor of those
    rows in that order.

    Three mat-vecs over A (the residual b - A x, the correction A^T lam and
    the feasibility check) and one factor solve, which goes through
    gram_solve.  Returns (projected point, coefficients), one lam_j per
    listed row, so callers can attribute the correction sum(lam_j * a_j)
    term by term.  Raises InfeasibleIntersectionError when a listed row is
    missed by more than TOL_FEAS * max(1, max |b_j|).
    """
    if not len(rows):
        return x.copy(), np.zeros(0)
    lam = gram_solve(factor, (b - A @ x)[rows])
    weights = np.zeros(A.shape[0])
    weights[rows] = lam
    p = weights @ A
    p += x
    worst = np.abs((b - A @ p)[rows]).max()
    if worst > TOL_FEAS * max(1.0, np.abs(b[rows]).max()):
        raise InfeasibleIntersectionError(
            f"hyperplane family is inconsistent (residual {worst:.3e})")
    return p, lam


def project_hyperplane_intersection(x, hyperplanes: Sequence[Hyperplane]) -> np.ndarray:
    """Exact projection onto the intersection of a hyperplane family.

    The correction is sum(lam_j * a_j) with lam from a GramFactor of the
    family, so a redundant family behaves like its independent subfamily;
    an empty family is the whole space.
    """
    x = as_point(x)
    for h in hyperplanes:
        if h.dim != x.shape[0]:
            raise ValueError("hyperplane dimension mismatch")
    if not hyperplanes:
        return x.copy()
    A = np.vstack([h.normal for h in hyperplanes])
    b = np.array([h.offset for h in hyperplanes])
    return _window_step(x, A, b, np.arange(len(A)), GramFactor.of(A @ A.T))[0]


def _unit_row_factor(C: np.ndarray, d: np.ndarray):
    """(s, factor): s_i = 1 / ||c_i|| scales the rows of C to unit length
    (a zero row keeps 1), and factor is the GramFactor of S C C^T S,
    S = diag(s).  When the factor leaves a row out, raises
    InfeasibleSetError if the least-norm point C^T S lam,
    lam = factor.solve(S d), misses S C x = S d, the rows left out
    included, by more than TOL_FEAS * max(1, ||S d||); that miss is
    ||G lam - S d||, G = S C C^T S, so no product with C.  When the factor
    keeps every row, C has full row rank and C x = d has a solution for
    every d, so there is nothing to check and no solve is made.
    """
    G = C @ C.T
    lengths = np.sqrt(np.diag(G))
    s = 1.0 / np.where(lengths > 0.0, lengths, 1.0)
    G *= s[:, None]
    G *= s
    factor = GramFactor.of(G)
    sd = s * d
    if factor.rank < factor.size and (
            norm(G @ factor.solve(sd) - sd) > TOL_FEAS * max(1.0, norm(sd))):
        raise InfeasibleSetError("row system C x = d is inconsistent")
    return s, factor


class RowConstraintSet(AffineSet):
    """{x : C x = d}.

    The first projection or residual factors the system as the oracle
    does (_unit_row_factor, under GramFactor's rank rule), L L^T on the
    kept rows, and keeps B = S L^-T there (one triangular inverse,
    dtrtri) with zero rows for the rows left out.  Each later call costs
    a few mat-vecs: with r = C x - d, P(x) = x - C^T B B^T r and the
    distance is ||B^T r||.  C and d are not copied and must not be
    mutated after the first call.  When the system is inconsistent,
    every call raises InfeasibleSetError.
    """

    def __init__(self, C, d):
        self.C = as_matrix(C)
        self.d = as_point(d)
        if self.C.shape[0] != self.d.shape[0]:
            raise ValueError(f"dimension mismatch: {self.C.shape[0]} rows vs rhs of dim "
                             f"{self.d.shape[0]}")
        self.dim = self.C.shape[1]
        self._half_pinv = None

    def _scaled_gap(self, x):
        """(x, B^T (C x - d)) with x checked against the dimension."""
        if self._half_pinv is None:
            s, factor = _unit_row_factor(self.C, self.d)
            r, kept = factor.rank, factor.kept[:factor.rank]
            B = np.zeros((self.C.shape[0], r))
            if r:  # dtrtri rejects an empty matrix
                B[kept] = s[kept, None] * lapack.dtrtri(factor.L[:r, :r], lower=1)[0].T
            self._half_pinv = B
        x = as_point(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} columns vs point of dim "
                             f"{x.shape[0]}")
        return x, self._half_pinv.T @ (self.C @ x - self.d)

    def project(self, x):
        x, y = self._scaled_gap(x)
        return x - self.C.T @ (self._half_pinv @ y)

    def residual(self, x) -> float:
        return norm(self._scaled_gap(x)[1])

    def rows(self):
        return self.C, self.d
