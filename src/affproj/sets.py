"""Closed affine subspaces and their exact projectors.

Three concrete descriptors are provided: a single hyperplane
{x : <a, x> = b}, a row-constraint set {x : C x = d}, and a custom set
defined by a user-supplied exact projector.  A hyperplane with zero
normal stands for the whole space (its membership residual is
identically zero), which is how a projection step that did not move
records "no information".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import RCOND, TOL_FEAS, as_matrix, as_point, gram_solve, norm
# This module does not call lstsq_min_norm, but perfbench/spans.py wraps
# affproj.sets.lstsq_min_norm for its per-layer split, so the name stays here.
from .linalg import lstsq_min_norm  # noqa: F401


class InfeasibleSetError(RuntimeError):
    """The constraint system defining a set admits no solution."""


class InfeasibleIntersectionError(RuntimeError):
    """A family of hyperplanes has empty intersection (numerically)."""


@dataclass(frozen=True)
class Hyperplane:
    """{x : <normal, x> = offset}; zero normal encodes the whole space."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_point(self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        if not np.isfinite(self.offset):
            raise ValueError("offset is not finite")
        if not np.any(self.normal) and self.offset != 0.0:
            raise ValueError("zero normal requires zero offset (whole space)")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def is_whole_space(self) -> bool:
        return not np.any(self.normal)


def project_hyperplane(x, h: Hyperplane) -> np.ndarray:
    """Exact projection onto a hyperplane; identity when the normal is zero."""
    x = as_point(x)
    a = h.normal
    if x.shape != a.shape:
        raise ValueError(f"dimension mismatch: point {x.shape} vs normal {a.shape}")
    nn = float(np.dot(a, a))
    if nn == 0.0:
        return x.copy()
    return x + ((h.offset - float(np.dot(a, x))) / nn) * a


def project_row_constraint(x, C, d) -> np.ndarray:
    """Exact projection onto {x : C x = d}; see RowConstraintSet.

    Raises ValueError on dimension mismatches and InfeasibleSetError when
    the system is inconsistent.
    """
    return RowConstraintSet(C, d).project(x)


def _intersection_step(x: np.ndarray, hyperplanes: Sequence[Hyperplane]):
    """Project onto the intersection of hyperplanes.

    Returns (projected point, kept positions, coefficients) where kept
    lists the positions of the nonzero-normal hyperplanes actually used
    and coefficients are their combination weights, so callers can
    attribute the correction sum(lam_j * a_j) term by term.
    """
    kept = [j for j, h in enumerate(hyperplanes) if not h.is_whole_space()]
    if not kept:
        return x.copy(), kept, np.zeros(0)
    normals = [hyperplanes[j].normal for j in kept]
    resid = np.array([hyperplanes[j].offset - float(np.dot(hyperplanes[j].normal, x)) for j in kept])
    lam = gram_solve(normals, resid)
    p = x + np.vstack(normals).T @ lam
    worst = max(abs(hyperplanes[j].offset - float(np.dot(hyperplanes[j].normal, p))) for j in kept)
    scale = max(1.0, max(abs(hyperplanes[j].offset) for j in kept))
    if worst > TOL_FEAS * scale:
        raise InfeasibleIntersectionError(
            f"hyperplane family is inconsistent (residual {worst:.3e})")
    return p, kept, lam


def project_hyperplane_intersection(x, hyperplanes: Sequence[Hyperplane]) -> np.ndarray:
    """Exact projection onto the intersection of a hyperplane family.

    Zero-normal (whole space) members are skipped.  The correction is
    sum(lam_j * a_j) with lam from the min-norm Gram solve, so redundant
    families behave like their independent subfamily.
    """
    x = as_point(x)
    for h in hyperplanes:
        if h.dim != x.shape[0]:
            raise ValueError("hyperplane dimension mismatch")
    p, _, _ = _intersection_step(x, hyperplanes)
    return p


class AffineSet:
    """A closed affine subspace with an exact projection.

    Subclasses implement project(); residual() is the distance
    ||x - project(x)||.  Sets that can be written as {x : C x = d}
    also implement rows() for the direct stacked-system oracle.
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


class HyperplaneSet(AffineSet):
    def __init__(self, h: Hyperplane):
        self.h = h
        self.dim = h.dim

    def project(self, x):
        return project_hyperplane(x, self.h)

    def rows(self):
        if self.h.is_whole_space():
            return np.zeros((0, self.dim)), np.zeros(0)
        return self.h.normal.reshape(1, -1), np.array([self.h.offset])


class RowConstraintSet(AffineSet):
    """{x : C x = d}.

    The first projection or residual factors the Gram matrix
    G = C C^T as G+ = B B^T (eigenvectors over square roots of the
    eigenvalues above the RCOND cutoff, the rank rule of lstsq_min_norm)
    and keeps B, so each later call costs a few mat-vecs: with
    r = C x - d, P(x) = x - C^T B B^T r and the distance is ||B^T r||.
    Applying B twice keeps the projection within the roundoff of a fresh
    least-squares solve; an explicit G+ loses up to two more digits on
    nearly square C.  C and d are not copied and must not be mutated
    after the first call.

    Consistency is checked once, with the factor: C x = d is solvable
    exactly when d lies in range(G), and every call raises
    InfeasibleSetError when it does not.
    """

    def __init__(self, C, d):
        self.C = as_matrix(C)
        self.d = as_point(d)
        if self.C.shape[0] != self.d.shape[0]:
            raise ValueError(f"dimension mismatch: {self.C.shape[0]} rows vs rhs of dim "
                             f"{self.d.shape[0]}")
        self.dim = self.C.shape[1]
        self._half_pinv = None

    def _factor(self) -> np.ndarray:
        if self._half_pinv is None:
            w, Q = np.linalg.eigh(self.C @ self.C.T)
            keep = w > RCOND * w.max(initial=0.0)
            Q = Q[:, keep]
            if norm(self.d - Q @ (Q.T @ self.d)) > TOL_FEAS * max(1.0, norm(self.d)):
                raise InfeasibleSetError("row system C x = d is inconsistent")
            self._half_pinv = Q / np.sqrt(w[keep])
        return self._half_pinv

    def _scaled_gap(self, x):
        """(x, B^T (C x - d)) with x checked against the dimension."""
        B = self._factor()
        x = as_point(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} columns vs point of dim "
                             f"{x.shape[0]}")
        return x, B.T @ (self.C @ x - self.d)

    def project(self, x):
        x, y = self._scaled_gap(x)
        return x - self.C.T @ (self._half_pinv @ y)

    def residual(self, x) -> float:
        return norm(self._scaled_gap(x)[1])

    def rows(self):
        return self.C, self.d


class CustomSet(AffineSet):
    """Affine set given by an exact projector callable.

    residual_fn may override the default distance computation (it must
    still return ||x - project(x)||, just computed more cheaply), and
    rows_fn may supply a row-constraint export for the oracle.
    """

    def __init__(self, dim: int, projector: Callable[[np.ndarray], np.ndarray],
                 residual_fn: Optional[Callable[[np.ndarray], float]] = None,
                 rows_fn: Optional[Callable[[], tuple]] = None):
        self.dim = int(dim)
        self._projector = projector
        self._residual_fn = residual_fn
        self._rows_fn = rows_fn

    def project(self, x):
        return self._projector(as_point(x))

    def residual(self, x) -> float:
        if self._residual_fn is not None:
            return float(self._residual_fn(as_point(x)))
        return super().residual(x)

    def rows(self):
        if self._rows_fn is None:
            return None
        return self._rows_fn()


def residual(s: AffineSet, x) -> float:
    """Distance from x to the set, ||x - P(x)||."""
    return s.residual(x)
