"""Closed affine subspaces and their exact projectors.

Every set is an AffineSet: a Hyperplane {x : <a, x> = b}, which is also
what the accelerated solvers record, a row-constraint set {x : C x = d},
or any other subclass that implements an exact project() (mmup's S and V
are two).  A hyperplane's normal is never zero: a projection step that
identifies no hyperplane records none.  A row-constraint set and the
oracle take C dense or CSR, checked finite (_row_matrix), and factor
{x : C x = d} alike (_unit_row_factor): one GramFactor of the unit-row
Gram matrix C C^T, whose rank rule leaves dependent rows out.  A CSR C
keeps its Gram matrix CSR, and the factor of its leading mutually
orthogonal rows is kept as a diagonal.  A dense row set turns its factor
into an orthonormal basis of its row space; a CSR one projects through
the factor's solve, as the oracle does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .linalg import (TOL_FEAS, GramFactor, _check_finite, as_matrix, as_point, gram_solve,
                     norm)
# This module does not call lstsq_min_norm, but perfbench/spans.py wraps
# affproj.sets.lstsq_min_norm for its per-layer split, so the name stays here.
from .linalg import lstsq_min_norm  # noqa: F401


class InfeasibleSetError(RuntimeError):
    """The constraint system defining a set admits no solution."""


class InfeasibleIntersectionError(RuntimeError):
    """A family of hyperplanes has empty intersection (numerically)."""


class AffineSet:
    """A closed affine subspace with an exact projection.

    Subclasses set dim and implement project(), which returns a new array
    (or its argument), never writes into its argument, and never returns a
    buffer that a later call reuses: the solvers keep what it returns in
    their traces, read-only, without copying it.  residual() is the
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
        """Row-constraint form (C, d), or None when unavailable.  C may be
        a scipy.sparse matrix (mmup's S and V export CSR), d is a dense
        vector."""
        return None


@dataclass(frozen=True, eq=False)
class Hyperplane(AffineSet):
    """The single-equation set {x : <normal, x> = offset}, with a nonzero
    normal; a zero one raises ValueError.  Like every set, a hyperplane
    compares and hashes by identity."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        a = np.asarray(self.normal, dtype=float).reshape(-1)
        square = _check_finite(a, "point")  # a.a, the one dot of as_point's check
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "offset", float(self.offset))
        if not math.isfinite(self.offset):
            raise ValueError("offset is not finite")
        if not square and not a.any():  # a.a underflows to 0 for a 1e-200 normal
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
    (normals) and b (offsets) listed by rows, distinct row indices or None
    for every row of A in order, given the GramFactor of those rows in that
    order.

    Three mat-vecs over A (the residual b - A x, the correction A^T lam and
    the feasibility check) and one factor solve, which goes through
    gram_solve.  Returns (projected point, coefficients), one lam_j per
    listed row, so callers can attribute the correction sum(lam_j * a_j)
    term by term; x itself, not a copy, when rows is empty.  Raises
    InfeasibleIntersectionError when a listed row is
    missed by more than TOL_FEAS * max(1, max |b_j|).  The rows are picked
    out only where that can change a result: not for rows None, nor for
    the worst miss when rows lists every row of A; and max |b_j| is read
    only when the worst miss is above TOL_FEAS.
    """
    if rows is None:
        lam = gram_solve(factor, b - A @ x)
        p = lam @ A
    elif not len(rows):
        return x, np.zeros(0)
    else:
        lam = gram_solve(factor, (b - A @ x)[rows])
        weights = np.zeros(A.shape[0])
        weights[rows] = lam
        p = weights @ A
    p += x
    miss = np.abs(b - A @ p)
    worst = (miss if rows is None or len(rows) == len(A) else miss[rows]).max()
    if worst > TOL_FEAS and worst > TOL_FEAS * max(
            1.0, np.abs(b if rows is None else b[rows]).max()):
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
    return _window_step(x, A, b, None, GramFactor.of(A @ A.T))[0]


def _is_sparse(C) -> bool:
    """Whether C is a scipy.sparse matrix; a numpy array does not import
    scipy.sparse to tell."""
    if isinstance(C, np.ndarray):
        return False
    from scipy.sparse import issparse
    return issparse(C)


def _row_matrix(C):
    """C as a float64 matrix checked finite: a scipy.sparse C in CSR form,
    its stored entries checked by one dot product, any other C through
    as_matrix, which a numpy array or a list reaches without importing
    scipy.sparse."""
    if isinstance(C, (np.ndarray, list)) or not _is_sparse(C):
        return as_matrix(C)
    C = C.tocsr().astype(float, copy=False)
    _check_finite(C.data, "matrix")
    return C


def _unit_row_factor(C, d: np.ndarray):
    """(s, factor) for C as _row_matrix returns it, dense or CSR:
    s_i = 1 / ||c_i|| scales the rows of C to unit length (a zero row
    keeps 1); factor is the GramFactor of S C C^T S, S = diag(s).  When the
    factor leaves a row out, raises InfeasibleSetError if the least-norm
    point C^T S lam, lam = factor.solve(S d), misses S C x = S d, the rows
    left out included, by more than TOL_FEAS * max(1, ||S d||); that miss
    is ||G lam - S d||, G = S C C^T S, so no product with C.  When the
    factor keeps every row, C has full row rank and C x = d has a solution
    for every d, so there is nothing to check and no solve is made.

    The Gram matrix is C @ C.T, in C's own form.  A dense C keeps h = 0,
    one dpotrf on the whole G.  A CSR C (the pencil stacks, whose S and V
    exports are CSR) gives a CSR G: it is scaled entry by stored entry, and
    its structure gives h, the number of leading rows of nonzero length
    with no stored entry left of the diagonal, mutually orthogonal rows.
    GramFactor.of(G, h) reads only G's diagonal and its rows h: (made dense
    there), keeps the first h rows' factor as a diagonal, and the
    consistency check is a sparse mat-vec with G.  On the n = 20 pencil
    chain that is S's 1 180 rows of 1 240, on experiment 2 2 670 of 2 700,
    so no k x k array is made.
    """
    G = C @ C.T
    lengths = np.sqrt(G.diagonal())
    s = 1.0 / np.where(lengths > 0.0, lengths, 1.0)
    if isinstance(C, np.ndarray):
        h = 0
        G *= s[:, None]
        G *= s
    else:
        rows = np.repeat(np.arange(len(s)), np.diff(G.indptr))
        G.data *= s[rows]
        G.data *= s[G.indices]
        prefix = lengths > 0.0
        prefix[rows[G.indices < rows]] = False
        h = len(s) if prefix.all() else int(np.argmin(prefix))
    factor = GramFactor.of(G, h)
    sd = s * d
    if factor.rank < factor.size and (
            norm(G @ factor.solve(sd) - sd) > TOL_FEAS * max(1.0, norm(sd))):
        raise InfeasibleSetError("row system C x = d is inconsistent")
    return s, factor


class RowConstraintSet(AffineSet):
    """{x : C x = d}, with C dense or scipy.sparse; a sparse C is kept in
    CSR form and its products with points are sparse.

    The first projection or residual factors the system as the oracle
    does (_unit_row_factor, under GramFactor's rank rule): L L^T on the
    kept rows of the unit-row Gram matrix S C C^T S.  For a dense C it then
    keeps U = L^-1 (S C)[kept] and u = L^-1 (S d)[kept], two triangular
    solves: U's rows are an orthonormal basis of C's row space (Golub & Van
    Loan, Matrix Computations, 5.2), so P(x) = x - U^T (U x - u) and the
    distance is ||U x - u||, two mat-vecs and one.  A CSR C projects as
    the oracle does, x - C^T S lam with lam = factor.solve(S (C x - d)),
    so no dense k x k or k x dim array is made.  C and d are not copied
    and must not be mutated after the first call.  When the system is
    inconsistent, every call raises InfeasibleSetError.
    """

    def __init__(self, C, d):
        self.C = _row_matrix(C)
        self.d = as_point(d, "right-hand side d")
        if self.C.shape[0] != self.d.shape[0]:
            raise ValueError(f"dimension mismatch: {self.C.shape[0]} rows vs rhs of dim "
                             f"{self.d.shape[0]}")
        self.dim = self.C.shape[1]
        self._basis = None

    def _gap(self, x):
        """(x, y) with x checked against the dimension: y = U x - u for a
        dense C, and for a CSR C the coefficients S lam of the correction
        C^T S lam."""
        if self._basis is None:
            s, factor = _unit_row_factor(self.C, self.d)
            if isinstance(self.C, np.ndarray):
                kept = factor.kept[:factor.rank]
                L = factor.L[:factor.rank, :factor.rank]
                U = solve_triangular(L, s[kept, None] * self.C[kept], lower=True)
                # C order, so both mat-vecs read U by rows
                self._basis = (np.ascontiguousarray(U),
                               solve_triangular(L, s[kept] * self.d[kept], lower=True))
            else:
                self._basis = s, factor
        x = as_point(x)
        if x.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} columns vs point of dim "
                             f"{x.shape[0]}")
        if isinstance(self.C, np.ndarray):
            U, u = self._basis
            return x, U @ x - u
        s, factor = self._basis
        return x, s * gram_solve(factor, s * (self.C @ x - self.d))

    def project(self, x):
        x, y = self._gap(x)
        if isinstance(self.C, np.ndarray):
            return x - y @ self._basis[0]
        return x - self.C.T @ y

    def residual(self, x) -> float:
        x, y = self._gap(x)
        return norm(y if isinstance(self.C, np.ndarray) else self.C.T @ y)

    def rows(self):
        return self.C, self.d
