"""Closed affine subspaces and their exact projectors.

Every set is an AffineSet: a Hyperplane {x : <a, x> = b}, which is also
what the accelerated solvers record, a row-constraint set {x : C x = d},
or any other subclass that implements an exact project() (mmup's S and V
are two).  A hyperplane's normal is never zero: a projection step that
identifies no hyperplane records none.  A row-constraint set and the
oracle factor {x : C x = d} alike (_unit_row_factor): one GramFactor of
the unit-row Gram matrix, whose rank rule leaves dependent rows out, with
the Gram matrix formed from C in CSR form when C is sparse, and the
factor of its leading mutually orthogonal rows kept as a diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

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
        a scipy.sparse matrix (mmup's S exports CSR), d is a dense vector."""
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


# The size and density cuts of _unit_row_factor's sparse path; its
# docstring gives the measured crossover.
SPARSE_MIN_ENTRIES = 1 << 20
SPARSE_MAX_DENSITY = 0.01


def _sparse_copy(C: np.ndarray):
    """A CSR copy of a dense C when C is large and sparse (see
    _unit_row_factor), else None.  A small C is not scanned; a large one is
    scanned once, into a mask of its nonzeros."""
    if C.size < SPARSE_MIN_ENTRIES:
        return None
    mask = C != 0
    if np.count_nonzero(mask) > SPARSE_MAX_DENSITY * C.size:
        return None
    # imported here, since importing scipy.sparse adds 1.7 MB to the peak
    # memory of a process whose stacks are all dense
    from scipy.sparse import csr_matrix
    m, n = C.shape
    flat = np.flatnonzero(mask)
    indptr = np.searchsorted(flat, np.arange(0, m * n + 1, n))
    return csr_matrix((C[mask], flat % n, indptr), shape=C.shape)


def _is_sparse(C) -> bool:
    """Whether C is a scipy.sparse matrix; a numpy array does not import
    scipy.sparse to tell."""
    if isinstance(C, np.ndarray):
        return False
    from scipy.sparse import issparse
    return issparse(C)


def _unit_row_factor(C, d: np.ndarray):
    """(A, s, factor): A is C, or a CSR form of it (see below), for the
    caller's products with C; s_i = 1 / ||c_i|| scales the rows of C to
    unit length (a zero row keeps 1); factor is the GramFactor of
    S C C^T S, S = diag(s).  When the factor leaves a row out, raises
    InfeasibleSetError if the least-norm point C^T S lam,
    lam = factor.solve(S d), misses S C x = S d, the rows left out
    included, by more than TOL_FEAS * max(1, ||S d||); that miss is
    ||G lam - S d||, G = S C C^T S, so no product with C.  When the factor
    keeps every row, C has full row rank and C x = d has a solution for
    every d, so there is nothing to check and no solve is made.

    C C^T is formed one of two ways.  A scipy.sparse C (the pencil stacks,
    whose S export is CSR) is used as a CSR matrix A directly, and so is
    the CSR copy of a dense C with at least SPARSE_MIN_ENTRIES (2^20)
    entries of which at most SPARSE_MAX_DENSITY (1%) are nonzero.  Every
    other C takes the dense C @ C.T, and a smaller one is not scanned: on
    a row family's 160 x 400 stack, masking and counting its nonzeros
    takes 19 us, against 0.24 ms for C @ C.T in an oracle call of about
    0.65 ms.  The crossover was measured on uniform random patterns in
    1024 x 1024, 1240 x 1600, 600 x 2048, 2048 x 600 and 2700 x 3600
    stacks (one thread): the CSR product broke even at 2.5-4% nonzero and
    was 4-6x faster at 1%.  The two products sum in another order, so
    their factors differ by roundoff.

    On the CSR path the Gram matrix stays CSR: it is scaled entry by
    stored entry, and its structure gives h, the number of leading rows of
    nonzero length with no stored entry left of the diagonal, mutually
    orthogonal rows.  GramFactor.of(G, h) reads only G's diagonal and its
    rows h: (made dense there), keeps the first h rows' factor as a
    diagonal, and the consistency check is a sparse mat-vec with G.  On
    the n = 20 pencil chain that is S's 1 180 rows of 1 240, on experiment
    2 2 670 of 2 700, so no k x k array is made.  A dense C keeps h = 0,
    one dpotrf on the whole G.
    """
    A = C.tocsr() if _is_sparse(C) else _sparse_copy(C)
    G = C @ C.T if A is None else A @ A.T
    lengths = np.sqrt(G.diagonal())
    s = 1.0 / np.where(lengths > 0.0, lengths, 1.0)
    if A is None:
        A, h = C, 0
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
    return A, s, factor


class RowConstraintSet(AffineSet):
    """{x : C x = d}.

    The first projection or residual factors the system as the oracle
    does (_unit_row_factor, under GramFactor's rank rule), L L^T on the
    kept rows, and keeps B = S L^-T there (one triangular inverse,
    dtrtri, of the whole dense L, which a factor with a diagonal block
    assembles for it) with zero rows for the rows left out.  Each later call costs
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
            _, s, factor = _unit_row_factor(self.C, self.d)
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
