"""Dense real linear algebra primitives shared by the projection solvers.

Vectors ("points") are 1-d float64 numpy arrays; matrices are 2-d float64
arrays.  Matrices treated as points of the ambient space are flattened
row-major, so the flattened dot product is the Frobenius inner product.

Every point and matrix a set or solver takes is checked for NaN and
infinite entries (as_point, as_matrix) on every call, at the cost of one
BLAS dot product: v.v is finite only if every entry of v is, since it is a
sum of non-negative squares, so no inf - inf can cancel and a NaN carries
through.  Only when v.v is not finite does a full scan decide, for finite
entries whose squares overflow (about 1.3e154 and up; numpy then also
warns of the overflow).  norm and inner call ndarray.dot directly, the
BLAS call that np.linalg.norm and np.dot make, without their Python-level
wrappers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

# Absolute displacement at or below which alg2 treats a composite step as
# degenerate and records no hyperplane for it.
TOL_LIN = 1e-10

# Absolute residual above which a constraint system is declared
# infeasible rather than noisy.
TOL_FEAS = 1e-8

# Relative rank cutoff: singular values below RCOND * sigma_max are
# treated as zero in every least-squares solve.
RCOND = 1e-12


def _check_finite(v: np.ndarray, what: str) -> np.ndarray:
    """v, or ValueError naming what when an entry of v is NaN or infinite:
    one dot product, and a full scan only when that dot is not finite."""
    flat = v.ravel(order="K")
    if not math.isfinite(flat.dot(flat)) and not np.isfinite(flat).all():
        raise ValueError(f"{what} contains non-finite entries")
    return v


def as_point(x) -> np.ndarray:
    """Coerce to a 1-d float64 vector, checked finite by one dot product
    (see the module docstring)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    return _check_finite(v, "point")


def as_matrix(a, what: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 matrix, checked finite like as_point; the
    ValueError for a non-finite entry names the matrix as what."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return _check_finite(m, what)


def inner(x, y) -> float:
    """Euclidean inner product with a dimension check."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(x.ravel().dot(y.ravel()))


def norm(x) -> float:
    """Euclidean (Frobenius) norm: sqrt(v.v) of the entries, bit for bit
    what np.linalg.norm computes for its default order."""
    v = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(v.dot(v))


def lstsq_min_norm(C, d) -> np.ndarray:
    """Minimum-norm least-squares solution of C x = d.

    Rank deficiency is handled by the RCOND cutoff, never raised as an
    error.  For consistent systems the returned x satisfies C x = d to
    within roundoff.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    d = np.asarray(d, dtype=float).reshape(-1)
    if C.shape[0] != d.shape[0]:
        raise ValueError(f"dimension mismatch: {C.shape[0]} rows vs rhs of length {d.shape[0]}")
    x, _res, _rank, _sv = np.linalg.lstsq(C, d, rcond=RCOND)
    return x


class GramFactor:
    """Cholesky factor of the Gram matrix G (G_jk = <a_j, a_k>) of k rows,
    with the rows that add no rank left out: L L^T = G[kept][:, kept].

    Rank rule: the rows are taken in order, and a row stays out when its
    pivot, the squared distance of a_j from the span of the kept rows
    before it, is <= RCOND times the largest diagonal entry of G up to it.
    This mirrors the RCOND * sigma_max cut of lstsq_min_norm on the same
    unscaled G, except that a later, longer row never drops an earlier one:
    so the factor only grows, and an earlier row whose direction is exact
    is not cut for being short next to a row 1e6 times longer.  A row left
    out gets lambda_j = 0 in solve, so sum_j lambda_j a_j projects onto the
    hyperplanes of the kept rows; for a consistent family the others hold
    up to the cut.

    The rule is deliberately not scale-free.  Late window normals of a
    converging run are about 1e-10 of the early ones, and their directions
    are mostly roundoff.  A rule on unit-length rows, or on a pivot relative
    to the row's own squared length, keeps them.  In a probe of the latter,
    window-workload alg1 took 601 iterations instead of 968 (seed 97), but
    test_solvers_match_direct_projection landed 0.44 from the direct
    projection and test_invariant_suite saw a Fejér margin of 0.031.  At
    the last correction of window-workload alg1 (seed 97, instance 0), the
    min-norm solve this replaced kept 52 of 133 rows; this factor keeps 52
    of 132.

    GramFactor() starts an empty factor that append grows by one row with
    one triangular solve: O(rank^2) per row, never a refactor.
    GramFactor.of(G) factors a whole G with one LAPACK call (dpotrf), keeps
    its leading rows up to the first pivot that fails the rank rule, and
    appends the rows from there on one by one.
    """

    def __init__(self):
        self.L = np.zeros((8, 8), order="F")
        self.kept = np.zeros(8, dtype=np.intp)
        self.rank = 0
        self.size = 0
        self.top = 0.0  # largest diagonal entry of G

    @classmethod
    def of(cls, G) -> "GramFactor":
        f = cls()
        k = G.shape[0]
        if k:
            tops = np.maximum.accumulate(G.diagonal())
            L, info = lapack.dpotrf(G, lower=1, clean=1)
            done = info - 1 if info else k  # leading columns dpotrf completed
            passed = L.diagonal()[:done] ** 2 > RCOND * tops[:done]
            j = done if passed.all() else int(np.argmin(passed))
            f.L, f.kept, f.rank, f.size = L, np.arange(k), j, j
            f.top = float(tops[j - 1]) if j else 0.0
        for i in range(f.size, k):
            f.append(G[i, :i + 1])
        return f

    def append(self, g) -> None:
        """Add a row whose Gram entries with the rows so far are g[:-1] and
        whose squared length is g[-1]."""
        if g.shape[0] != self.size + 1:
            raise ValueError(f"{g.shape[0]} Gram entries for row {self.size}")
        k, r = self.size, self.rank
        self.size += 1
        self.top = max(self.top, float(g[-1]))
        row = lapack.dtrtrs(self.L[:r, :r], g[self.kept[:r]], lower=1)[0] if r else g[:0]
        pivot = float(g[-1]) - float(np.dot(row, row))
        if pivot <= RCOND * self.top:
            return
        if r == self.L.shape[0]:
            grown = np.zeros((2 * r, 2 * r), order="F")
            grown[:r, :r] = self.L
            self.L = grown
            self.kept = np.concatenate([self.kept, np.zeros(r, dtype=np.intp)])
        self.L[r, :r] = row
        self.L[r, r] = np.sqrt(pivot)
        self.kept[r] = k
        self.rank += 1

    def solve(self, rhs) -> np.ndarray:
        """lambda with G lambda = rhs on the kept rows and 0 elsewhere."""
        lam = np.zeros(self.size)
        r = self.rank
        if r:
            kept = self.kept[:r]
            lam[kept] = lapack.dpotrs(self.L[:r, :r], rhs[kept], lower=1)[0]
        return lam


class SpanBasis:
    """An orthonormal basis Q of the span of a family of rows that grows.

    rows[:size] are the rows added since the last reset, in order, and the
    rows of Q[:rank] are an orthonormal basis of their span.  extend
    orthogonalises its new rows against Q twice (classical Gram-Schmidt,
    CGS2) and factors what is left with one pivoted QR (LAPACK dgeqp3, then
    dorgqr for its Q factor).  It keeps the leading columns whose |R_jj| is
    above RCOND times the longest row so far, which mirrors the
    RCOND * sigma_max cut of lstsq_min_norm on the stacked rows: sigma_max
    lies between the longest row and sqrt(size) times it.  Like GramFactor,
    it judges a row against the rows before it, so a row that comes after
    nearly dependent ones can keep a direction that the SVD of the whole
    stack would cut.  A kept direction is never refactored, so k new rows
    in dimension n cost O(k n rank) for the projections plus O(k^2 n) for
    their QR, whatever the rows before.

    SpanBasis(dim, capacity) holds at most capacity rows between resets.
    """

    def __init__(self, dim: int, capacity: int):
        self.rows = np.empty((capacity, dim))
        self.Q = np.empty((capacity, dim))  # rows past rank: the QR's workspace
        self.size = self.rank = 0
        self.top = 0.0  # longest row since the last reset

    def reset(self) -> None:
        """Forget every row."""
        self.size = self.rank = 0
        self.top = 0.0

    def extend(self, new_rows: Sequence[np.ndarray]) -> None:
        """Add the k rows new_rows, each of length dim."""
        k, s, r = len(new_rows), self.size, self.rank
        if s + k > self.rows.shape[0]:
            raise ValueError(f"{s + k} rows exceed the capacity of {self.rows.shape[0]}")
        if not k:
            return
        for j, a in enumerate(new_rows):
            self.rows[s + j] = a
        self.size += k
        added = self.rows[s:s + k]
        self.top = max(self.top, float(np.sqrt(np.max(np.einsum("ij,ij->i", added, added)))))
        # W is a contiguous block of Q, factored in place: dorgqr leaves the
        # new directions in Q[r:r + keep]
        W = self.Q[r:r + k]
        W[...] = added
        if r:
            Q = self.Q[:r]
            for _ in range(2):
                W -= (W @ Q.T) @ Q
        qr, _, tau, _, _ = lapack.dgeqp3(W.T, overwrite_a=1)
        small = np.flatnonzero(np.abs(qr.diagonal()) <= RCOND * self.top)
        keep = int(small[0]) if small.size else tau.shape[0]
        if keep:
            lapack.dorgqr(qr[:, :keep], tau[:keep], overwrite_a=1)
            self.rank += keep

    def residual(self, v) -> float:
        """Distance of v from the span of the rows: ||v - Q^T (Q v)||."""
        Q = self.Q[:self.rank]
        return norm(v - (Q @ v) @ Q)


def gram_solve(factor: GramFactor, rhs) -> np.ndarray:
    """Coefficients lambda with G lambda = rhs, G_jk = <a_j, a_k>, from the
    GramFactor of the a_j: two triangular solves, O(rank^2).  The rows
    outside the factor get lambda_j = 0 (see GramFactor for the rank rule).
    """
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    if factor.size != rhs.shape[0]:
        raise ValueError(f"{factor.size} vectors but rhs of length {rhs.shape[0]}")
    return factor.solve(rhs)
