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

# Absolute residual above which a constraint system is declared
# infeasible rather than noisy.
TOL_FEAS = 1e-8

# Relative rank cutoff, used three ways: lstsq_min_norm and build_problem's
# W^T W check cut singular values at RCOND * sigma_max; GramFactor cuts a
# pivot at RCOND * ||a_j||^2, the row's own squared length; SpanBasis and
# window_residual cut the singular values of a block of rows at RCOND times
# the longest row (_kept_directions).
RCOND = 1e-12


def _check_finite(v: np.ndarray, what: str) -> float:
    """The sum of the squares of v's entries, or ValueError naming what when
    an entry of v is NaN or infinite: one dot product, and a full scan only
    when that dot is not finite."""
    flat = v.ravel(order="K")
    square = flat.dot(flat)
    if not math.isfinite(square) and not np.isfinite(flat).all():
        raise ValueError(f"{what} contains non-finite entries")
    return square


def as_point(x, what: str = "point") -> np.ndarray:
    """Coerce to a 1-d float64 vector, checked finite by one dot product
    (see the module docstring); the ValueError for a non-finite entry
    names the vector as what."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    _check_finite(v, what)
    return v


def as_matrix(a, what: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 matrix, checked finite like as_point; the
    ValueError for a non-finite entry names the matrix as what."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    _check_finite(m, what)
    return m


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


# The empty factor's triangle and kept rows, shared and read-only: append
# replaces them with arrays of its own before it stores a row.
_NO_TRIANGLE = np.zeros((0, 0), order="F")
_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_TRIANGLE.flags.writeable = _NO_ROWS.flags.writeable = False


class GramFactor:
    """Cholesky factor of the Gram matrix G (G_jk = <a_j, a_k>) of k rows,
    with the rows that add no rank left out: L L^T = G[kept][:, kept].

    Rank rule: the rows are taken in order, and a row stays out when its
    pivot, the squared distance of a_j from the span of the kept rows
    before it, is <= RCOND times a_j's own squared length.  The rule is
    scale-free: a row is judged by the angle it makes with that span, not
    by its length next to other rows, so a later, longer row never drops an
    earlier one, and a short row whose direction is new stays in.  A row
    left out gets lambda_j = 0 in solve, so sum_j lambda_j a_j projects onto
    the hyperplanes of the kept rows; for a consistent family the others
    hold up to the cut.  On the unit rows of _unit_row_factor it is also a
    cut relative to the longest row.

    The late normals of a converging window run are about 1e-10 as long as
    the early ones.  A rule relative to the longest row so far cut every
    one of them: window-workload alg1 All() kept 357 of 944 rows (seed 97)
    and took 1 976 iterations on a small-angle family whose total
    codimension is 80.  Under this rule all 14 seed-97 window solves keep
    every row; alg1 takes 601 iterations there and 80 on that family.  An
    earlier probe of this rule landed 0.44 from the direct projection and
    saw a Fejér margin of 0.031, from normals whose direction was lost to
    cancellation in x - p; alg1 now records no hyperplane for such a
    roundoff step (ROUNDOFF_STEP), and those failures do not recur.

    GramFactor() starts an empty factor, with no storage until append
    grows it by one row with one triangular solve: O(rank^2) per row, never
    a refactor.  GramFactor.of(G) factors a whole G with one LAPACK call
    (dpotrf), keeps its leading rows up to the first pivot that fails the
    rank rule, and appends the rows from there on one by one.  When every
    pivot passes (and h = 0, below), the dpotrf triangle is the whole
    factor, and solve is one dpotrs on the right-hand side itself, with no
    row appended, picked out or scattered: the same arithmetic, and the
    case of every benchmark window and dense oracle stack.

    GramFactor.of(G, h), for a G whose leading h x h block is diagonal with
    a positive diagonal (h mutually orthogonal nonzero rows), takes one
    block Cholesky step (Golub & Van Loan, Matrix Computations, 4.2) and
    keeps it as data: L11 = diag(root), root = sqrt(g[:h]), as a vector;
    L21 = G21 / root as a dense block with one row per kept coupling row;
    and the dense triangle T of dpotrf on the Schur complement
    G22 - L21 L21^T, for the k - h coupling rows only.  Only G's diagonal
    and its rows h: are read, so G may be a scipy.sparse matrix there, and
    no k x k array is made: O((k - h)^3 + (k - h)^2 h) time and
    O((k - h) k) memory.  The rank rule is the same (a coupling row's pivot
    is judged against its own g_jj, not the Schur diagonal), and so is the
    append path after a failing pivot.  h = 0 is the single dpotrf above,
    and then T is the whole L.  The L attribute reads the whole dense
    triangle on the kept rows; for h > 0 it is assembled on each read.
    """

    def __init__(self):
        self.h = 0
        self.root = self.L21 = None  # the leading block's, when h > 0
        self.T, self.kept = _NO_TRIANGLE, _NO_ROWS  # append allocates on its first row
        self.rank = 0
        self.size = 0

    @property
    def L(self) -> np.ndarray:
        """The Cholesky factor of the kept rows as one dense triangle: T
        itself when h = 0, else [[diag(root), 0], [L21, T]] on the kept
        rows, assembled here."""
        h = self.h
        if not h:
            return self.T
        r = self.rank - h
        L = np.zeros((h + r, h + r), order="F")
        np.fill_diagonal(L[:h, :h], self.root)
        L[h:, :h] = self.L21[:r]
        L[h:, h:] = self.T[:r, :r]
        return L

    @classmethod
    def of(cls, G, h: int = 0) -> "GramFactor":
        f = cls()
        k = G.shape[0]
        if not k:
            return f
        g = G.diagonal()
        rows = G[h:]
        if not isinstance(rows, np.ndarray):
            rows = rows.toarray()  # the coupling rows of a scipy.sparse G
        done = 0  # leading coupling rows whose pivots dpotrf completed
        if h:
            f.h, f.root = h, np.sqrt(g[:h])
            f.L21 = rows[:, :h] / f.root
        if h < k:
            f.T, info = lapack.dpotrf(rows[:, h:] - f.L21 @ f.L21.T if h else rows,
                                      lower=1, clean=1)
            done = info - 1 if info else k - h
        passed = (f.T.diagonal()[:done] ** 2 > RCOND * g[h:h + done]).tolist()
        j = h + (passed.index(False) if False in passed else done)
        f.kept, f.rank, f.size = np.arange(k), j, j
        for i in range(j, k):
            f.append(rows[i - h, :i + 1])
        return f

    def append(self, g) -> None:
        """Add a row whose Gram entries with the rows so far are g[:-1] and
        whose squared length is g[-1]."""
        if g.shape[0] != self.size + 1:
            raise ValueError(f"{g.shape[0]} Gram entries for row {self.size}")
        k, h = self.size, self.h
        r = self.rank - h
        self.size += 1
        coupling = g[self.kept[h:self.rank]]
        pivot = float(g[-1])
        if h:
            lead = g[:h] / self.root
            coupling = coupling - self.L21[:r] @ lead
            pivot -= float(np.dot(lead, lead))
        row = lapack.dtrtrs(self.T[:r, :r], coupling, lower=1)[0] if r else g[:0]
        pivot -= float(np.dot(row, row))
        if pivot <= RCOND * float(g[-1]):
            return
        if r == self.T.shape[0]:
            n = max(2 * r, 8)
            grown = np.zeros((n, n), order="F")
            grown[:r, :r] = self.T
            self.T = grown
            self.kept = np.concatenate([self.kept, np.zeros(n - r, dtype=np.intp)])
            if h:
                self.L21 = np.concatenate([self.L21, np.zeros((n - r, h))])
        self.T[r, :r] = row
        self.T[r, r] = np.sqrt(pivot)
        if h:
            self.L21[r] = lead
        self.kept[self.rank] = k
        self.rank += 1

    def solve(self, rhs) -> np.ndarray:
        """lambda with G lambda = rhs on the kept rows and 0 elsewhere: for
        h > 0, by blocks, in O(h (k - h) + (k - h)^2).  When every row is
        kept and h = 0, lambda is dpotrs's solution itself."""
        h = self.h
        r = self.rank - h
        if r == self.size and r:  # then h = 0, and kept is 0, 1, ..., r - 1
            return lapack.dpotrs(self.T[:r, :r], rhs, lower=1)[0]
        lam = np.zeros(self.size)
        kept = self.kept[h:self.rank]
        b = rhs[kept]
        if h:
            y = rhs[:h] / self.root  # L11 y = b1
            b = b - self.L21[:r] @ y
        if r:
            lam[kept] = lapack.dpotrs(self.T[:r, :r], b, lower=1)[0]
        if h:
            lam[:h] = (y - lam[kept] @ self.L21[:r]) / self.root  # L11^T x1 = y - L21^T x2
        return lam


def _kept_directions(qr: np.ndarray, m: int, top: float):
    """The rank rule of a pivoted QR's R (the first m rows of qr): (None, m)
    when every |R_jj| is above RCOND * top, else (turn, keep), R's left
    singular vectors and the number of singular values above that cut.
    The rows factored are W with W^T = Q R P^T, so W's singular directions
    are Q times R's."""
    if np.abs(qr.diagonal()).min() > RCOND * top:
        return None, m
    turn, sv = np.linalg.svd(np.triu(qr[:m]))[:2]
    return turn, int(np.count_nonzero(sv > RCOND * top))


class SpanBasis:
    """An orthonormal basis Q of the span of a family of rows that grows.

    rows[:size] are the rows added so far, in order, and the rows of
    Q[:rank] are an orthonormal basis of their span.  extend
    orthogonalises its new rows against Q twice (classical Gram-Schmidt,
    CGS2) and factors what is left with one pivoted QR (LAPACK dgeqp3, then
    dorgqr for its Q factor).  When some |R_jj| is at most RCOND times the
    longest row so far, it keeps R's singular directions above that cut, not
    the leading columns (past the clear rank, the longest leftover rows).
    This mirrors the RCOND * sigma_max cut of lstsq_min_norm on the stacked
    rows: sigma_max lies between the longest row and sqrt(size) times it.
    Like GramFactor, it judges a row against the rows before it, so a row
    that comes after nearly dependent ones can keep a direction that the SVD
    of the whole stack would cut.  Unlike GramFactor's, its cut stays
    relative to the longest row, not to the row's own length, since it only
    measures the span for condition (B').  A kept direction is never
    refactored, so k new rows in dimension n cost O(k n rank) for the
    projections plus O(k^2 n) for their QR, whatever the rows before.
    A family that does not grow, such as a sliding window, is measured by
    window_residual instead, with no basis.

    SpanBasis(dim, capacity) holds at most capacity rows.
    """

    def __init__(self, dim: int, capacity: int):
        self.rows = np.empty((capacity, dim))
        self.Q = np.empty((capacity, dim))  # rows past rank: the QR's workspace
        self.size = self.rank = 0
        self.top = 0.0  # longest row so far

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
        m = tau.shape[0]
        turn, keep = _kept_directions(qr, m, self.top)
        if keep:
            lapack.dorgqr(qr[:, :m], tau, overwrite_a=1)
            if turn is not None:
                W[:keep] = turn[:, :keep].T @ W[:m]
            self.rank += keep

    def residual(self, v) -> float:
        """Distance of v from the span of the rows: ||v - Q^T (Q v)||."""
        Q = self.Q[:self.rank]
        return norm(v - (Q @ v) @ Q)


def window_residual(work: np.ndarray, k: int) -> float:
    """Distance of v = work[k] from the span of the rows work[:k], which
    are overwritten.

    One pivoted QR of the rows (dgeqp3, the factorisation SpanBasis.extend
    makes of a first block of rows) and its m = min(k, dim) reflectors
    applied to v (dormqr), with no basis and no explicit Q: the residual is
    the tail (Q^T v)[m:] (Golub & Van Loan, Matrix Computations, 5.2), plus,
    when some |R_jj| is at most RCOND times the longest row |R_00|, the part
    of (Q^T v)[:m] along R's singular directions at or below that cut.
    O(k^2 n) in dimension n, and O(n) for k = 0, where it is ||v||.
    """
    if not k:
        return norm(work[k])
    qr, _, tau, _, _ = lapack.dgeqp3(work[:k].T, overwrite_a=1)
    m = tau.shape[0]
    turn, keep = _kept_directions(qr, m, abs(qr[0, 0]))
    y = lapack.dormqr("L", "T", qr[:, :m], tau, work[k:k + 1].T, 1, overwrite_c=1)[0][:, 0]
    if turn is None:
        return norm(y[m:])
    cut = turn[:, keep:].T @ y[:m]
    return math.sqrt(y[m:].dot(y[m:]) + cut.dot(cut))


def gram_solve(factor: GramFactor, rhs) -> np.ndarray:
    """Coefficients lambda with G lambda = rhs, G_jk = <a_j, a_k>, from the
    GramFactor of the a_j: two triangular solves, O(rank^2).  The rows
    outside the factor get lambda_j = 0 (see GramFactor for the rank rule).
    """
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    if factor.size != rhs.shape[0]:
        raise ValueError(f"{factor.size} vectors but rhs of length {rhs.shape[0]}")
    return factor.solve(rhs)
