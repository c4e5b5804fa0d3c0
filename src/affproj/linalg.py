"""Dense real linear algebra primitives shared by the projection solvers.

Vectors ("points") are 1-d float64 numpy arrays; matrices are 2-d float64
arrays.  Matrices treated as points of the ambient space are flattened
row-major, so the flattened dot product is the Frobenius inner product.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance for membership / idempotency assertions on
# unit-scale problems.
TOL_LIN = 1e-10

# Absolute residual above which a constraint system is declared
# infeasible rather than noisy.
TOL_FEAS = 1e-8

# Relative rank cutoff: singular values below RCOND * sigma_max are
# treated as zero in every least-squares solve.
RCOND = 1e-12


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-d float64 vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("point contains non-finite entries")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d float64 matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def inner(x, y) -> float:
    """Euclidean inner product with a dimension check."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(np.dot(x.ravel(), y.ravel()))


def norm(x) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


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


def unit_row_gram(C):
    """(G, s): the Gram matrix G = S C C^T S of the rows of C scaled to
    unit length by S = diag(s), and s, with s_i = 1 / ||c_i||.

    The scaling keeps short rows above the RCOND cutoff next to long
    ones.  Zero rows keep the scale 1.
    """
    G = C @ C.T
    lengths = np.sqrt(np.diag(G))
    s = 1.0 / np.where(lengths > 0.0, lengths, 1.0)
    G *= s[:, None]
    G *= s
    return G, s


def gram_solve(vectors, rhs) -> np.ndarray:
    """Coefficients lambda with G lambda ~= rhs, G_jk = <a_j, a_k>.

    vectors is a 2-d array whose rows are the a_j, used as it is, or a
    sequence of equal-length vectors, which is stacked once.  The cost is
    the k x k Gram product, O(k^2 n) for k vectors of length n, plus an
    O(k^3) solve.

    Solved by minimum-norm least squares, so rank-deficient (redundant)
    families are fine: the combination sum_j lambda_j a_j is the same
    for every least-squares solution because null(G) = null(A^T) when
    G = A A^T.
    """
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        A = np.asarray(vectors, dtype=float)
    else:
        rows = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
        # vstack raises on ragged input, which covers the shared-dim precondition
        A = np.vstack(rows) if rows else np.zeros((0, 0))
    if A.shape[0] != rhs.shape[0]:
        raise ValueError(f"{A.shape[0]} vectors but rhs of length {rhs.shape[0]}")
    if A.shape[0] == 0:
        return np.zeros(0)
    G = A @ A.T
    return lstsq_min_norm(G, rhs)
