"""Ground-truth projection by a direct solve on stacked constraints.

Every set that can export a row-constraint form {x : C x = d} can be
stacked into one big consistent system whose solution set is exactly
the intersection; the projection of any point onto it then takes one
Cholesky factor of the unit-row Gram matrix of C, the same factor a
RowConstraintSet makes (sets._unit_row_factor): a CSR set solves with it
as the oracle does, and a dense one turns it into an orthonormal basis of
its row space.  The oracle takes C as it comes, dense or CSR, checked
finite with d, and the Gram path follows C's form.  A stack with a
sparse export (mmup's S and V are CSR) of at least 2^15 entries is CSR
itself; its Gram matrix is a sparse product that is never made dense,
its leading mutually orthogonal rows stay a diagonal block of the
factor, and only the rows that couple get a dense Cholesky factor, of
their Schur complement.  On the n = 20 chain's 1 240-row stack those are
V's 60 rows: the factor holds a 60 x 1 180 block and a 60 x 60 triangle,
not the two 12 MB 1 240 x 1 240 arrays of a dense Gram matrix and L, and
the call takes about 1 ms on one thread.
A smaller stack is dense, and a dense stack is factored whole with
C @ C.T, however many of its entries are zero; its Gram matrix and L
are k x k, so the oracle, which exists to validate the iterative
solvers, is capped at a few thousand rows.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .linalg import _check_finite, as_point, gram_solve
from .sets import AffineSet, _is_sparse, _row_matrix, _unit_row_factor

MAX_ROWS = 5000

# The fewest entries of a stack with a sparse export that stack() keeps
# CSR.  Stack plus oracle call, dense against CSR, on spring chains of n
# masses (about 12 n^4 entries; one thread): 0.41/0.61 ms at n = 6,
# 0.62/0.63 ms at n = 7 (31 556 entries), 1.6/0.64 ms at n = 8 (53 248)
# and 3.6/0.66 ms at n = 10; experiment 1 (3 328 entries) 0.24/0.9 ms.
SPARSE_STACK_MIN_ENTRIES = 1 << 15


class UnsupportedSetError(TypeError):
    """A set lacks the row-constraint export the oracle needs."""


def stack(sets: Sequence[AffineSet]):
    """Concatenate the row-constraint exports of all sets into one pair
    (C, d), the same form each set's rows() returns.

    The stacked solution set {x : C x = d} is exactly the intersection of
    the family.  C is a scipy.sparse CSR matrix when any export is sparse
    (mmup's S and V) and the stack has at least SPARSE_STACK_MIN_ENTRIES
    (2^15) entries, so a large sparse block is never made dense.  Otherwise
    C is dense, where scipy.sparse's per-call overhead outweighs the
    arithmetic it saves: experiment 1's 52 x 64 stack and spring chains of
    up to 7 masses.
    Raises UnsupportedSetError for sets without an export, and ValueError
    for an empty family, an export whose C and d disagree in length, and
    beyond the row cap.  The cap is checked after each export, so no set
    after the one that crosses it is exported and nothing is concatenated.
    """
    if not sets:
        raise ValueError("the family has no sets")
    blocks = []
    rhs = []
    dim = None
    total = 0
    sparse = False
    for k, s in enumerate(sets):
        exported = s.rows()
        if exported is None:
            raise UnsupportedSetError(f"set {k} has no row-constraint export")
        C, d = exported
        if _is_sparse(C):
            sparse = True
        else:
            C = np.atleast_2d(np.asarray(C, dtype=float))
        d = np.asarray(d, dtype=float).reshape(-1)
        if C.shape[0] != d.shape[0]:
            raise ValueError(f"set {k} exports {C.shape[0]} rows but {d.shape[0]} offsets")
        if dim is None:
            dim = C.shape[1]
        elif C.shape[1] != dim:
            raise ValueError("sets live in different dimensions")
        total += C.shape[0]
        if total > MAX_ROWS:
            raise ValueError(f"stacked system has {total} rows after set {k}, above the cap "
                             f"of {MAX_ROWS}")
        blocks.append(C)
        rhs.append(d)
    if sparse and total * dim >= SPARSE_STACK_MIN_ENTRIES:
        from scipy.sparse import vstack
        return vstack(blocks, format="csr", dtype=float), np.concatenate(rhs)
    return np.vstack([C.toarray() if _is_sparse(C) else C for C in blocks]), np.concatenate(rhs)


def direct_projection(x0, rows: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Projection of x0 onto the solution set of rows = (C, d), as stack()
    returns it, with C dense or scipy.sparse (taken in CSR form).  C and d
    are checked finite: a NaN or infinite entry raises ValueError.

    With the rows scaled to unit length, S C x = S d for S = diag(s),
    solves (S C C^T S) lam = S (C x0 - d) with the GramFactor of that
    matrix (_unit_row_factor, which also checks consistency) and returns
    x0 - C^T S lam, a correction in the row space of C.  A row whose unit
    direction lies within sqrt(RCOND) of the span of the rows before it
    stays out of the factor (the rank rule of GramFactor) and gets
    lam_j = 0.  Raises InfeasibleSetError for an inconsistent system.
    """
    x0 = as_point(x0)
    C, d = rows
    C, d = _row_matrix(C), np.asarray(d, dtype=float)
    if C.shape[1] != x0.shape[0] or d.shape != C.shape[:1]:
        raise ValueError(f"dimension mismatch: C of shape {C.shape}, right-hand side d of "
                         f"shape {d.shape}, point of dim {x0.shape[0]}")
    _check_finite(d, "right-hand side d")
    s, factor = _unit_row_factor(C, d)
    return x0 - C.T @ (s * gram_solve(factor, s * (C @ x0 - d)))
