"""Ground-truth projection by a direct solve on stacked constraints.

Every set that can export a row-constraint form {x : C x = d} can be
stacked into one big consistent system whose solution set is exactly
the intersection; the projection of any point onto it then takes one
Cholesky factor of the unit-row Gram matrix of C, the same factor a
RowConstraintSet keeps (sets._unit_row_factor).  That matrix is formed one
of two ways: from a CSR copy of C when C is large and sparse, as the
pencil stacks are, and by the dense C @ C.T otherwise (see
_unit_row_factor); direct_projection takes its products with C from the
same copy.  The factor is dense and cubic in the total row count either
way: on the n = 20 chain's 1 240-row stack, dpotrf takes about 20 of the
call's 30 ms (one thread).  The oracle exists to validate the iterative
solvers, so it is capped at a few thousand rows.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .linalg import as_point, gram_solve
from .sets import AffineSet, _unit_row_factor

MAX_ROWS = 5000


class UnsupportedSetError(TypeError):
    """A set lacks the row-constraint export the oracle needs."""


def stack(sets: Sequence[AffineSet]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the row-constraint exports of all sets into one pair
    (C, d), the same form each set's rows() returns.

    The stacked solution set {x : C x = d} is exactly the intersection of
    the family.
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
    for k, s in enumerate(sets):
        exported = s.rows()
        if exported is None:
            raise UnsupportedSetError(f"set {k} has no row-constraint export")
        C, d = exported
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
    return np.vstack(blocks), np.concatenate(rhs)


def direct_projection(x0, rows: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Projection of x0 onto the solution set of rows = (C, d), as stack()
    returns it.

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
    if C.shape[1] != x0.shape[0] or np.shape(d) != C.shape[:1]:
        raise ValueError(f"dimension mismatch: C of shape {C.shape}, d of shape "
                         f"{np.shape(d)}, point of dim {x0.shape[0]}")
    A, s, factor = _unit_row_factor(C, d)
    return x0 - A.T @ (s * gram_solve(factor, s * (A @ x0 - d)))
