"""Quadratic-pencil model updating as an affine projection problem.

Given symmetric mass/damping/stiffness matrices (M, D, K) and a set of
prescribed eigenpairs, the nearest updated pair (K~, D~) in the
Frobenius sense is the projection of X0 = blockdiag(K, D) onto the
intersection of two affine sets in R^{2n x 2n}:

  S: block-diagonal matrices with symmetric n x n diagonal blocks,
  V: {X : A + Ihat^T X W = 0}, the eigenpair-assignment constraint,

where W stacks the eigenvector data (C on top of B), Ihat stacks two
identities, and A = M Y Lam^2 in column form.  Complex conjugate target
pairs are stored once and expanded into real/imaginary column pairs so
the whole computation stays real.

prob.set_s and prob.set_v are AffineSets on the flattened variable
(matrices are flattened row-major when treated as points).  Each has a
closed-form projector, a closed-form residual and a row-constraint
export, so all solvers and the direct oracle apply.  Like the sets, the
problem data (PencilData, TargetPair, TargetSpectrum, MmupProblem)
compares and hashes by identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .linalg import RCOND, as_matrix, norm
from .sets import AffineSet

__all__ = [
    "PencilData", "TargetPair", "TargetSpectrum", "MmupProblem",
    "build_abc", "build_problem", "project_s", "project_v",
    "export_rows_s", "export_rows_v", "pencil_residual",
    "extract_update", "pencil_eigenvalues",
    "experiment1", "experiment2",
    "residual_by_v_projection", "v_projections_to_threshold",
    "load_problem_json",
]


@dataclass(frozen=True, eq=False)
class PencilData:
    """Coefficients of the quadratic pencil P(lam) = lam^2 M + lam D + K.
    A NaN or infinite entry raises ValueError naming the matrix."""

    m: np.ndarray
    d: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for name in ("m", "d", "k"):
            object.__setattr__(self, name, as_matrix(getattr(self, name), f"pencil matrix {name}"))
        n = self.m.shape[0]
        for name, a in (("m", self.m), ("d", self.d), ("k", self.k)):
            if a.shape != (n, n):
                raise ValueError(f"{name} is {a.shape}, expected ({n}, {n})")

    @property
    def n(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True, eq=False)
class TargetPair:
    """One prescribed eigenpair.

    A conjugate pair (mu, y) and (conj(mu), conj(y)) is stored once
    with conjugate_pair set; real targets carry zero imaginary parts.
    A NaN or infinite mu or entry of y raises ValueError naming it.
    """

    mu: complex
    y: np.ndarray
    conjugate_pair: bool

    def __post_init__(self):
        object.__setattr__(self, "mu", complex(self.mu))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=complex).reshape(-1))
        for name, v in (("eigenvalue mu", self.mu), ("eigenvector y", self.y)):
            if not np.isfinite(v).all():
                raise ValueError(f"target {name} is not finite")
        if not self.conjugate_pair:
            if self.mu.imag != 0.0 or np.any(self.y.imag != 0.0):
                raise ValueError("real target has nonzero imaginary part")


@dataclass(frozen=True, eq=False)
class TargetSpectrum:
    pairs: Tuple[TargetPair, ...]

    def __init__(self, pairs: Sequence[TargetPair]):
        object.__setattr__(self, "pairs", tuple(pairs))


def build_abc(M, targets: TargetSpectrum):
    """Column data (A, B, C) of the assignment constraint.

    A real target (mu, y) contributes the columns M y mu^2, y mu, y; a
    conjugate pair contributes the real and imaginary parts of y mu^2
    (times M), y mu and y, two columns each, keeping everything real.
    """
    M = as_matrix(M)
    n = M.shape[0]
    cols_a, cols_b, cols_c = [], [], []
    for p in targets.pairs:
        if p.y.shape[0] != n:
            raise ValueError(f"eigenvector has length {p.y.shape[0]}, expected {n}")
        if p.conjugate_pair:
            cols_a.extend([np.real(p.y * p.mu ** 2), np.imag(p.y * p.mu ** 2)])
            cols_b.extend([np.real(p.y * p.mu), np.imag(p.y * p.mu)])
            cols_c.extend([np.real(p.y), np.imag(p.y)])
        else:
            cols_a.append(np.real(p.y) * p.mu.real ** 2)
            cols_b.append(np.real(p.y) * p.mu.real)
            cols_c.append(np.real(p.y))
    A = M @ np.column_stack(cols_a)
    B = np.column_stack(cols_b)
    C = np.column_stack(cols_c)
    return A, B, C


@dataclass(eq=False)
class MmupProblem:
    """The assembled projection problem for one pencil and target set."""

    pencil: PencilData
    targets: TargetSpectrum
    x0: np.ndarray          # 2n x 2n, blockdiag(K, D)
    a: np.ndarray           # n x p
    b: np.ndarray           # n x p
    c: np.ndarray           # n x p
    w: np.ndarray           # 2n x p, C stacked on B

    @property
    def n(self) -> int:
        return self.pencil.n

    @property
    def p(self) -> int:
        return self.a.shape[1]

    @cached_property
    def set_s(self) -> AffineSet:
        return _BlockSymmetric(self)

    @cached_property
    def set_v(self) -> AffineSet:
        return _Assignment(self)

    @property
    def sets(self) -> list:
        """[S, V] as flat-vector affine sets; S first (the easy set)."""
        return [self.set_s, self.set_v]

    @property
    def dim(self) -> int:
        return 4 * self.n * self.n

    @cached_property
    def wtw_inv(self) -> np.ndarray:
        """(W^T W)^{-1}, computed on first use; w must not change after."""
        return np.linalg.inv(self.w.T @ self.w)

    def flatten(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float).reshape(-1)

    def unflatten(self, x) -> np.ndarray:
        m = 2 * self.n
        return np.asarray(x, dtype=float).reshape(m, m)


def build_problem(pencil: PencilData, targets: TargetSpectrum) -> MmupProblem:
    """Assemble X0, (A, B, C, W) and the two projectable sets.

    Raises ValueError when W^T W is singular (the closed-form projector
    onto V needs its inverse).
    """
    n = pencil.n
    A, B, C = build_abc(pencil.m, targets)
    W = np.vstack([C, B])
    sv = np.linalg.svd(W.T @ W, compute_uv=False)
    if sv[-1] <= RCOND * sv[0] or sv[0] == 0.0:
        raise ValueError("W^T W is singular: target eigenvector data is degenerate")
    X0 = np.zeros((2 * n, 2 * n))
    X0[:n, :n] = pencil.k
    X0[n:, n:] = pencil.d
    return MmupProblem(pencil=pencil, targets=targets, x0=X0, a=A, b=B, c=C, w=W)


class _PencilSet(AffineSet):
    """A set of flattened 2n x 2n matrices of one problem.  Its methods
    reshape the point without checking it; project_s, project_v and
    as_matrix check it once."""

    def __init__(self, prob: MmupProblem):
        self.prob = prob
        self.dim = prob.dim

    def _square(self, x) -> np.ndarray:
        m = 2 * self.prob.n
        return np.reshape(x, (m, m))


class _BlockSymmetric(_PencilSet):
    """S, projected by project_s."""

    def project(self, x) -> np.ndarray:
        return project_s(self._square(x)).reshape(-1)

    def residual(self, x) -> float:
        """||x - project(x)||: the off-diagonal blocks together with the
        antisymmetric halves of the diagonal blocks."""
        X = as_matrix(self._square(x))
        n = self.prob.n
        off = X[:n, n:], X[n:, :n]
        skew = 0.5 * (X[:n, :n] - X[:n, :n].T), 0.5 * (X[n:, n:] - X[n:, n:].T)
        return float(np.sqrt(sum(float(np.vdot(b, b)) for b in off + skew)))

    def rows(self):
        return export_rows_s(self.prob.n)


class _Assignment(_PencilSet):
    """V, projected by project_v."""

    def project(self, x) -> np.ndarray:
        return project_v(self._square(x), self.prob).reshape(-1)

    def residual(self, x) -> float:
        """||x - project(x)|| = ||Ihat Sigma W^T||_F
        = sqrt(1/2 sum(R * (R (W^T W)^{-1})))."""
        R = _constraint(self.prob, as_matrix(self._square(x)))
        return float(np.sqrt(max(0.0, 0.5 * float(np.sum(R * (R @ self.prob.wtw_inv))))))

    def rows(self):
        return export_rows_v(self.prob)


def project_s(X) -> np.ndarray:
    """Projection onto block-diagonal matrices with symmetric blocks.

    Off-diagonal n x n blocks are zeroed and each diagonal block is
    symmetrized; this is the orthogonal projection in the Frobenius
    inner product.
    """
    X = as_matrix(X)
    if X.shape[0] != X.shape[1] or X.shape[0] % 2 != 0:
        raise ValueError(f"expected an even-dimensioned square matrix, got {X.shape}")
    n = X.shape[0] // 2
    out = np.zeros_like(X)
    out[:n, :n] = 0.5 * (X[:n, :n] + X[:n, :n].T)
    out[n:, n:] = 0.5 * (X[n:, n:] + X[n:, n:].T)
    return out


def _constraint(prob: MmupProblem, X) -> np.ndarray:
    """R = A + Ihat^T X W, with Ihat^T X = X[:n] + X[n:] (no dense Ihat)."""
    n = prob.n
    return prob.a + (X[:n] + X[n:]) @ prob.w


def project_v(X, prob: MmupProblem) -> np.ndarray:
    """Closed-form projection onto {X : A + Ihat^T X W = 0}.

    The correction has the form Ihat Sigma W^T; since Ihat^T Ihat = 2I,
    requiring the constraint after the update gives
    Sigma = -1/2 R (W^T W)^{-1} with R = A + Ihat^T X W.  Ihat M stacks
    M on itself, so the correction adds Sigma W^T to both row blocks.
    """
    X = as_matrix(X)
    n = prob.n
    step = (-0.5 * _constraint(prob, X) @ prob.wtw_inv) @ prob.w.T
    out = X.copy()
    out[:n] += step
    out[n:] += step
    return out


def pencil_residual(prob: MmupProblem, X) -> float:
    """Frobenius norm of the assignment constraint A + Ihat^T X W."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = prob.unflatten(X)
    return norm(_constraint(prob, X))


def export_rows_s(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-constraint form (C, d) of S on the flattened 2n x 2n variable.

    2n^2 rows pin the off-diagonal blocks to zero and n(n-1) rows tie
    the symmetric entries of the two diagonal blocks together.
    """
    m = 2 * n
    i, j = np.divmod(np.arange(m * m), m)
    zero = np.flatnonzero((i < n) != (j < n))
    iu, ju = np.triu_indices(n, 1)
    upper = np.concatenate([iu * m + ju, (iu + n) * m + ju + n])
    lower = np.concatenate([ju * m + iu, (ju + n) * m + iu + n])
    k = len(zero)
    tied = np.arange(k, k + len(upper))
    C = np.zeros((k + len(upper), m * m))
    C[np.arange(k), zero] = 1.0
    C[tied, upper] = 1.0
    C[tied, lower] = -1.0
    return C, np.zeros(len(C))


def export_rows_v(prob: MmupProblem) -> Tuple[np.ndarray, np.ndarray]:
    """Row-constraint form (C, d) of V on the flattened 2n x 2n variable.

    One row per entry (r, c) of the n x p constraint
    A + Ihat^T X W = 0: coefficient W[t, c] on X[r, t] and X[n + r, t].
    """
    n, p = prob.n, prob.p
    m = 2 * n
    C = np.zeros((n, p, m, m))      # row (r, c) viewed as a 2n x 2n matrix
    r = np.arange(n)
    C[r, :, r, :] = prob.w.T
    C[r, :, n + r, :] = prob.w.T
    return C.reshape(n * p, m * m), -prob.a.ravel()


def extract_update(X) -> Tuple[np.ndarray, np.ndarray]:
    """Updated (K~, D~): the two diagonal blocks of X."""
    X = as_matrix(X)
    if X.shape[0] != X.shape[1] or X.shape[0] % 2 != 0:
        raise ValueError(f"expected an even-dimensioned square matrix, got {X.shape}")
    n = X.shape[0] // 2
    return X[:n, :n].copy(), X[n:, n:].copy()


def pencil_eigenvalues(pencil: PencilData) -> np.ndarray:
    """All 2n eigenvalues of lam^2 M + lam D + K by companion
    linearization into a generalized 2n x 2n problem."""
    n = pencil.n
    Z = np.zeros((n, n))
    I = np.eye(n)
    Ag = np.block([[Z, I], [-pencil.k, -pencil.d]])
    Bg = np.block([[I, Z], [Z, pencil.m]])
    return scipy.linalg.eig(Ag, Bg, right=False)


# -- published experiment instances ---------------------------------------

# Damped mass-spring system with one underdamped mode moved to
# -0.1 +/- 1.6242i.  All three matrices are symmetric; in M the
# (3,4)/(4,3) entry is 1.3918 (an asymmetric 1.3948 variant of that
# entry circulates but shifts the spectrum off the reference values
# by ~1e-3).
_EXP1_M = [
    [1.4685, 0.7177, 0.4757, 0.4311],
    [0.7177, 2.6938, 1.2660, 0.9676],
    [0.4757, 1.2660, 2.7061, 1.3918],
    [0.4311, 0.9676, 1.3918, 2.1876],
]
_EXP1_D = [
    [1.3525, 1.2695, 0.7967, 0.8160],
    [1.2695, 1.3274, 0.9144, 0.7325],
    [0.7967, 0.9144, 0.9456, 0.8310],
    [0.8160, 0.7325, 0.8310, 1.1536],
]
_EXP1_K = [
    [1.7824, 0.0076, -0.1359, -0.7290],
    [0.0076, 1.0287, -0.0101, -0.0493],
    [-0.1359, -0.0101, 2.8360, -0.2564],
    [-0.7290, -0.0493, -0.2564, 1.9130],
]
_EXP1_MU = complex(-0.1, 1.6242)
_EXP1_Y = [1.0, 0.0535 + 0.3834j, 0.5297 + 0.0668j, 0.6711 + 0.4175j]


def experiment1() -> Tuple[MmupProblem, PencilData]:
    """4 x 4 damped system: move -0.0861 +/- 1.6242i to -0.1 +/- 1.6242i
    with a prescribed eigenvector pair."""
    pencil = PencilData(_EXP1_M, _EXP1_D, _EXP1_K)
    targets = TargetSpectrum([TargetPair(_EXP1_MU, _EXP1_Y, conjugate_pair=True)])
    return build_problem(pencil, targets), pencil


def experiment2() -> Tuple[MmupProblem, PencilData]:
    """30-mass chain with a rigid-body zero eigenvalue moved to -0.018.

    M = D = 4I, K is the tridiagonal (1, 2, ..., 2, 1) / -1 stiffness
    whose kernel is the constant vector; the target keeps that
    eigenvector and shifts its eigenvalue just into the stable half
    plane.
    """
    n = 30
    M = 4.0 * np.eye(n)
    D = 4.0 * np.eye(n)
    K = np.diag(np.r_[1.0, 2.0 * np.ones(n - 2), 1.0])
    K += np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
    pencil = PencilData(M, D, K)
    y = np.ones(n) / np.sqrt(n)
    targets = TargetSpectrum([TargetPair(-0.018 + 0.0j, y, conjugate_pair=False)])
    return build_problem(pencil, targets), pencil


# -- trace utilities -------------------------------------------------------

def residual_by_v_projection(prob: MmupProblem, result) -> List[float]:
    """Constraint residual as a function of V-projection count (set 1).

    Entry m is the residual of the last main iterate produced while the
    total number of projections onto V was m; entry 0 is the starting
    residual.  This is the x-axis convention of the experiment plots:
    sub-steps onto S and onto hyperplane intersections do not advance m.
    """
    values = {0: pencil_residual(prob, result.x0)}
    v = 0
    for _, group in groupby(result.trace, key=lambda r: r.index):
        g = list(group)
        v += sum(1 for r in g if r.phase == "set-projection" and r.set_index == 1)
        values[v] = pencil_residual(prob, g[-1].point)
    out = []
    last = values[0]
    for m in range(max(values) + 1):
        last = values.get(m, last)
        out.append(last)
    return out


def v_projections_to_threshold(prob: MmupProblem, result, threshold: float) -> Optional[int]:
    """Smallest V-projection count whose residual is <= threshold."""
    series = residual_by_v_projection(prob, result)
    for m, val in enumerate(series):
        if val <= threshold:
            return m
    return None


# -- ingestion --------------------------------------------------------------

def load_problem_json(path) -> Tuple[MmupProblem, PencilData]:
    """Build a problem from a JSON file.

    Expected shape: {"M": [[...]], "D": [[...]], "K": [[...]],
    "targets": [{"mu_re": f, "mu_im": f, "y_re": [...], "y_im": [...]}]}.
    Targets with nonzero imaginary data are treated as conjugate pairs.
    A missing key raises ValueError naming it, and so does a NaN or
    infinite entry (JSON's NaN and Infinity are read): the matrix m, d or
    k, or a target's mu or y.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        pencil = PencilData(data["M"], data["D"], data["K"])
        pairs = []
        for t in data["targets"]:
            mu = complex(t["mu_re"], t.get("mu_im", 0.0))
            y_re = np.asarray(t["y_re"], dtype=float)
            y_im = np.asarray(t.get("y_im", np.zeros_like(y_re)), dtype=float)
            conj = mu.imag != 0.0 or np.any(y_im != 0.0)
            pairs.append(TargetPair(mu, y_re + 1j * y_im, conjugate_pair=conj))
    except KeyError as e:
        raise ValueError(f"problem file {path} has no key {e.args[0]!r}") from None
    return build_problem(pencil, TargetSpectrum(pairs)), pencil
