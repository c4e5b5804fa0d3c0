"""Workloads of the affproj benchmark: generators, solver configurations, checks.

A workload is a fixed list of instances drawn from the run seed, the solver
configurations run on each instance, and the checks every output must pass.
The package only ever receives the generated arrays; everything it computes
is reached through module attributes (``mmup.build_problem``,
``oracle.stack``, ...) so that the traced run can wrap those calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from affproj import diagnostics, mmup, oracle, solver
from affproj.sets import RowConstraintSet
from affproj.solver import All, LastQ, StoppingRule

STOP = StoppingRule(stop_tol=1e-10, max_iter=20000)

# A converged solve may sit CHECK_FACTOR * stop_tol * max(1, ||x0||) from the
# reference point.  The largest ratio seen on these workloads is about 0.4.
CHECK_FACTOR = 10.0

ROW_DIM = 400                # k = 4 blocks of dim / 10 rows each
CHAIN_N = 100                # dim = 4 n^2
ORACLE_CHAIN_N = 20          # 1 240 stacked rows, well under oracle.MAX_ROWS
RIGID_TARGET = -0.018


@dataclass
class Instance:
    """One generated problem, with the sets the package built from it."""

    label: str
    sets: list
    x0: np.ndarray
    member: Optional[np.ndarray] = None      # exact member of the intersection
    prob: Optional[mmup.MmupProblem] = None  # pencil problem, on the chain


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int
    configs: Tuple[Tuple[str, object], ...]   # (method, window policy)
    certify: str                             # method whose solve is certified
    generate: Callable[..., tuple]           # (seed, index[, size]) -> arrays
    build: Callable[[tuple], Instance]       # arrays -> Instance (the set-up)
    small: int                               # size of the warm-up instance


# -- row families ------------------------------------------------------------

def row_arrays(seed: int, index: int, dim: int = ROW_DIM):
    """Four Gaussian blocks (C_l, C_l z) of dim / 10 rows through a common
    point z, and a start x0."""
    rng = np.random.default_rng([seed, index])
    z = rng.standard_normal(dim)
    blocks = []
    for _ in range(4):
        C = rng.standard_normal((dim // 10, dim))
        blocks.append((C, C @ z))
    x0 = rng.standard_normal(dim)
    return blocks, z, x0


def build_rows(arrays) -> Instance:
    blocks, z, x0 = arrays
    sets = [RowConstraintSet(C, d) for C, d in blocks]
    return Instance(f"rows(dim={len(z)})", sets, x0, member=z)


# -- pencil chain ------------------------------------------------------------

def chain_arrays(seed: int, index: int, n: int = CHAIN_N):
    """Experiment-2 spring chain with the rigid-body mode moved to
    RIGID_TARGET and one seeded conjugate target pair (mu, y).

    mu is drawn from a narrow band and y has orthonormal real and imaginary
    parts in a random plane, so the instances of a run cost about the same
    (map needs about 740 iterations, with a spread of 6% between instances).
    """
    rng = np.random.default_rng([seed, index])
    mu = complex(-rng.uniform(0.25, 0.35), rng.uniform(0.70, 0.80))
    re, im = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
    y = (re + 1j * im) / np.sqrt(2.0)
    m = 4.0 * np.eye(n)
    k = np.diag(np.r_[1.0, 2.0 * np.ones(n - 2), 1.0])
    k += np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
    rigid = np.ones(n) / np.sqrt(n)
    return m, m.copy(), k, rigid, mu, y


def build_pencil(arrays) -> Instance:
    m, d, k, rigid, mu, y = arrays
    targets = mmup.TargetSpectrum([
        mmup.TargetPair(RIGID_TARGET, rigid, conjugate_pair=False),
        mmup.TargetPair(mu, y, conjugate_pair=True),
    ])
    prob = mmup.build_problem(mmup.PencilData(m, d, k), targets)
    return Instance(f"chain(n={prob.n})", prob.sets, prob.flatten(prob.x0), prob=prob)


def pencil_twin(seed: int, index: int) -> Instance:
    """The same target draw on the ORACLE_CHAIN_N chain, where the oracle fits."""
    return build_pencil(chain_arrays(seed, index, ORACLE_CHAIN_N))


WORKLOADS = {
    "rowfam": Workload("rowfam", 8, (("map", None), ("alg1", LastQ(5)), ("alg2", LastQ(5))),
                       "alg1", row_arrays, build_rows, 40),
    "window": Workload("window", 7, (("map", None), ("alg1", All()), ("alg2", All())),
                       "alg1", row_arrays, build_rows, 40),
    "pencil": Workload("pencil", 10, (("map", None), ("alg1", LastQ(3)), ("alg2", LastQ(3))),
                       "alg2", chain_arrays, build_pencil, 6),
}


# -- solving and checking ----------------------------------------------------

def solve(method: str, policy, sets, x0):
    if method == "map":
        return solver.run_map(sets, x0, stop=STOP)
    if method == "alg1":
        return solver.run_alg1(sets, x0, policy=policy, stop=STOP)
    if method == "alg2":
        return solver.run_alg2(sets, x0, policy=policy, stop=STOP)
    raise ValueError(f"unknown method {method!r}")


def oracle_projection(inst: Instance) -> np.ndarray:
    return oracle.direct_projection(inst.x0, oracle.stack(inst.sets))


def tolerance(inst: Instance) -> float:
    return CHECK_FACTOR * STOP.stop_tol * max(1.0, float(np.linalg.norm(inst.x0)))


def check_solve(inst: Instance, result, reference: np.ndarray) -> Optional[str]:
    """None when the solve passes, else why it failed."""
    if not result.converged:
        return f"stopped with {result.stop_reason} after {result.iterations} iterations"
    tol = tolerance(inst)
    dist = float(np.linalg.norm(result.solution - reference))
    if dist > tol:
        return f"distance {dist:.3e} to the reference is above {tol:.3e}"
    if inst.prob is not None:
        pres = mmup.pencil_residual(inst.prob, result.solution)
        sres = inst.prob.set_s.residual(result.solution)
        if pres > tol or sres > tol:
            return f"pencil residual {pres:.3e}, S-residual {sres:.3e}, above {tol:.3e}"
    return None


def check_oracle(inst: Instance, p: np.ndarray) -> Optional[str]:
    """The oracle point must be no farther from x0 than the known member."""
    if inst.member is None:
        return None
    slack = tolerance(inst)
    if np.linalg.norm(p - inst.x0) > np.linalg.norm(inst.member - inst.x0) + slack:
        return "oracle point is farther from x0 than a member of the intersection"
    return None


def certify(result, member: np.ndarray, policy) -> Tuple[object, Optional[str]]:
    """condition_report plus the checks of the CLI's verify command."""
    rep = diagnostics.condition_report(result, member)
    if rep.fejer_violations:
        return rep, f"{rep.fejer_violations} Fejer violations (worst {rep.fejer_worst:.3e})"
    if rep.sum_of_squares:
        bound = float(np.linalg.norm(result.x0 - member)) ** 2
        if rep.sum_of_squares[-1] > bound + 1e-6:
            return rep, "sum of squared steps exceeds the distance bound"
    if isinstance(policy, All) and rep.condition_b_residuals:
        worst = max(rep.condition_b_residuals)
        if worst > 1e-8:
            return rep, f"span-condition residual {worst:.3e}"
    return rep, None


def projections(result) -> int:
    """Single-set projections the solver issued (residual checks excluded)."""
    return sum(1 for r in result.trace if r.phase in ("set-projection", "m1-projection"))


def v_projections(inst: Instance, result) -> int:
    """Projections onto set 1 (V on the pencil chain) until the solve stopped."""
    if inst.prob is not None:
        return len(mmup.residual_by_v_projection(inst.prob, result)) - 1
    return sum(1 for r in result.trace if r.phase == "set-projection" and r.set_index == 1)


def experiment_counts(threshold: float = 1e-8) -> List[Tuple[str, int]]:
    """V-projections to `threshold` on the paper's experiments 1 and 2."""
    out = []
    for label, make in (("exp1", mmup.experiment1), ("exp2", mmup.experiment2)):
        prob, _ = make()
        x0 = prob.flatten(prob.x0)
        for method, policy in (("map", None), ("alg1", LastQ(3)), ("alg2", LastQ(3))):
            result = solve(method, policy, prob.sets, x0)
            count = mmup.v_projections_to_threshold(prob, result, threshold)
            out.append((f"{label}.{method}_v", -1 if count is None else count))
    return out
