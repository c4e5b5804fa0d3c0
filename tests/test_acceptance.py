"""End-to-end acceptance checks.

One test per advertised behavior, each printing the measured quantity
next to its bound (run with -s to see the lines on success; on failure
the captured line appears in the report).
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from affproj import mmup
from affproj.cli import random_family
from affproj.diagnostics import check_b_prime, count_fejer_violations, step_decompositions
from affproj.linalg import as_point, inner, norm
from affproj.oracle import direct_projection, stack
from affproj.sets import Hyperplane, RowConstraintSet, project_hyperplane_intersection
from affproj.solver import All, LastQ, StoppingRule, run_alg1, run_alg2, run_map

STOP = StoppingRule(stop_tol=1e-10, max_iter=10000)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _sample_family(seed):
    """Seeded random instances: dim <= 30, k <= 4, total codim < dim."""
    rng = np.random.default_rng(4242 + seed)
    dim = int(rng.integers(10, 31))
    k = int(rng.integers(2, 5))
    budget = max(k, (dim - 1) // 2)
    codims = []
    for j in range(k):
        hi = max(1, min(3, budget - (k - j - 1)))
        c = int(rng.integers(1, hi + 1))
        codims.append(c)
        budget -= c
    return random_family(dim, k, codims, seed)


POLICIES = (All(), LastQ(2), LastQ(3), LastQ(5))


@lru_cache(maxsize=None)
def _family_solves(seed):
    """The direct projection of _sample_family(seed) and its solves by name:
    map, and alg1 and alg2 under each of POLICIES.  Cached, so that the
    tests reading the same solves share them."""
    sets, x0, _ = _sample_family(seed)
    p = direct_projection(as_point(x0), stack(sets))
    runs = {"map": run_map(sets, x0, stop=STOP)}
    for run in (run_alg1, run_alg2):
        for policy in POLICIES:
            runs[f"{run.__name__} {policy}"] = run(sets, x0, policy=policy, stop=STOP)
    return p, runs


def test_one_pass_residual_collapse():
    prob, _ = mmup.experiment2()
    x0 = prob.flatten(prob.x0)
    runs = {
        "alg1 q=2": run_alg1(prob.sets, x0, policy=LastQ(2), stop=STOP),
        "alg2 q=1": run_alg2(prob.sets, x0, policy=LastQ(1), stop=STOP),
    }
    factors = {}
    for name, r in runs.items():
        series = mmup.residual_by_v_projection(prob, r)
        factors[name] = series[1] / series[0]
    ok = all(f <= 1e-10 for f in factors.values())
    detail = ", ".join(f"{n} factor {f:.3e}" for n, f in factors.items())
    print(f"[1] one-pass residual collapse on the 30-mass instance: "
          f"{detail} (bound 1e-10) {_verdict(ok)}")
    assert ok, factors


def test_alternating_projections_halve_residual():
    prob, _ = mmup.experiment2()
    r = run_map(prob.sets, prob.flatten(prob.x0), stop=STOP)
    series = mmup.residual_by_v_projection(prob, r)
    assert len(series) > 20
    ratios = [series[i] / series[i - 1] for i in range(2, 21)]
    ok = all(abs(rho - 0.5) <= 0.05 for rho in ratios)
    print(f"[2] plain alternation halves the residual: ratios in "
          f"[{min(ratios):.10f}, {max(ratios):.10f}] (bound 0.5 +/- 0.05) "
          f"{_verdict(ok)}")
    assert ok, (min(ratios), max(ratios))


def test_windowed_methods_need_fewer_projections():
    prob, _ = mmup.experiment1()
    x0 = prob.flatten(prob.x0)
    thr = 1e-8
    n_map = mmup.v_projections_to_threshold(
        prob, run_map(prob.sets, x0, stop=STOP), thr)
    n1, n2 = {}, {}
    for q in (2, 3, 4, 5):
        n1[q] = mmup.v_projections_to_threshold(
            prob, run_alg1(prob.sets, x0, policy=LastQ(q), stop=STOP), thr)
        n2[q] = mmup.v_projections_to_threshold(
            prob, run_alg2(prob.sets, x0, policy=LastQ(q), stop=STOP), thr)
    ok = (n_map is not None
          and all(n1[q] is not None and n2[q] is not None for q in n1)
          and all(n2[q] <= n1[q] <= n_map for q in n1)
          and any(n1[q] < n_map for q in n1))
    print(f"[3] projection counts to residual 1e-8: plain {n_map}, "
          f"windowed {sorted(n1.items())}, two-step {sorted(n2.items())} "
          f"{_verdict(ok)}")
    assert ok, (n_map, n1, n2)


def test_eigenvalue_reassignment():
    prob, pencil = mmup.experiment1()
    r = run_alg2(prob.sets, prob.flatten(prob.x0), policy=LastQ(3), stop=STOP)
    assert r.converged
    Kt, Dt = mmup.extract_update(prob.unflatten(r.solution))
    sym = max(norm(Kt - Kt.T), norm(Dt - Dt.T))

    pair = prob.targets.pairs[0]
    assign = max(
        np.linalg.norm((mu ** 2 * pencil.m + mu * Dt + Kt) @ y)
        for mu, y in ((pair.mu, pair.y),
                      (np.conj(pair.mu), np.conj(pair.y))))

    orig = mmup.pencil_eigenvalues(pencil)
    targeted = [-0.0861 + 1.6242j, -0.0861 - 1.6242j]
    drop = [int(np.argmin(np.abs(orig - t))) for t in targeted]
    nontargeted = np.delete(orig, drop)
    updated = mmup.pencil_eigenvalues(mmup.PencilData(pencil.m, Dt, Kt))
    moves = [float(np.min(np.abs(np.abs(updated) - abs(lam))))
             for lam in nontargeted]
    worst = max(moves)

    ok = sym <= 1e-9 and assign <= 1e-6 and worst <= 0.5
    print(f"[4] eigenvalue reassignment: block asymmetry {sym:.2e} "
          f"(bound 1e-9), target pair residual {assign:.2e} (bound 1e-6), "
          f"largest modulus shift of untouched eigenvalues {worst:.4f} "
          f"(bound 0.5) {_verdict(ok)}")
    assert ok, (sym, assign, moves)


def test_solvers_match_direct_projection():
    """map, and alg1 and alg2 under All(), LastQ(2), LastQ(3) and LastQ(5).
    The short windows matter: a one-row set's recorded hyperplane is the
    set itself, so a later projection onto it moves the iterate only by
    roundoff, and that displacement must not enter a window as a
    hyperplane."""
    worst, where = 0.0, None
    for seed in range(50):
        p, runs = _family_solves(seed)
        for name, r in runs.items():
            assert r.converged, (seed, name, r.stop_reason)
            d = norm(r.solution - p)
            if d > worst:
                worst, where = d, (seed, name)
    ok = worst <= 1e-6
    print(f"[5] agreement with the direct least-squares projection over "
          f"50 random families x 9 solver configurations: worst distance {worst:.3e} "
          f"(bound 1e-6) {_verdict(ok)}")
    assert ok, (worst, where)


ALG2_DRIFT = pytest.mark.xfail(
    strict=True, reason="alg2 drift: corrected LastQ(2) iterates of seeds 0 and 20 leave "
    "set 0 by 4.4e-8 and 3.4e-8, so their composite hyperplanes miss the intersection")


@pytest.mark.parametrize("run,policy", [
    pytest.param(run, policy, id=f"{run.__name__}-{policy}",
                 marks=ALG2_DRIFT if (run, policy) == (run_alg2, LastQ(2)) else ())
    for run in (run_alg1, run_alg2) for policy in POLICIES])
def test_recorded_hyperplanes_contain_the_intersection(run, policy):
    """Each projection identifies a hyperplane that contains the
    intersection (the paper's first idea): every recorded hyperplane passes
    through the direct projection p, to within 1e-11 max(1, ||p||)."""
    worst, where = 0.0, None
    for seed in range(50):
        p, runs = _family_solves(seed)
        for _, h in runs[f"{run.__name__} {policy}"].generated:
            miss = h.residual(p) / max(1.0, norm(p))
            if miss > worst:
                worst, where = miss, seed
    print(f"[5b] recorded hyperplanes of {run.__name__} {policy} contain the "
          f"intersection over 50 random families: worst relative miss {worst:.3e} "
          f"(bound 1e-11) {_verdict(worst <= 1e-11)}")
    assert worst <= 1e-11, (worst, where)


def test_invariant_suite():
    rng = np.random.default_rng(991)

    # trace-level certificates on sampled families
    worst_fejer = -np.inf
    worst_member = 0.0
    worst_ratio_dev = 0.0
    for seed in range(10):
        sets, x0, _ = _sample_family(seed)
        m = direct_projection(as_point(x0), stack(sets))
        r_map = run_map(sets, x0, stop=STOP)
        r_1 = run_alg1(sets, x0, policy=All(), stop=STOP)
        r_2 = run_alg2(sets, x0, policy=All(), stop=STOP)
        for r in (r_map, r_1, r_2):
            worst_fejer = max(worst_fejer, count_fejer_violations(r.points(), m)[1])
        for rec in r_2.trace:
            if rec.phase in ("m1-projection", "hyperplane-projection"):
                worst_member = max(worst_member, sets[0].residual(rec.point))
        for rho in check_b_prime(step_decompositions(r_map)):
            worst_ratio_dev = max(worst_ratio_dev, abs(rho - 1.0))

    # start-point orthogonality on linear families (0 in every set)
    worst_ortho = 0.0
    for seed in range(10):
        srng = np.random.default_rng(7000 + seed)
        dim = int(srng.integers(10, 25))
        sets = [RowConstraintSet(srng.standard_normal((2, dim)), np.zeros(2))
                for _ in range(3)]
        x0 = srng.standard_normal(dim)
        for r in (run_alg1(sets, x0, policy=All(), stop=STOP),
                  run_alg2(sets, x0, policy=All(), stop=STOP)):
            scale = norm(as_point(x0)) ** 2
            for rec in r.trace:
                if rec.phase == "hyperplane-projection":
                    worst_ortho = max(
                        worst_ortho,
                        abs(inner(as_point(x0) - rec.point, rec.point)) / scale)

    # split-projection identity: normals drawn inside the subspace
    worst_split = 0.0
    for _ in range(200):
        dim = int(rng.integers(5, 16))
        codim = int(rng.integers(1, 4))
        C = rng.standard_normal((codim, dim))
        msub = RowConstraintSet(C, np.zeros(codim))
        N = scipy.linalg.null_space(C)
        z = N @ rng.standard_normal(N.shape[1])
        hs = []
        for _ in range(int(rng.integers(1, 4))):
            a = N @ rng.standard_normal(N.shape[1])
            hs.append(Hyperplane(a, inner(a, z)))
        x = rng.standard_normal(dim)
        chained = project_hyperplane_intersection(msub.project(x), hs)
        joint = direct_projection(as_point(x), stack([msub] + hs))
        worst_split = max(worst_split,
                          norm(chained - joint) / max(1.0, norm(joint)))

    # two-subspace cutting hyperplane: contains the intersection,
    # normal stays inside the first subspace
    worst_cut = 0.0
    worst_normal = 0.0
    skipped = 0
    for _ in range(200):
        dim = int(rng.integers(6, 16))
        c1 = int(rng.integers(1, 4))
        c2 = int(rng.integers(1, 4))
        C1 = rng.standard_normal((c1, dim))
        m1 = RowConstraintSet(C1, np.zeros(c1))
        N1 = scipy.linalg.null_space(C1)
        z = N1 @ rng.standard_normal(N1.shape[1])
        m2 = RowConstraintSet((C2 := rng.standard_normal((c2, dim))), C2 @ z)
        x = N1 @ rng.standard_normal(N1.shape[1])
        xp = m2.project(x)
        xpp = m1.project(xp)
        a = x - xpp
        if norm(a) <= 1e-12:
            skipped += 1
            continue
        t = inner(x - xp, x - xp) / inner(a, a)
        h = Hyperplane(a, inner(a, x + t * (xpp - x)))
        worst_normal = max(worst_normal, norm(C1 @ a) / norm(a))
        sc = stack([m1, m2])
        for _ in range(5):
            mem = direct_projection(rng.standard_normal(dim), sc)
            worst_cut = max(
                worst_cut,
                abs(inner(h.normal, mem) - h.offset)
                / max(1.0, norm(a) * norm(mem)))

    ok = (worst_fejer <= 1e-9 and worst_member <= 1e-8
          and worst_ortho <= 1e-7 and worst_ratio_dev <= 1e-9
          and worst_split <= 1e-9 and worst_cut <= 1e-9
          and worst_normal <= 1e-9 and skipped == 0)
    print(f"[6] invariants: monotone-approach margin {worst_fejer:.2e} "
          f"(<=1e-9), easy-set membership {worst_member:.2e} (<=1e-8), "
          f"start orthogonality {worst_ortho:.2e} (<=1e-7), "
          f"unit step-ratio deviation {worst_ratio_dev:.2e} (<=1e-9), "
          f"split-projection identity {worst_split:.2e} (<=1e-9), "
          f"cutting-hyperplane checks {worst_cut:.2e}/{worst_normal:.2e} "
          f"(<=1e-9, {skipped} degenerate) {_verdict(ok)}")
    assert ok, (worst_fejer, worst_member, worst_ortho, worst_ratio_dev,
                worst_split, worst_cut, worst_normal, skipped)


def test_ingested_pencil_spectrum():
    _, pencil = mmup.experiment1()
    reference = np.array([
        -0.0861 + 1.6242j, -0.0861 - 1.6242j,
        -0.1022 + 0.8876j, -0.1022 - 0.8876j,
        -0.1748 + 1.1922j, -0.1748 - 1.1922j,
        -0.4480 + 0.2465j, -0.4480 - 0.2465j,
    ])
    eigs = mmup.pencil_eigenvalues(pencil)
    cost = np.abs(eigs[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    ok = worst <= 1e-3
    print(f"[7] ingested 4-dof spectrum vs reference eigenvalues: worst "
          f"matched deviation {worst:.2e} (bound 1e-3) {_verdict(ok)}")
    assert ok, worst
