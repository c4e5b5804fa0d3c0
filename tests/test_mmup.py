import json

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from affproj import linalg
from affproj.linalg import norm
from affproj.mmup import (PencilData, TargetPair, TargetSpectrum,
                          build_abc, build_problem, experiment1, experiment2,
                          export_rows_s, export_rows_v, extract_update,
                          load_problem_json,
                          pencil_eigenvalues, pencil_residual, project_s,
                          project_v, residual_by_v_projection,
                          v_projections_to_threshold)
from affproj.oracle import direct_projection, stack
from affproj.sets import RowConstraintSet
from affproj.solver import All, StoppingRule, run_alg1, run_map

# Quadratic eigenvalues of the 4-dof instance before any update, from an
# independent companion-matrix computation (conjugate pairs listed once).
REFERENCE_QUAD_EIGS = np.array([
    -0.0861 + 1.6242j, -0.0861 - 1.6242j,
    -0.1022 + 0.8876j, -0.1022 - 0.8876j,
    -0.1748 + 1.1922j, -0.1748 - 1.1922j,
    -0.4480 + 0.2465j, -0.4480 - 0.2465j,
])


def small_problem(seed=0, n=2):
    rng = np.random.default_rng(seed)
    M = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    M = 0.5 * (M + M.T) + n * np.eye(n)
    D = 0.5 * (lambda a: a + a.T)(rng.standard_normal((n, n)))
    K = 0.5 * (lambda a: a + a.T)(rng.standard_normal((n, n)))
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    targets = TargetSpectrum([TargetPair(-0.2 + 0.9j, y, conjugate_pair=True)])
    return build_problem(PencilData(M, D, K), targets)


# -- projector onto the block-diagonal symmetric set ------------------------

def test_project_s_small_example():
    out = project_s([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 4.0]])


def test_project_s_fixes_members_and_is_idempotent():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 6))
    P = project_s(X)
    np.testing.assert_allclose(project_s(P), P, atol=1e-14)
    member = np.zeros((6, 6))
    member[:3, :3] = np.eye(3)
    member[3:, 3:] = [[0, 1, 0], [1, 0, 2], [0, 2, 0]]
    np.testing.assert_allclose(project_s(member), member, atol=1e-14)


def test_project_s_beats_random_members():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 4))
    P = project_s(X)
    best = norm(X - P)
    for _ in range(1000):
        cand = project_s(rng.standard_normal((4, 4)) * 3.0)
        assert norm(X - cand) >= best - 1e-12


def test_project_s_rejects_odd_shapes():
    with pytest.raises(ValueError):
        project_s(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        project_s(np.zeros((2, 4)))


# -- projector onto the assignment constraint -------------------------------

def test_project_v_satisfies_constraint():
    prob = small_problem(6)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 4))
    P = project_v(X, prob)
    assert pencil_residual(prob, P) <= 1e-10


def test_project_v_fixes_members():
    prob = small_problem(8)
    rng = np.random.default_rng(9)
    P = project_v(rng.standard_normal((4, 4)), prob)
    np.testing.assert_allclose(project_v(P, prob), P, atol=1e-10)


@pytest.mark.parametrize("seed,n", [(10, 2), (11, 4)])
def test_project_v_matches_row_constraint_projection(seed, n):
    prob = small_problem(seed, n=n)
    C, d = export_rows_v(prob)
    rc = RowConstraintSet(C.toarray(), d)
    rng = np.random.default_rng(seed + 100)
    for _ in range(5):
        X = rng.standard_normal((2 * n, 2 * n))
        via_rows = rc.project(prob.flatten(X))
        closed_form = prob.flatten(project_v(X, prob))
        np.testing.assert_allclose(closed_form, via_rows, atol=1e-9)


def random_chain(seed, n=6):
    """Spring chain with random masses, springs and dampers, its rigid mode
    moved to -0.02 and one random conjugate target pair."""
    rng = np.random.default_rng(seed)
    springs = rng.uniform(0.5, 2.0, n - 1)
    K = np.zeros((n, n))
    for j, k in enumerate(springs):
        K[j:j + 2, j:j + 2] += k * np.array([[1.0, -1.0], [-1.0, 1.0]])
    M = np.diag(rng.uniform(1.0, 4.0, n))
    D = 0.1 * K + np.diag(rng.uniform(0.1, 0.5, n))
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    targets = TargetSpectrum([
        TargetPair(-0.02, np.ones(n), conjugate_pair=False),
        TargetPair(complex(-rng.uniform(0.1, 0.3), rng.uniform(0.5, 1.5)), y,
                   conjugate_pair=True),
    ])
    return build_problem(PencilData(M, D, K), targets)


PENCIL_PROBLEMS = [
    pytest.param(lambda: experiment1()[0], id="experiment1"),
    pytest.param(lambda: experiment2()[0], id="experiment2"),
] + [pytest.param(lambda s=s: random_chain(s), id=f"chain{s}") for s in range(3)]


@pytest.mark.parametrize("make", PENCIL_PROBLEMS)
def test_closed_form_residuals_are_projection_distances(make):
    prob = make()
    rng = np.random.default_rng(21)
    points = [prob.flatten(prob.x0), rng.standard_normal(prob.dim),
              prob.set_v.project(rng.standard_normal(prob.dim))]
    for x in points:
        for s in prob.sets:
            dist = norm(x - s.project(x))
            assert abs(s.residual(x) - dist) <= 1e-10 * dist + 1e-14


@pytest.mark.parametrize("make", PENCIL_PROBLEMS)
def test_ihat_free_products_match_dense_formulas(make):
    # R = A + Ihat^T X W and X + Ihat Sigma W^T with Ihat = [I; I] built densely
    prob = make()
    n, W = prob.n, prob.w
    Ihat = np.vstack([np.eye(n), np.eye(n)])
    X = np.random.default_rng(22).standard_normal((2 * n, 2 * n))
    R = prob.a + Ihat.T @ X @ W
    assert pencil_residual(prob, X) == pytest.approx(norm(R), rel=1e-12)
    Sigma = -0.5 * np.linalg.solve(W.T @ W, R.T).T
    np.testing.assert_allclose(project_v(X, prob), X + Ihat @ Sigma @ W.T,
                               rtol=0, atol=1e-12 * max(1.0, norm(X)))


# -- constraint column data -------------------------------------------------

def test_build_abc_conjugate_pair_splits_real_imag():
    targets = TargetSpectrum([TargetPair(1j, [1.0, 0.0], conjugate_pair=True)])
    A, B, C = build_abc(np.eye(2), targets)
    np.testing.assert_allclose(A, [[-1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(B, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(C, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_build_abc_real_target():
    M = np.diag([2.0, 3.0])
    y = np.array([1.0, -1.0])
    mu = -0.25
    targets = TargetSpectrum([TargetPair(mu, y, conjugate_pair=False)])
    A, B, C = build_abc(M, targets)
    np.testing.assert_allclose(A[:, 0], M @ y * mu ** 2)
    np.testing.assert_allclose(B[:, 0], y * mu)
    np.testing.assert_allclose(C[:, 0], y)


def test_build_abc_rejects_wrong_eigenvector_length():
    targets = TargetSpectrum([TargetPair(-1.0, [1.0, 2.0, 3.0], conjugate_pair=False)])
    with pytest.raises(ValueError):
        build_abc(np.eye(2), targets)


def test_target_pair_real_with_imag_rejected():
    with pytest.raises(ValueError):
        TargetPair(-0.5 + 0.1j, [1.0], conjugate_pair=False)
    with pytest.raises(ValueError):
        TargetPair(-0.5, [1.0 + 0.1j], conjugate_pair=False)


def test_zero_eigenvector_is_degenerate():
    targets = TargetSpectrum([TargetPair(-0.5, np.zeros(2), conjugate_pair=False)])
    with pytest.raises(ValueError):
        build_problem(PencilData(np.eye(2), np.eye(2), np.eye(2)), targets)


def test_pencil_data_shape_validation():
    with pytest.raises(ValueError):
        PencilData(np.eye(2), np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        PencilData(np.zeros((2, 3)), np.eye(2), np.eye(2))


# -- row exports ------------------------------------------------------------

def test_export_rows_s_n1():
    C, d = export_rows_s(1)
    C = C.toarray()
    assert C.shape == (2, 4)
    # the two off-diagonal entries of the 2x2 variable are pinned to zero
    np.testing.assert_allclose(sorted(np.argmax(C, axis=1)), [1, 2])
    np.testing.assert_allclose(d, 0.0)


def test_export_rows_s_counts_and_membership():
    n = 3
    C, d = export_rows_s(n)
    assert C.shape == (2 * n * n + n * (n - 1), (2 * n) ** 2)
    rng = np.random.default_rng(12)
    member = project_s(rng.standard_normal((2 * n, 2 * n)))
    assert norm(C @ member.reshape(-1) - d) <= 1e-12


def _rows_s_by_loop(n):
    """S's rows built one at a time, in export_rows_s's order."""
    m = 2 * n
    rows = []
    for i in range(m):
        for j in range(m):
            if (i < n) != (j < n):
                rows.append(np.zeros(m * m))
                rows[-1][i * m + j] = 1.0
    for off in (0, n):
        for i in range(n):
            for j in range(i + 1, n):
                rows.append(np.zeros(m * m))
                rows[-1][(off + i) * m + off + j] = 1.0
                rows[-1][(off + j) * m + off + i] = -1.0
    return np.vstack(rows)


@pytest.mark.parametrize("n", [1, 2, 5, 20])
def test_export_rows_s_matches_the_rows_built_one_at_a_time(n):
    C, d = export_rows_s(n)
    C = C.toarray()
    np.testing.assert_array_equal(C, _rows_s_by_loop(n))
    np.testing.assert_array_equal(d, np.zeros(len(C)))


def test_export_rows_v_counts_and_membership():
    prob = small_problem(13)
    C, d = export_rows_v(prob)
    assert C.shape == (prob.n * prob.p, prob.dim)
    rng = np.random.default_rng(14)
    member = project_v(rng.standard_normal((4, 4)), prob)
    assert norm(C @ member.reshape(-1) - d) <= 1e-10


def _rows_v_by_loop(prob):
    """V's rows built one entry (r, c) of the constraint at a time."""
    n, p = prob.n, prob.p
    m = 2 * n
    rows, rhs = np.zeros((n * p, m * m)), np.zeros(n * p)
    for r in range(n):
        for c in range(p):
            row = rows[r * p + c].reshape(m, m)
            row[r, :] += prob.w[:, c]
            row[n + r, :] += prob.w[:, c]
            rhs[r * p + c] = -prob.a[r, c]
    return rows, rhs


@pytest.mark.parametrize("n", [1, 2, 4, 20, 30])
def test_export_rows_v_matches_the_rows_built_one_at_a_time(n):
    prob = small_problem(18, n)
    C, d = export_rows_v(prob)
    loop_C, loop_d = _rows_v_by_loop(prob)
    np.testing.assert_array_equal(C.toarray(), loop_C)
    np.testing.assert_array_equal(d, loop_d)


def test_pencil_sets_check_each_point_for_non_finite_entries_once(monkeypatch):
    prob = small_problem(19)
    x = np.arange(prob.dim, dtype=float)
    check, scans = linalg._check_finite, []
    monkeypatch.setattr(linalg, "_check_finite",
                        lambda v, what: scans.append(np.size(v)) or check(v, what))
    for call in (prob.set_s.project, prob.set_v.project, prob.set_s.residual,
                 prob.set_v.residual):
        scans.clear()
        call(x)
        assert scans.count(prob.dim) == 1


def test_problem_sets_export_same_rows():
    prob = small_problem(15)
    s_rows = prob.set_s.rows()
    v_rows = prob.set_v.rows()
    np.testing.assert_array_equal(s_rows[0].toarray(), export_rows_s(prob.n)[0].toarray())
    np.testing.assert_array_equal(v_rows[0].toarray(), export_rows_v(prob)[0].toarray())
    np.testing.assert_array_equal(v_rows[1], export_rows_v(prob)[1])


# -- residual and update extraction ------------------------------------------

def test_pencil_residual_flat_and_matrix_agree():
    prob = small_problem(16)
    rng = np.random.default_rng(17)
    X = rng.standard_normal((4, 4))
    assert pencil_residual(prob, X) == pencil_residual(prob, prob.flatten(X))


def test_extract_update_recovers_blocks():
    prob = small_problem(18)
    K, D = extract_update(prob.x0)
    np.testing.assert_array_equal(K, prob.pencil.k)
    np.testing.assert_array_equal(D, prob.pencil.d)


def test_objective_splits_over_blocks():
    prob = small_problem(19)
    rng = np.random.default_rng(20)
    Xt = project_s(rng.standard_normal((4, 4)))
    Kt, Dt = extract_update(Xt)
    lhs = norm(prob.x0 - Xt) ** 2
    rhs = norm(prob.pencil.k - Kt) ** 2 + norm(prob.pencil.d - Dt) ** 2
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


# -- published instances -----------------------------------------------------

def test_experiment1_shapes():
    prob, pencil = experiment1()
    assert pencil.n == 4 and prob.p == 2
    assert prob.a.shape == (4, 2) and prob.b.shape == (4, 2) and prob.c.shape == (4, 2)
    assert prob.w.shape == (8, 2) and prob.dim == 64
    for block in (pencil.m, pencil.d, pencil.k):
        np.testing.assert_array_equal(block, np.asarray(block).T)


def test_problem_data_compare_and_hash_by_identity():
    (prob, pencil), (twin_prob, twin) = experiment1(), experiment1()
    pair, spectrum = prob.targets.pairs[0], prob.targets
    objects = [prob, twin_prob, pencil, twin, pair, twin_prob.targets.pairs[0],
               spectrum, twin_prob.targets]
    for a in objects:
        assert a == a and hash(a) == hash(a)
    assert prob != twin_prob and pencil != twin
    assert pair != twin_prob.targets.pairs[0] and spectrum != twin_prob.targets
    seen = {a: i for i, a in enumerate(objects)}
    assert [seen[a] for a in objects] == list(range(len(objects)))


def test_experiment1_quadratic_eigenvalues_match_reference():
    _, pencil = experiment1()
    eigs = pencil_eigenvalues(pencil)
    assert eigs.shape == (8,)
    cost = np.abs(eigs[:, None] - REFERENCE_QUAD_EIGS[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= 1e-3


def test_experiment2_structure():
    prob, pencil = experiment2()
    n = pencil.n
    assert n == 30
    np.testing.assert_array_equal(pencil.m, 4.0 * np.eye(n))
    np.testing.assert_array_equal(pencil.d, 4.0 * np.eye(n))
    # the stiffness matrix annihilates the constant vector exactly
    np.testing.assert_array_equal(pencil.k @ np.ones(n), np.zeros(n))
    np.testing.assert_array_equal(prob.x0[:n, :n], pencil.k)
    np.testing.assert_array_equal(prob.x0[n:, n:], pencil.d)
    assert not prob.x0[:n, n:].any() and not prob.x0[n:, :n].any()


def test_experiment2_original_spectrum():
    _, pencil = experiment2()
    eigs = pencil_eigenvalues(pencil)
    assert eigs.shape == (60,)
    zero = np.abs(eigs).min()
    assert zero <= 1e-10
    nonzero = eigs[np.abs(eigs) > 1e-10]
    assert nonzero.real.max() <= -0.0027 + 1e-4


def test_experiment2_starting_residual():
    prob, _ = experiment2()
    assert abs(pencil_residual(prob, prob.x0) - 0.070704) < 1e-12


# -- trace utilities ----------------------------------------------------------

def test_residual_series_counts_v_projections():
    prob = small_problem(21)
    x0 = prob.flatten(prob.x0)
    r = run_map(prob.sets, x0, stop=StoppingRule(1e-12, 40))
    series = residual_by_v_projection(prob, r)
    # x0 is block-diagonal symmetric, so the first projection fixes it
    assert series[0] == pencil_residual(prob, x0)
    v_total = sum(1 for rec in r.trace
                  if rec.phase == "set-projection" and rec.set_index == 1)
    assert len(series) == v_total + 1
    assert series[-1] <= 0.9 * series[0]


def test_v_projections_to_threshold():
    prob = small_problem(22)
    r = run_map(prob.sets, prob.flatten(prob.x0), stop=StoppingRule(1e-12, 60))
    series = residual_by_v_projection(prob, r)
    m = v_projections_to_threshold(prob, r, series[-1])
    assert m is not None and series[m] <= series[-1]
    assert v_projections_to_threshold(prob, r, -1.0) is None


# -- solver / oracle agreement on a small instance ----------------------------

def test_small_instance_solver_matches_oracle():
    prob = small_problem(23)
    x0 = prob.flatten(prob.x0)
    r = run_alg1(prob.sets, x0, policy=All(), stop=StoppingRule(1e-11, 2000))
    assert r.converged
    p = direct_projection(x0, stack(prob.sets))
    assert norm(r.solution - p) <= 1e-8
    X = prob.unflatten(r.solution)
    Kt, Dt = extract_update(X)
    np.testing.assert_allclose(Kt, Kt.T, atol=1e-9)
    np.testing.assert_allclose(Dt, Dt.T, atol=1e-9)


# -- file ingestion ------------------------------------------------------------

def test_load_problem_json(tmp_path):
    M = [[2.0, 0.1], [0.1, 3.0]]
    D = [[1.0, 0.0], [0.0, 1.0]]
    K = [[4.0, -1.0], [-1.0, 4.0]]
    doc = {"M": M, "D": D, "K": K,
           "targets": [{"mu_re": -0.1, "mu_im": 0.9,
                        "y_re": [1.0, 0.5], "y_im": [0.0, 0.2]}]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    prob, pencil = load_problem_json(path)
    assert prob.p == 2 and pencil.n == 2
    direct = build_problem(
        PencilData(M, D, K),
        TargetSpectrum([TargetPair(-0.1 + 0.9j,
                                   np.array([1.0, 0.5 + 0.2j]),
                                   conjugate_pair=True)]))
    np.testing.assert_allclose(prob.a, direct.a)
    np.testing.assert_allclose(prob.w, direct.w)
    np.testing.assert_allclose(prob.x0, direct.x0)


def test_load_problem_json_real_target(tmp_path):
    doc = {"M": [[1.0]], "D": [[1.0]], "K": [[1.0]],
           "targets": [{"mu_re": -0.5, "y_re": [1.0]}]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    prob, _ = load_problem_json(path)
    assert prob.p == 1
    np.testing.assert_allclose(prob.w, [[1.0], [-0.5]])
