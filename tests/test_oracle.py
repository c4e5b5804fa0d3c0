import numpy as np
import pytest

from affproj.linalg import GramFactor, inner, lstsq_min_norm, norm
from affproj.mmup import (PencilData, TargetPair, TargetSpectrum, build_problem, experiment1,
                          experiment2)
from affproj.oracle import MAX_ROWS, UnsupportedSetError, direct_projection, stack
from affproj.sets import AffineSet, Hyperplane, InfeasibleSetError, RowConstraintSet
from affproj.solver import All, StoppingRule, run_alg1


def test_stack_single_hyperplane_gives_one_row():
    C, d = stack([Hyperplane([1.0, 2.0], 3.0)])
    assert C.shape == (1, 2)
    np.testing.assert_allclose(C[0], [1.0, 2.0])
    np.testing.assert_allclose(d, [3.0])


def test_stack_two_coordinate_planes_solution_is_axis():
    sets = [RowConstraintSet([[1.0, 0.0, 0.0]], [0.0]),
            RowConstraintSet([[0.0, 1.0, 0.0]], [0.0])]
    rows = stack(sets)
    assert rows[0].shape == (2, 3)
    p = direct_projection([1.0, 1.0, 1.0], rows)
    np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-12)


def test_stack_rejects_sets_without_row_export():
    class Origin(AffineSet):
        """{0} in the plane, with a projector but no row export."""
        dim = 2

        def project(self, x):
            return np.zeros(2)

    with pytest.raises(UnsupportedSetError):
        stack([Origin()])


def test_stack_rejects_dimension_mixes():
    with pytest.raises(ValueError):
        stack([RowConstraintSet([[1.0, 0.0]], [0.0]),
               RowConstraintSet([[1.0, 0.0, 0.0]], [0.0])])


def test_stack_enforces_row_cap():
    C = np.ones((MAX_ROWS + 1, 2))
    d = np.ones(MAX_ROWS + 1)
    with pytest.raises(ValueError):
        stack([RowConstraintSet(C, d)])


def test_feasible_point_is_fixed():
    rng = np.random.default_rng(0)
    C = rng.standard_normal((3, 7))
    z = rng.standard_normal(7)
    np.testing.assert_allclose(direct_projection(z, (C, C @ z)), z, atol=1e-10)


def test_single_hyperplane_matches_closed_form():
    h = Hyperplane([1.0, 1.0], 2.0)
    p = direct_projection([0.0, 0.0], stack([h]))
    np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-12)


def test_inconsistent_stack_raises():
    rows = np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0])
    with pytest.raises(InfeasibleSetError):
        direct_projection([0.0, 0.0], rows)


def test_projection_is_idempotent():
    rng = np.random.default_rng(1)
    C = rng.standard_normal((4, 9))
    z = rng.standard_normal(9)
    rows = C, C @ z
    x0 = rng.standard_normal(9)
    p = direct_projection(x0, rows)
    p2 = direct_projection(p, rows)
    assert norm(p2 - p) <= 1e-10 * max(1.0, norm(p))


def test_variational_orthogonality_against_sampled_members():
    rng = np.random.default_rng(2)
    C = rng.standard_normal((3, 8))
    z = rng.standard_normal(8)
    rows = C, C @ z
    x0 = rng.standard_normal(8)
    p = direct_projection(x0, rows)
    for _ in range(10):
        m = direct_projection(rng.standard_normal(8), rows)
        assert abs(inner(x0 - p, m - p)) < 1e-9 * max(1.0, norm(x0 - p) * norm(m - p))


def test_iterative_and_direct_projections_agree():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(10)
    sets = []
    for _ in range(3):
        C = rng.standard_normal((2, 10))
        sets.append(RowConstraintSet(C, C @ z))
    x0 = rng.standard_normal(10)
    p = direct_projection(x0, stack(sets))
    r = run_alg1(sets, x0, policy=All(), stop=StoppingRule(1e-10, 1000))
    assert r.converged
    assert norm(r.solution - p) <= 1e-8


def _min_norm_reference(x0, C, d):
    """The projection by a min-norm least-squares solve of the same
    unit-row Gram system direct_projection factors."""
    s = 1.0 / np.linalg.norm(C, axis=1)
    G = (s[:, None] * C) @ (s[:, None] * C).T
    return x0 - C.T @ (s * lstsq_min_norm(G, s * (C @ x0 - d)))


def _consistent(C, seed):
    rng = np.random.default_rng(seed)
    return C, C @ rng.standard_normal(C.shape[1]), rng.standard_normal(C.shape[1])


def _random_stack(seed, duplicates=None):
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((30, 50))
    if duplicates == "end":
        C = np.vstack([C, C[[3, 17, 29]]])
    elif duplicates == "start":
        C = np.vstack([C[[3, 17, 29]], C])
    return _consistent(C, seed + 1)


def _low_rank_stack(seed):
    rng = np.random.default_rng(seed)
    return _consistent(rng.standard_normal((40, 8)) @ rng.standard_normal((8, 50)), seed + 1)


def _pencil_stack(prob):
    C, d = stack(prob.sets)
    return C, d, prob.flatten(prob.x0)


def _chain_twin(n=20):
    """A uniform spring chain of n masses with its rigid mode moved to
    -0.018 and one conjugate target pair: 1 240 stacked rows at n = 20."""
    K = np.diag(np.r_[1.0, 2.0 * np.ones(n - 2), 1.0])
    K += np.diag(-np.ones(n - 1), 1) + np.diag(-np.ones(n - 1), -1)
    re, im = np.linalg.qr(np.random.default_rng(97).standard_normal((n, 2)))[0].T
    targets = TargetSpectrum([
        TargetPair(-0.018, np.ones(n) / np.sqrt(n), conjugate_pair=False),
        TargetPair(complex(-0.3, 0.75), (re + 1j * im) / np.sqrt(2.0), conjugate_pair=True),
    ])
    return build_problem(PencilData(4.0 * np.eye(n), 4.0 * np.eye(n), K), targets)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _random_stack(0), id="full-rank"),
    pytest.param(lambda: _random_stack(1, "end"), id="duplicates-at-end"),
    pytest.param(lambda: _random_stack(2, "start"), id="duplicates-at-start"),
    pytest.param(lambda: _low_rank_stack(3), id="low-rank"),
    pytest.param(lambda: _pencil_stack(experiment1()[0]), id="experiment1"),
    pytest.param(lambda: _pencil_stack(experiment2()[0]), id="experiment2"),
    pytest.param(lambda: _pencil_stack(_chain_twin()), id="pencil-twin"),
])
def test_cholesky_oracle_matches_the_min_norm_solve(make):
    C, d, x0 = make()
    p = direct_projection(x0, (C, d))
    assert norm(p - _min_norm_reference(x0, C, d)) <= 1e-12 * max(1.0, norm(x0))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _random_stack(4, "end"), id="duplicate-with-another-rhs"),
    pytest.param(lambda: _low_rank_stack(5), id="low-rank-off-range"),
])
def test_inconsistent_stacks_raise(make):
    C, d, x0 = make()
    d = d.copy()
    d[-1] += 1e-3
    with pytest.raises(InfeasibleSetError):
        direct_projection(x0, (C, d))


def _near_parallel(gap, seed):
    """(C, d, x0): a consistent family of 10 Gaussian rows in dim 30 and an
    11th row `gap` times the length of row 0 away from it."""
    rng = np.random.default_rng([seed, 7])
    C = rng.standard_normal((10, 30))
    u = rng.standard_normal(30)
    return _consistent(np.vstack([C, C[0] + gap * norm(C[0]) * u / norm(u)]), seed)


def _near_parallel_miss(project, gap, seed):
    """Relative distance from the exact projection, np.linalg.lstsq on C,
    of project(C, d, x0) on the near-parallel family of (gap, seed)."""
    C, d, x0 = _near_parallel(gap, seed)
    exact = x0 - np.linalg.lstsq(C, C @ x0 - d, rcond=None)[0]
    return norm(project(C, d, x0) - exact) / max(1.0, norm(x0))


_PROJECTORS = {
    "direct_projection": lambda C, d, x0: direct_projection(x0, (C, d)),
    "RowConstraintSet": lambda C, d, x0: RowConstraintSet(C, d).project(x0),
}

# Both projectors square the conditioning through the unit-row Gram matrix.
# At 1e-9 to 1e-6 the rank rule drops a unit row within 1e-6 of the span of
# the rows before it, and then the feasibility check decides.
_MISSED = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="the dropped row passes the feasibility check, and the "
                            "point returned is 0.31 from the exact projection")
_RAISED = pytest.mark.xfail(strict=True, raises=InfeasibleSetError,
                            reason="the feasibility check sees the dropped row missed by more "
                            "than 1e-8")
_NEAR_PARALLEL_FAILS = {
    1e-9: _MISSED, 1e-8: _MISSED, 1e-7: _RAISED, 1e-6: _RAISED,
    1e-5: pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="the row is kept, but the Gram solve squares cond(C): "
                            "seed 2 misses by 5.1e-7"),
}


@pytest.mark.parametrize("name,gap", [
    pytest.param(name, gap, id=f"{name}-{gap:g}", marks=_NEAR_PARALLEL_FAILS.get(gap, ()))
    for name in _PROJECTORS for gap in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)])
def test_near_parallel_rows_project_like_lstsq_on_c(name, gap):
    # the first failing seed decides the outcome of the failing ids
    for seed in range(20):
        assert _near_parallel_miss(_PROJECTORS[name], gap, seed) <= 5e-7


def _project_or_none(project, C, d, x0):
    try:
        return project(C, d, x0)
    except InfeasibleSetError:
        return None


@pytest.mark.parametrize("gap", [1e-9, 1e-8, 1e-7, 1e-6, 1.5e-6, 2e-6, 3e-6, 1e-5, 1e-4])
def test_row_set_raises_and_projects_like_the_oracle(gap):
    """RowConstraintSet and direct_projection factor a unit-row system the
    same way: one raises InfeasibleSetError exactly when the other does,
    and otherwise their points agree to roundoff, right or wrong."""
    for seed in range(20):
        C, d, x0 = _near_parallel(gap, seed)
        p = _project_or_none(_PROJECTORS["direct_projection"], C, d, x0)
        q = _project_or_none(_PROJECTORS["RowConstraintSet"], C, d, x0)
        assert (p is None) == (q is None), f"seed {seed}"
        if p is not None:
            assert norm(p - q) <= 1e-9 * max(1.0, norm(x0)), f"seed {seed}"


def test_direct_projection_rejects_offsets_of_another_length():
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        direct_projection([3.0, 4.0], (C, np.array([1.0])))


def test_stack_names_the_set_whose_export_disagrees_with_itself():
    class Misfit(AffineSet):
        """A set whose rows() gives C and d of different lengths."""
        dim = 4

        def __init__(self, m, n):
            self.C, self.d = np.eye(4)[:m], np.ones(n)

        def rows(self):
            return self.C, self.d

    for sets, k in (([Misfit(3, 2), Misfit(2, 3)], 0), ([Misfit(2, 2), Misfit(2, 3)], 1)):
        with pytest.raises(ValueError, match=f"set {k} exports"):
            stack(sets)


def test_stack_rejects_an_empty_family():
    with pytest.raises(ValueError, match="the family has no sets"):
        stack([])


def test_a_full_rank_stack_makes_no_consistency_solve(monkeypatch):
    """A system of full row rank is consistent, so the factor that keeps
    every row is not solved to check it: a set's first projection makes no
    solve, and the oracle makes only its own."""
    solve, calls = GramFactor.solve, []
    monkeypatch.setattr(GramFactor, "solve", lambda f, rhs: calls.append(f.size) or solve(f, rhs))
    rng = np.random.default_rng(11)
    C = rng.standard_normal((40, 100))
    d = C @ rng.standard_normal(100)
    x0 = rng.standard_normal(100)
    p = RowConstraintSet(C, d).project(x0)
    assert calls == []
    q = direct_projection(x0, (C, d))
    assert calls == [40]
    assert norm(p - q) <= 1e-12 * norm(x0)


@pytest.mark.parametrize("dependent", ["duplicate", "combination"])
def test_an_inconsistent_stack_with_a_dependent_row_raises_from_set_and_oracle(dependent):
    rng = np.random.default_rng(12)
    C = rng.standard_normal((6, 20))
    d = C @ rng.standard_normal(20)
    mix = np.eye(6)[2] if dependent == "duplicate" else rng.standard_normal(6)
    C, d = np.vstack([C, mix @ C]), np.append(d, mix @ d + 1e-3)
    x0 = rng.standard_normal(20)
    with pytest.raises(InfeasibleSetError):
        direct_projection(x0, (C, d))
    for call in (RowConstraintSet(C, d).project, RowConstraintSet(C, d).residual):
        with pytest.raises(InfeasibleSetError):
            call(x0)
