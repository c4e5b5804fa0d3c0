import numpy as np
import pytest

from affproj.linalg import inner, norm
from affproj.oracle import MAX_ROWS, UnsupportedSetError, direct_projection, stack
from affproj.sets import CustomSet, Hyperplane, InfeasibleSetError, RowConstraintSet
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
    opaque = CustomSet(2, lambda x: np.zeros(2))
    with pytest.raises(UnsupportedSetError):
        stack([opaque])


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
