import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from affproj.linalg import inner, norm
from affproj.oracle import direct_projection, stack
from affproj.sets import (AffineSet, Hyperplane, InfeasibleIntersectionError,
                          InfeasibleSetError, RowConstraintSet, _unit_row_factor,
                          project_hyperplane_intersection)


def test_hyperplane_axis_aligned_projection():
    h = Hyperplane([1.0, 0.0], 1.0)
    np.testing.assert_allclose(h.project([2.0, 0.0]), [1.0, 0.0])


def test_hyperplane_member_is_fixed():
    h = Hyperplane([1.0, 2.0], 5.0)
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(h.project(x), x)


def test_a_zero_normal_of_either_sign_raises():
    for zero in ([0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]):
        with pytest.raises(ValueError, match="normal"):
            Hyperplane(zero, 0.0)


def test_zero_normal_with_offset_is_rejected():
    with pytest.raises(ValueError):
        Hyperplane([0.0, 0.0], 1.0)


def test_a_tiny_normal_is_not_zero():
    """Its squared length underflows to 0, so any() decides."""
    h = Hyperplane(np.full(3, 1e-200), 0.0)
    assert np.all(h.normal == 1e-200)


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_a_non_finite_offset_raises(offset):
    with pytest.raises(ValueError, match="offset"):
        Hyperplane([1.0, 0.0], offset)


def test_hyperplane_dimension_mismatch():
    with pytest.raises(ValueError):
        Hyperplane([1.0, 0.0], 0.0).project([1.0, 2.0, 3.0])


def test_hyperplane_is_an_affine_set_with_one_row():
    h = Hyperplane([1.0, 2.0], 3.0)
    assert isinstance(h, AffineSet) and h.dim == 2
    C, d = h.rows()
    np.testing.assert_array_equal(C, [[1.0, 2.0]])
    np.testing.assert_array_equal(d, [3.0])


def test_hyperplanes_compare_and_hash_by_identity():
    h, twin = Hyperplane([1.0, 0.0], 1.0), Hyperplane([1.0, 0.0], 1.0)
    assert h == h and h != twin
    assert hash(h) == hash(h)
    seen = {h: "h", twin: "twin"}
    assert seen[h] == "h" and seen[twin] == "twin"


def test_row_constraint_coordinate_plane():
    p = RowConstraintSet([[1.0, 0.0]], [0.0]).project([3.0, 5.0])
    np.testing.assert_allclose(p, [0.0, 5.0])


def test_row_constraint_member_is_fixed():
    C = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    x = np.array([2.0, 1.0, 3.0])
    p = RowConstraintSet(C, C @ x).project(x)
    np.testing.assert_allclose(p, x, atol=1e-12)


def test_row_constraint_single_row_equals_hyperplane():
    p1 = RowConstraintSet([[1.0, 1.0]], [2.0]).project([0.0, 0.0])
    p2 = Hyperplane([1.0, 1.0], 2.0).project([0.0, 0.0])
    np.testing.assert_allclose(p1, p2, atol=1e-12)
    np.testing.assert_allclose(p1, [1.0, 1.0], atol=1e-12)


def test_row_constraint_inconsistent_raises():
    with pytest.raises(InfeasibleSetError):
        RowConstraintSet([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0]).project([0.0, 0.0])


def test_projection_idempotent_and_orthogonal_to_directions():
    rng = np.random.default_rng(3)
    C = rng.standard_normal((3, 8))
    d = rng.standard_normal(3)
    s = RowConstraintSet(C, d)
    x = rng.standard_normal(8)
    p = s.project(x)
    np.testing.assert_allclose(s.project(p), p, atol=1e-10)
    # x - p is orthogonal to differences of members
    for _ in range(5):
        m1 = s.project(rng.standard_normal(8))
        m2 = s.project(rng.standard_normal(8))
        assert abs(inner(x - p, m1 - m2)) < 1e-9 * max(1.0, norm(x - p) * norm(m1 - m2))


def test_intersection_singleton_matches_single_hyperplane():
    h = Hyperplane([1.0, 2.0], 3.0)
    x = np.array([5.0, -1.0])
    np.testing.assert_allclose(project_hyperplane_intersection(x, [h]),
                               h.project(x), atol=1e-12)


def test_intersection_orthogonal_normals_act_componentwise():
    hs = [Hyperplane([1.0, 0.0, 0.0], 0.0), Hyperplane([0.0, 1.0, 0.0], 0.0)]
    p = project_hyperplane_intersection([1.0, 1.0, 1.0], hs)
    np.testing.assert_allclose(p, [0.0, 0.0, 1.0], atol=1e-12)


def test_intersection_duplicate_family_equals_single():
    hs = [Hyperplane([1.0, 0.0], 1.0), Hyperplane([1.0, 0.0], 1.0)]
    p = project_hyperplane_intersection([3.0, 0.0], hs)
    np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)


def test_intersection_of_no_hyperplanes_returns_the_point():
    x = np.array([3.0, 7.0])
    p = project_hyperplane_intersection(x, [])
    np.testing.assert_array_equal(p, x)
    assert p is not x


def test_intersection_of_inconsistent_family_raises():
    hs = [Hyperplane([1.0, 0.0], 0.0), Hyperplane([2.0, 0.0], 1.0)]
    with pytest.raises(InfeasibleIntersectionError):
        project_hyperplane_intersection([0.0, 0.0], hs)


def test_intersection_membership_on_large_consistent_family():
    rng = np.random.default_rng(4)
    z = rng.standard_normal(50)
    hs = []
    for _ in range(30):
        a = rng.standard_normal(50)
        hs.append(Hyperplane(a, inner(a, z)))
    p = project_hyperplane_intersection(rng.standard_normal(50), hs)
    worst = max(abs(inner(h.normal, p) - h.offset) for h in hs)
    assert worst < 1e-9 * max(1.0, norm(p))


def test_residual_zero_for_member():
    s = RowConstraintSet([[1.0, 0.0]], [2.0])
    assert s.residual([2.0, 9.0]) == pytest.approx(0.0, abs=1e-12)


def test_residual_distance_to_line():
    s = Hyperplane([1.0, 0.0], 1.0)
    assert s.residual([2.0, 0.0]) == pytest.approx(1.0)


def test_residual_matches_projection_distance():
    rng = np.random.default_rng(5)
    C = rng.standard_normal((2, 6))
    d = rng.standard_normal(2)
    s = RowConstraintSet(C, d)
    x = rng.standard_normal(6)
    assert s.residual(x) == pytest.approx(norm(x - s.project(x)))


def test_custom_set_wraps_projector():
    class XAxis(AffineSet):
        dim = 2

        def project(self, x):
            return np.array([x[0], 0.0])

    s = XAxis()
    np.testing.assert_allclose(s.project([3.0, 4.0]), [3.0, 0.0])
    assert s.residual([3.0, 4.0]) == pytest.approx(4.0)
    assert s.rows() is None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_firm_nonexpansiveness_of_projectors(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 10))
    C = rng.standard_normal((int(rng.integers(1, dim)), dim))
    d = rng.standard_normal(C.shape[0])
    s = RowConstraintSet(C, d)
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    assert norm(s.project(x) - s.project(y)) <= norm(x - y) + 1e-9


def test_pythagoras_for_linear_sets():
    rng = np.random.default_rng(6)
    for _ in range(50):
        dim = int(rng.integers(2, 12))
        C = rng.standard_normal((int(rng.integers(1, dim)), dim))
        s = RowConstraintSet(C, np.zeros(C.shape[0]))
        x = rng.standard_normal(dim)
        p = s.project(x)
        lhs = norm(x - p) ** 2 + norm(p) ** 2
        assert lhs == pytest.approx(norm(x) ** 2, rel=1e-9)


def test_chained_projection_equals_joint_projection_inside_subspace():
    # projecting onto a subspace and then onto hyperplanes whose normals
    # are directions of that subspace equals the joint projection
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim = int(rng.integers(4, 14))
        cod = int(rng.integers(1, max(2, dim // 3)))
        C = rng.standard_normal((cod, dim))
        mhat = RowConstraintSet(C, np.zeros(cod))
        _, _, vt = np.linalg.svd(C)
        null_basis = vt[cod:]
        hyps = []
        row_sets = [mhat]
        for _ in range(int(rng.integers(1, 4))):
            a = null_basis.T @ rng.standard_normal(null_basis.shape[0])
            hyps.append(Hyperplane(a, 0.0))
            row_sets.append(RowConstraintSet(a.reshape(1, -1), [0.0]))
        x = rng.standard_normal(dim)
        chained = project_hyperplane_intersection(mhat.project(x), hyps)
        joint = direct_projection(x, stack(row_sets))
        assert norm(chained - joint) < 1e-9 * max(1.0, norm(x))


# -- the factored row set ---------------------------------------------------

EPS = np.finfo(float).eps


def row_family(seed, kind):
    """(C, d, x) for a consistent row set through a random point.

    kind "random" is Gaussian, "dependent" adds a duplicated row and two
    combinations of the others (rank-deficient), "scaled" multiplies the
    whole family by 1e-4 or 1e4, which leaves the set unchanged.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 30))
    C = rng.standard_normal((int(rng.integers(1, dim + 1)), dim))
    if kind == "dependent":
        C = np.vstack([C, C[:1], rng.standard_normal((2, C.shape[0])) @ C])
    elif kind == "scaled":
        C = C * 10.0 ** rng.choice([-4.0, 4.0])
    return C, C @ rng.standard_normal(dim), 3.0 * rng.standard_normal(dim)


def gram_roundoff(C):
    """Relative roundoff of anything solved through C C^T: eps times the
    squared condition number of C on its row space (the singular values
    that survive the RCOND cutoff on the Gram matrix)."""
    sv = np.linalg.svd(C, compute_uv=False)
    kept = sv[sv > 1e-6 * sv[0]]
    return 10.0 * EPS * (kept[0] / kept[-1]) ** 2


FAMILY_KINDS = st.sampled_from(["random", "dependent", "scaled"])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), FAMILY_KINDS)
def test_factored_projection_matches_oracle(seed, kind):
    C, d, x = row_family(seed, kind)
    s = RowConstraintSet(C, d)
    p = s.project(x)
    ref = direct_projection(x, stack([s]))
    assert norm(p - ref) <= (1e-12 + gram_roundoff(C)) * max(1.0, norm(x))
    np.testing.assert_array_equal(RowConstraintSet(C, d).project(x), p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), FAMILY_KINDS)
def test_factored_residual_is_distance_to_projection(seed, kind):
    C, d, x = row_family(seed, kind)
    s = RowConstraintSet(C, d)
    dist = norm(x - s.project(x))
    assert abs(s.residual(x) - dist) <= max(1e-10, gram_roundoff(C)) * dist


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.booleans())
def test_inconsistent_row_set_raises_from_project_and_residual(seed, residual_first):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 20))
    C = rng.standard_normal((int(rng.integers(1, dim)), dim))
    d = C @ rng.standard_normal(dim)
    mix = rng.standard_normal(C.shape[0])
    # a combination of the rows with a right-hand side off by 1
    s = RowConstraintSet(np.vstack([C, mix @ C]), np.append(d, mix @ d + 1.0))
    x = rng.standard_normal(dim)
    calls = [s.residual, s.project]
    if not residual_first:
        calls.reverse()
    for call in calls:
        with pytest.raises(InfeasibleSetError):
            call(x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_rows_of_very_different_lengths_are_consistent(seed):
    """Each row scaled by 10^U(-4, 4): the set is unchanged, so the set and
    the oracle project as with unit rows, and a shifted copy of a short row
    still makes the system inconsistent."""
    rng = np.random.default_rng(seed)
    C, d, x = row_family(seed, "dependent")
    lengths = 10.0 ** rng.uniform(-4.0, 4.0, C.shape[0])
    unit = C / np.linalg.norm(C, axis=1)[:, None]
    ref = x - np.linalg.pinv(unit) @ (unit @ x - d / np.linalg.norm(C, axis=1))
    s = RowConstraintSet(lengths[:, None] * C, lengths * d)
    tol = (1e-12 + gram_roundoff(unit)) * max(1.0, norm(x))
    assert norm(s.project(x) - ref) <= tol
    assert norm(direct_projection(x, stack([s])) - ref) <= tol
    short = int(np.argmin(lengths))
    shifted = RowConstraintSet(np.vstack([s.C, s.C[short]]),
                               np.append(s.d, s.d[short] + 1e-3 * lengths[short]))
    with pytest.raises(InfeasibleSetError):
        shifted.project(x)
    with pytest.raises(InfeasibleSetError):
        direct_projection(x, stack([shifted]))


def test_row_constraint_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        RowConstraintSet([[1.0, 0.0]], [0.0]).project([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        RowConstraintSet([[1.0, 0.0]], [0.0, 1.0]).project([1.0, 2.0])
    with pytest.raises(ValueError):
        RowConstraintSet([[1.0, 0.0]], [0.0]).residual([1.0, 2.0, 3.0])


# -- the orthonormal row basis of a dense row set ---------------------------

def test_the_row_basis_is_orthonormal():
    """A rowfam-size set (40 Gaussian rows in dim 400) keeps U with
    orthonormal rows."""
    rng = np.random.default_rng(97)
    C = rng.standard_normal((40, 400))
    s = RowConstraintSet(C, C @ rng.standard_normal(400))
    s.project(np.zeros(400))
    U = s._basis[0]
    assert U.shape == (40, 400)
    assert np.abs(U @ U.T - np.eye(40)).max() <= 1e-12


def _basis_family(kind):
    """(C, d, x0): 40 Gaussian rows in dim 400 ("gaussian"), 30 of them
    and copies of rows 3, 11 and 29 ("duplicates"), each row scaled by
    1e-8 or 1e8 ("scaled"), or one row ("one-row"); d is C times a
    Gaussian point."""
    rng = np.random.default_rng(41)
    C = rng.standard_normal((1 if kind == "one-row" else 40, 400))
    if kind == "duplicates":
        C = np.vstack([C[:30], C[[3, 11, 29]]])
    elif kind == "scaled":
        C *= 10.0 ** rng.choice([-8.0, 8.0], (40, 1))
    return C, C @ rng.standard_normal(400), 3.0 * rng.standard_normal(400)


@pytest.mark.parametrize("kind", ["gaussian", "duplicates", "scaled", "one-row"])
def test_the_row_basis_projects_like_the_oracle(kind):
    C, d, x0 = _basis_family(kind)
    if kind == "duplicates":
        factor = _unit_row_factor(C, d)[1]
        assert (factor.rank, factor.size) == (30, 33)
    s = RowConstraintSet(C, d)
    ref = direct_projection(x0, (C, d))
    tol = 1e-12 * max(1.0, norm(x0))
    assert norm(s.project(x0) - ref) <= tol
    assert abs(s.residual(x0) - norm(x0 - ref)) <= tol


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_a_residual_makes_no_projection(sparse):
    """residual reads the distance off its own mat-vecs, for a dense or a
    CSR C, without calling project."""
    calls = []

    class CountingSet(RowConstraintSet):
        def project(self, x):
            calls.append(1)
            return super().project(x)

    C, d, x0 = _basis_family("duplicates")
    s = CountingSet(scipy.sparse.csr_matrix(C) if sparse else C, d)
    dist = s.residual(x0)
    assert not calls
    assert dist == pytest.approx(norm(x0 - s.project(x0)), rel=1e-12)
