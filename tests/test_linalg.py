import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affproj.linalg import (GramFactor, SpanBasis, as_matrix, as_point, gram_solve, inner,
                            lstsq_min_norm, norm)


def test_inner_orthogonal_vectors():
    assert inner([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_inner_with_itself_is_squared_norm():
    assert inner([2.0, 3.0], [2.0, 3.0]) == 13.0


def test_inner_direct_summation():
    assert inner([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner([1.0, 2.0], [1.0, 2.0, 3.0])


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(0)
    x, y, z = rng.standard_normal((3, 6))
    assert inner(x, y) == pytest.approx(inner(y, x))
    assert inner(x, 2.0 * y + z) == pytest.approx(2.0 * inner(x, y) + inner(x, z))


def test_as_point_rejects_non_finite():
    with pytest.raises(ValueError):
        as_point([1.0, np.nan])
    with pytest.raises(ValueError):
        as_point([np.inf, 0.0])


def _scan_is_finite(v):
    """The full scan the one-dot check replaces."""
    return bool(np.all(np.isfinite(v)))


@pytest.mark.parametrize("check", [as_point, lambda v: as_matrix(v.reshape(3, 3)),
                                   lambda v: as_matrix(v.reshape(3, 3).T)],
                         ids=["as_point", "as_matrix", "as_matrix-transposed"])
@pytest.mark.parametrize("position", [0, 4, 8], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_one_non_finite_entry_anywhere_raises(check, position, bad):
    v = np.arange(1.0, 10.0)
    v[position] = bad
    assert not _scan_is_finite(v)
    with pytest.raises(ValueError, match="non-finite"):
        check(v)


# a square of 1e200 overflows, so numpy warns before the scan decides
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
@pytest.mark.parametrize("entries", [[1e200, -1e200, 3.0], [-1e200], [1e-200, -1e-200, 0.0],
                                     np.full(400, 1e153), []],
                         ids=["1e200", "-1e200", "1e-200", "1e153-sum-overflows", "empty"])
def test_finite_entries_are_accepted_whatever_their_size(entries):
    v = np.array(entries, dtype=float)
    assert _scan_is_finite(v)
    assert as_point(v) is v
    for m in (v.reshape(1, -1), v.reshape(-1, 1)):
        assert as_matrix(m) is m


def test_as_matrix_accepts_a_transposed_view_as_it_is():
    t = np.arange(12.0).reshape(3, 4).T
    assert not t.flags.c_contiguous
    assert as_matrix(t) is t


def test_as_matrix_names_the_matrix_it_rejects():
    with pytest.raises(ValueError, match="pencil matrix k contains non-finite entries"):
        as_matrix([[np.nan]], "pencil matrix k")


def _layouts():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal((7, 5))
    return [("1-d", a[0], b[0]), ("2-d", a, b), ("transposed", a.T, b.T),
            ("strided", a[::2, 1::2], b[::2, 1::2]),
            ("strided-1-d", a.ravel()[::3], b.ravel()[::3])]


@pytest.mark.parametrize("name,x,y", _layouts(), ids=[t[0] for t in _layouts()])
def test_norm_and_inner_are_bit_identical_to_numpy(name, x, y):
    assert norm(x) == np.linalg.norm(x)
    assert inner(x, y) == np.dot(x.ravel(), y.ravel())


def test_lstsq_identity_system():
    x = lstsq_min_norm(np.eye(2), [3.0, 4.0])
    np.testing.assert_allclose(x, [3.0, 4.0])


def test_lstsq_duplicated_row_picks_min_norm():
    x = lstsq_min_norm([[1.0, 0.0], [1.0, 0.0]], [2.0, 2.0])
    np.testing.assert_allclose(x, [2.0, 0.0], atol=1e-12)


def test_lstsq_underdetermined_matches_normal_equations():
    C = np.array([[1.0, 1.0]])
    d = np.array([2.0])
    x = lstsq_min_norm(C, d)
    expected = C.T @ np.linalg.solve(C @ C.T, d)
    np.testing.assert_allclose(x, expected, atol=1e-12)
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_lstsq_dimension_mismatch():
    with pytest.raises(ValueError):
        lstsq_min_norm(np.eye(3), [1.0, 2.0])


def test_lstsq_consistent_full_rank_solves_exactly():
    rng = np.random.default_rng(1)
    C = rng.standard_normal((8, 8))
    d = rng.standard_normal(8)
    x = lstsq_min_norm(C, d)
    assert norm(C @ x - d) < 1e-10 * max(1.0, norm(d))


@pytest.mark.parametrize("rows,cols,consistent", [
    (10, 10, True), (30, 50, False), (50, 30, False), (50, 50, True),
])
def test_lstsq_beats_random_candidates(rows, cols, consistent):
    rng = np.random.default_rng(rows * 100 + cols)
    C = rng.standard_normal((rows, cols))
    if consistent:
        d = C @ rng.standard_normal(cols)
    else:
        d = rng.standard_normal(rows)
    x = lstsq_min_norm(C, d)
    best = norm(C @ x - d)
    candidates = rng.standard_normal((1000, cols))
    cand_resid = np.linalg.norm(candidates @ C.T - d, axis=1)
    assert best <= cand_resid.min() + 1e-9


def factor_of(vectors):
    A = np.vstack(vectors)
    return GramFactor.of(A @ A.T)


def test_gram_single_vector():
    lam = gram_solve(factor_of([np.array([1.0, 0.0])]), [2.0])
    np.testing.assert_allclose(lam, [2.0])


def test_gram_orthonormal_family_is_identity_system():
    lam = gram_solve(factor_of([np.array([1.0, 0.0]), np.array([0.0, 1.0])]), [3.0, 4.0])
    np.testing.assert_allclose(lam, [3.0, 4.0])


def test_gram_duplicated_normal_stays_out_of_the_factor():
    a = np.array([1.0, 0.0])
    lam = gram_solve(factor_of([a, a]), [2.0, 2.0])
    np.testing.assert_array_equal(lam, [2.0, 0.0])
    # the combination matches what a single copy would produce
    np.testing.assert_allclose(lam[0] * a + lam[1] * a, [2.0, 0.0], atol=1e-12)


def test_gram_empty_family():
    assert gram_solve(GramFactor(), []).shape == (0,)
    np.testing.assert_array_equal(gram_solve(GramFactor.of(np.zeros((0, 0))), []), np.zeros(0))


def test_gram_full_rank_matches_direct_solve():
    rng = np.random.default_rng(2)
    vecs = list(rng.standard_normal((4, 9)))
    rhs = rng.standard_normal(4)
    lam = gram_solve(factor_of(vecs), rhs)
    A = np.vstack(vecs)
    direct = np.linalg.solve(A @ A.T, rhs)
    np.testing.assert_allclose(lam, direct, rtol=1e-10, atol=1e-12)


def factor_by_rows(G):
    f = GramFactor()
    for j in range(len(G)):
        f.append(G[j, :j + 1])
    return f


@pytest.mark.parametrize("repeat", [False, True])
def test_gram_factor_of_a_whole_gram_equals_the_one_grown_row_by_row(repeat):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 9))
    if repeat:
        A[3] = A[1]  # a zero pivot: GramFactor.of appends rows 3 and 4 one by one
    G = A @ A.T
    whole, grown = GramFactor.of(G), factor_by_rows(G)
    assert whole.rank == grown.rank == 5 - repeat
    np.testing.assert_array_equal(whole.kept[:whole.rank], grown.kept[:grown.rank])
    r = whole.rank
    np.testing.assert_allclose(np.tril(whole.L[:r, :r]), grown.L[:r, :r], rtol=1e-12)


@pytest.mark.parametrize("gaps", [(0.0, 0.0), (1e-9, 0.0), (1e-9, 1e-9)],
                         ids=["dpotrf-stops-at-25", "dpotrf-stops-at-33", "dpotrf-finishes"])
def test_gram_factor_of_keeps_the_whole_factor_before_a_late_failing_pivot(gaps, monkeypatch):
    """Row 25 is row 3 plus row 7 and row 33 is twice row 11, each plus gap
    times a random row, so row 25's pivot is the first to fail the rank rule;
    dpotrf stops at the first exactly dependent row, or finishes.
    GramFactor.of keeps the dpotrf factor of rows 0-24, appends only rows
    25-39, and ends where the row-by-row factor does."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 60))
    noise = rng.standard_normal((2, 60))
    A[25] = A[3] + A[7] + gaps[0] * noise[0]
    A[33] = 2.0 * A[11] + gaps[1] * noise[1]
    G = A @ A.T
    appended = []
    append = GramFactor.append

    def counted_append(self, g):
        appended.append(g.shape[0] - 1)
        append(self, g)

    monkeypatch.setattr(GramFactor, "append", counted_append)
    whole = GramFactor.of(G)
    assert appended == list(range(25, 40))
    grown = factor_by_rows(G)
    assert whole.rank == grown.rank == 38
    np.testing.assert_array_equal(whole.kept[:whole.rank], grown.kept[:grown.rank])
    r = whole.rank
    np.testing.assert_allclose(np.tril(whole.L[:r, :r]), grown.L[:r, :r], rtol=1e-12)


def test_gram_factor_solve_matches_the_min_norm_solve():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 9))
    rhs = rng.standard_normal(4)
    np.testing.assert_allclose(gram_solve(GramFactor.of(A @ A.T), rhs),
                               lstsq_min_norm(A @ A.T, rhs), rtol=1e-10, atol=1e-12)
    # a repeated row stays out; the correction sum_j lam_j a_j is unchanged
    B = np.vstack([A, A[2]])
    rhs_b = np.append(rhs, rhs[2])
    lam = gram_solve(GramFactor.of(B @ B.T), rhs_b)
    assert lam[4] == 0.0
    np.testing.assert_allclose(B.T @ lam, B.T @ lstsq_min_norm(B @ B.T, rhs_b), rtol=1e-10,
                               atol=1e-12)


def test_gram_factor_rank_rule_judges_each_row_against_the_rows_before_it():
    """A row leaves the factor when its pivot is <= RCOND times the largest
    Gram diagonal entry so far: a nearly parallel copy (pivot 1e-14) and a
    row 1e-7 times the length of an earlier one stay out, a pivot of 1e-10
    stays in, and an earlier short row stays in next to a later long one."""
    e = np.eye(4)
    rows = [e[0], e[0] + 1e-7 * e[1], e[0] + 1e-5 * e[1], 1e-7 * e[2], 1e9 * e[3]]
    A = np.vstack(rows)
    f = factor_by_rows(A @ A.T)
    assert f.rank == 3
    assert list(f.kept[:3]) == [0, 2, 4]
    short_first = np.vstack([e[0], 1e9 * e[1]])
    assert GramFactor.of(short_first @ short_first.T).rank == 2


def test_gram_solve_rejects_a_factor_of_another_size():
    with pytest.raises(ValueError):
        gram_solve(GramFactor.of(np.eye(3)), [1.0, 2.0])
    with pytest.raises(ValueError):
        GramFactor().append(np.ones(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
def test_cauchy_schwarz(xs, ys):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n])
    y = np.array(ys[:n])
    assert abs(inner(x, y)) <= norm(x) * norm(y) + 1e-6 * (1.0 + norm(x) * norm(y))


def test_span_basis_grown_row_by_row_matches_one_extend():
    """Rows added one at a time or all at once span the same space: an
    exact repeat adds no rank, and the residual is the least-squares one."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 9))
    A = np.vstack([A, A[1], 1e3 * A[2]])
    v = rng.standard_normal(9)
    whole, grown = SpanBasis(9, 6), SpanBasis(9, 6)
    whole.extend(list(A))
    for a in A:
        grown.extend([a])
    np.testing.assert_array_equal(grown.rows, A)
    ref = norm(v - A.T @ lstsq_min_norm(A.T, v))
    for b in (whole, grown):
        assert b.rank == 4
        np.testing.assert_allclose(b.Q[:4] @ b.Q[:4].T, np.eye(4), atol=1e-14)
        assert abs(b.residual(v) - ref) <= 1e-12 * norm(v)
    with pytest.raises(ValueError, match="capacity"):
        grown.extend([A[0]])
    grown.reset()
    assert grown.size == grown.rank == 0 and grown.residual(v) == norm(v)
