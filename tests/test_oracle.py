import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from affproj import oracle, sets
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


def test_stack_checks_the_cap_before_a_later_export_or_a_concatenation(monkeypatch):
    """A family whose first export is over the cap raises before the next
    set is exported and before anything is concatenated: an n = 45 chain
    used to build its whole 6 165-row stack first."""
    exported = []

    class Spy(AffineSet):
        dim = 2

        def rows(self):
            exported.append(self)
            return np.eye(2), np.zeros(2)

    def concatenated(*args, **kwargs):
        raise AssertionError("stack concatenated its blocks")

    monkeypatch.setattr(oracle, "MAX_ROWS", 10)
    monkeypatch.setattr(np, "vstack", concatenated)
    monkeypatch.setattr(np, "concatenate", concatenated)
    with pytest.raises(ValueError, match="11 rows after set 0, above the cap of 10"):
        stack([RowConstraintSet(np.ones((11, 2)), np.ones(11)), Spy()])
    assert exported == []


def test_stack_refuses_the_n45_chain_without_a_dense_export():
    """S's export on the n = 45 chain has 6 030 rows, above the cap, and is
    refused before V is exported; a dense S export of 6 030 x 8 100 took
    391 MB before the cap could refuse it."""
    family = _chain_twin(45).sets
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="6030 rows after set 0, above the cap"):
            stack(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


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
    unit-row Gram system direct_projection factors, on a dense C."""
    if scipy.sparse.issparse(C):
        C = C.toarray()
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


def _prefix_stack(seed, zero_row=None, dependent=False, shift_row=None):
    """(C, d, x0), C in CSR form in dim 120: 80 coordinate rows of random
    lengths (mutually orthogonal), then 20 coupling rows with 10% Gaussian
    entries.  zero_row empties one coordinate row; dependent appends a
    copy of coordinate row 3 and a combination of two coupling rows, which
    the factor leaves out.  shift_row moves the offset of that appended
    row (-2 or -1) by 1e-3, which makes the system inconsistent."""
    rng = np.random.default_rng([seed, 24])
    C = np.zeros((100, 120))
    C[np.arange(80), rng.permutation(120)[:80]] = rng.uniform(0.5, 2.0, 80)
    C[80:] = np.where(rng.random((20, 120)) < 0.1, rng.standard_normal((20, 120)), 0.0)
    if zero_row is not None:
        C[zero_row] = 0.0
    if dependent:
        C = np.vstack([C, C[3], 2.0 * C[81] - C[95]])
    d = C @ rng.standard_normal(120)
    if shift_row is not None:
        d[shift_row] += 1e-3
    return scipy.sparse.csr_matrix(C), d, rng.standard_normal(120)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _random_stack(0), id="full-rank"),
    pytest.param(lambda: _random_stack(1, "end"), id="duplicates-at-end"),
    pytest.param(lambda: _random_stack(2, "start"), id="duplicates-at-start"),
    pytest.param(lambda: _low_rank_stack(3), id="low-rank"),
    pytest.param(lambda: _pencil_stack(experiment1()[0]), id="experiment1"),
    pytest.param(lambda: _pencil_stack(experiment2()[0]), id="experiment2"),
    pytest.param(lambda: _pencil_stack(_chain_twin()), id="pencil-twin"),
    pytest.param(lambda: _prefix_stack(1, dependent=True), id="dependent-coupling-rows"),
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


def _sparse_stack(seed, shift=0.0):
    """(C, d, x0): 800 rows in dim 1 400, 0.4% Gaussian entries and 2 added
    on the diagonal (full row rank), then rows 3, 17 and 29 again (the
    copy of row 29 with d moved by shift): 803 x 1 400 = 1 124 200
    entries, 0.47% nonzero, so the CSR path forms the Gram matrix."""
    rng = np.random.default_rng(seed)
    C = np.where(rng.random((800, 1400)) < 0.004, rng.standard_normal((800, 1400)), 0.0)
    C[np.arange(800), np.arange(800)] += 2.0
    C = np.vstack([C, C[[3, 17, 29]]])
    d = C @ rng.standard_normal(1400)
    d[-1] += shift
    return C, d, rng.standard_normal(1400)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _pencil_stack(_chain_twin()), id="chain-n20"),
    pytest.param(lambda: _pencil_stack(experiment2()[0]), id="experiment2"),
    pytest.param(lambda: _sparse_stack(0), id="sparse-with-duplicates"),
])
def test_the_sparse_gram_factors_like_the_dense_one(make, monkeypatch):
    C, d, _ = make()
    A, s, sparse = sets._unit_row_factor(C, d)
    assert scipy.sparse.issparse(A)
    C = C.toarray() if scipy.sparse.issparse(C) else C
    monkeypatch.setattr(sets, "SPARSE_MIN_ENTRIES", np.iinfo(np.int64).max)  # no stack is large
    B, t, dense = sets._unit_row_factor(C, d)
    assert B is C
    r = dense.rank
    assert (sparse.rank, sparse.size) == (r, dense.size)
    np.testing.assert_array_equal(sparse.kept[:r], dense.kept[:r])
    # unit rows: every entry of L is at most 1, so atol is relative to the largest
    np.testing.assert_allclose(sparse.L[:r, :r], dense.L[:r, :r], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(s, t, rtol=1e-12)


def test_an_inconsistent_sparse_stack_raises_from_oracle_and_set():
    C, d, x0 = _sparse_stack(1, shift=1e-3)
    assert sets._sparse_copy(C) is not None
    with pytest.raises(InfeasibleSetError):
        direct_projection(x0, (C, d))
    with pytest.raises(InfeasibleSetError):
        RowConstraintSet(C, d).project(x0)


def test_the_dense_gram_is_c_times_its_transpose_bit_for_bit():
    rng = np.random.default_rng(13)
    C = rng.standard_normal((160, 400))
    A, s, factor = sets._unit_row_factor(C, C @ rng.standard_normal(400))
    assert A is C
    G = C @ C.T
    lengths = np.sqrt(np.diag(G))
    np.testing.assert_array_equal(s, 1.0 / lengths)
    G *= s[:, None]
    G *= s
    np.testing.assert_array_equal(factor.L, GramFactor.of(G).L)


def _dense(C, d, x0):
    return C.toarray(), d, x0


@pytest.mark.parametrize("make,sparse", [
    pytest.param(lambda: _dense(*_pencil_stack(_chain_twin())), True, id="pencil-twin"),
    pytest.param(lambda: _sparse_stack(2), True, id="sparse-with-duplicates"),
    pytest.param(lambda: _consistent(np.random.default_rng(14).standard_normal((160, 400)), 14),
                 False, id="gaussian-160x400"),
    pytest.param(lambda: _consistent(np.random.default_rng(15).standard_normal((1100, 1000)),
                                     15), False, id="gaussian-1100x1000"),
    pytest.param(lambda: _consistent(np.eye(1000)[:900], 16), False, id="small-identity"),
])
def test_the_gram_path_follows_size_and_density(make, sparse, monkeypatch):
    """Only a dense stack of at least 2^20 entries, at most 1% of them
    nonzero, is copied to CSR (the pencil twin's, made dense); a smaller
    one takes the dense path however sparse it is (900 x 1 000 identity
    rows, 0.1%), and a large dense one after its one scan."""
    C, d, x0 = make()
    copies = []
    csr_matrix = scipy.sparse.csr_matrix
    monkeypatch.setattr(scipy.sparse, "csr_matrix",
                        lambda *a, **k: copies.append(1) or csr_matrix(*a, **k))
    direct_projection(x0, (C, d))
    assert copies == ([1] if sparse else [])


@pytest.mark.parametrize("make,h,left_out", [
    pytest.param(lambda: _pencil_stack(_chain_twin()), 1180, 0, id="pencil-twin"),
    pytest.param(lambda: _pencil_stack(experiment2()[0]), 2670, 0, id="experiment2"),
    pytest.param(lambda: _prefix_stack(0, zero_row=40), 40, 1, id="prefix-ends-at-a-zero-row"),
    pytest.param(lambda: _prefix_stack(1, dependent=True), 80, 2, id="dependent-coupling-rows"),
])
def test_the_block_factor_matches_the_whole_factor(make, h, left_out, monkeypatch):
    """The CSR path hands GramFactor.of the h leading mutually orthogonal
    rows; factoring that block in closed form keeps the same rows, and the
    same L up to roundoff, as one dpotrf on the whole Gram matrix.  A zero
    row ends the block; rows that repeat a block row or depend on other
    coupling rows fail their pivot and leave through the append path."""
    C, d, _ = make()
    seen, of = [], GramFactor.of
    monkeypatch.setattr(GramFactor, "of", lambda G, lead=0: seen.append((G, lead)) or of(G, lead))
    sets._unit_row_factor(C, d)
    [(G, found)] = seen
    assert found == h
    block, whole = of(G, h), of(G)
    r = whole.rank
    assert (block.rank, block.size) == (r, whole.size) == (G.shape[0] - left_out, G.shape[0])
    np.testing.assert_array_equal(block.kept[:r], whole.kept[:r])
    # unit rows: every entry of L is at most 1, so atol is relative to the largest
    np.testing.assert_allclose(block.L[:r, :r], whole.L[:r, :r], rtol=1e-12, atol=1e-12)


def test_the_twin_oracle_call_makes_no_k_by_k_array():
    """The twin's 1 180 orthogonal rows stay a diagonal block of the factor:
    neither the 1 240 x 1 240 Gram matrix nor L (12 MB each) is made dense.
    Stack and oracle call peaked at 25.5 MB traced when both were."""
    prob = _chain_twin()
    x0 = prob.flatten(prob.x0)
    tracemalloc.start()
    try:
        direct_projection(x0, stack(prob.sets))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


@pytest.mark.parametrize("family,sparse", [
    pytest.param(lambda: experiment1()[0].sets, False, id="experiment1"),
    pytest.param(lambda: _chain_twin(7).sets, False, id="chain-n7"),
    pytest.param(lambda: _chain_twin(8).sets, True, id="chain-n8"),
    pytest.param(lambda: _chain_twin().sets, True, id="chain-n20"),
])
def test_a_small_stack_is_dense_even_with_a_sparse_export(family, sparse):
    """Below SPARSE_STACK_MIN_ENTRIES (2^15) entries the stack is dense,
    although its S export is CSR: experiment 1's 52 x 64 stack and the
    n = 7 chain's 161 x 196.  From the n = 8 chain's 208 x 256 up it is
    CSR, where the CSR stack and oracle call are faster."""
    C, _ = stack(family())
    assert (C.shape[0] * C.shape[1] >= oracle.SPARSE_STACK_MIN_ENTRIES) == sparse
    if sparse:
        assert scipy.sparse.issparse(C) and C.format == "csr"
    else:
        assert isinstance(C, np.ndarray)


def test_a_large_sparse_row_set_projects_like_the_oracle():
    """A dense-stored C large and sparse enough for the CSR path factors with
    a leading orthogonal block (h = 4 of 803 rows here, three left out), so
    the set's triangular inverse reads the L that the factor assembles."""
    C, d, x0 = _sparse_stack(3)
    assert sets._unit_row_factor(C, d)[2].h > 0
    p = RowConstraintSet(C, d).project(x0)
    assert norm(p - direct_projection(x0, (C, d))) <= 1e-12 * max(1.0, norm(x0))


@pytest.mark.parametrize("row", [pytest.param(-2, id="repeated-block-row"),
                                 pytest.param(-1, id="dependent-coupling-row")])
def test_an_inconsistent_coupling_row_raises_from_the_oracle(row):
    C, d, x0 = _prefix_stack(2, dependent=True, shift_row=row)
    with pytest.raises(InfeasibleSetError):
        direct_projection(x0, (C, d))
