import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affproj import diagnostics, linalg, mmup
from affproj.diagnostics import (StepDecomposition, check_b_prime, check_condition_b,
                                 condition_report, count_fejer_violations,
                                 running_sum_of_squares, step_decompositions)
from affproj.linalg import RCOND, lstsq_min_norm, norm
from affproj.oracle import direct_projection, stack
from affproj.sets import Hyperplane, RowConstraintSet
from affproj.solver import All, LastQ, StoppingRule, run_alg1, run_alg2, run_map


def random_family(seed, dim=10, k=3, codim=2):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    sets = [RowConstraintSet(C := rng.standard_normal((codim, dim)), C @ z)
            for _ in range(k)]
    return sets, rng.standard_normal(dim), z


def test_fejer_constant_trace_has_zero_margin():
    p = np.array([1.0, 2.0])
    assert count_fejer_violations([p, p, p], [0.0, 0.0])[1] == 0.0


def test_fejer_detects_a_corrupted_trace():
    m = np.zeros(2)
    good = [np.array([4.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 0.0])]
    assert count_fejer_violations(good, m)[1] <= 0.0
    corrupted = [good[0], good[1], np.array([3.0, 0.0])]
    assert count_fejer_violations(corrupted, m)[1] == pytest.approx(1.0)
    viol, worst = count_fejer_violations(corrupted, m)
    assert viol == 1 and worst == pytest.approx(1.0)


def test_fejer_nonpositive_on_alternating_projection_runs():
    sets, x0, member = random_family(1)
    r = run_map(sets, x0, stop=StoppingRule(1e-10, 2000))
    assert r.converged
    assert count_fejer_violations(r.points(), member)[1] <= 1e-9


def test_condition_b_zero_when_nothing_moved():
    x0 = np.array([1.0, 2.0, 3.0])
    assert check_condition_b(x0, x0, [np.array([1.0, 0.0, 0.0])]) == 0.0


def test_condition_b_measures_span_distance():
    x0 = np.array([1.0, 1.0, 0.0])
    xi = np.zeros(3)
    # x0 - xi = (1,1,0); the single normal spans the first axis only
    res = check_condition_b(x0, xi, [np.array([2.0, 0.0, 0.0])])
    assert res == pytest.approx(1.0)
    # adding the second axis closes the gap
    res2 = check_condition_b(x0, xi, [np.array([2.0, 0.0, 0.0]),
                                      np.array([0.0, 1.0, 0.0])])
    assert res2 == pytest.approx(0.0, abs=1e-12)


def test_condition_b_ignores_zero_normals():
    x0 = np.array([1.0, 0.0])
    res = check_condition_b(x0, np.zeros(2), [np.zeros(2), np.array([1.0, 0.0])])
    assert res == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("normals", [[], [np.zeros(2)]], ids=["none", "zero"])
def test_condition_b_without_a_normal_is_the_whole_distance(normals):
    x0 = np.array([3.0, 4.0])
    assert check_condition_b(x0, np.zeros(2), normals) == 5.0


def test_condition_b_small_under_full_window():
    sets, x0, _ = random_family(2)
    r = run_alg1(sets, x0, policy=All(), stop=StoppingRule(1e-10, 400))
    rep = condition_report(r)
    assert rep.condition_b_residuals
    assert max(rep.condition_b_residuals) <= 1e-8


def test_alg2_condition_b_is_measured_from_the_lifted_start():
    """run_alg2's iterations begin at the lift of x0 into set 0: from there
    the span condition holds under All(), and from x0 the worst residual
    would be ||x0 - lift||."""
    sets, x0, _ = random_family(2)
    r = run_alg2(sets, x0, policy=All(), stop=StoppingRule(1e-10, 400))
    assert r.converged and norm(x0 - r.trace[0].point) > 0.1
    rep = condition_report(r)
    assert rep.condition_b_residuals
    assert max(rep.condition_b_residuals) <= 1e-8


def test_condition_b_generally_positive_under_short_window():
    sets, x0, _ = random_family(3, dim=12, k=3, codim=3)
    r = run_alg1(sets, x0, policy=LastQ(2), stop=StoppingRule(1e-10, 400))
    rep = condition_report(r)
    assert max(rep.condition_b_residuals) > 1e-6


def test_plain_alternation_has_unit_decomposition_ratio():
    sets, x0, _ = random_family(4)
    r = run_map(sets, x0, stop=StoppingRule(1e-10, 2000))
    ratios = check_b_prime(step_decompositions(r))
    assert ratios
    assert max(abs(t - 1.0) for t in ratios) <= 1e-9


def test_zero_step_iterations_are_skipped_not_nan():
    ratios = check_b_prime([StepDecomposition(components=0.0, steps=0.0),
                            StepDecomposition(components=2.0, steps=1.0)])
    assert ratios == [2.0]


def test_windowed_runs_have_finite_ratios():
    sets, x0, _ = random_family(5)
    r = run_alg1(sets, x0, policy=LastQ(3), stop=StoppingRule(1e-10, 400))
    ratios = check_b_prime(step_decompositions(r))
    assert ratios
    assert all(np.isfinite(t) for t in ratios)


def test_running_sum_of_squares_is_nondecreasing_and_bounded():
    sets, x0, member = random_family(6)
    r = run_map(sets, x0, stop=StoppingRule(1e-10, 2000))
    series = running_sum_of_squares(step_decompositions(r))
    assert all(b >= a for a, b in zip(series[:-1], series[1:]))
    assert series[-1] <= norm(x0 - member) ** 2 + 1e-6
    oracle = direct_projection(x0, stack(sets))
    assert series[-1] <= norm(x0 - oracle) ** 2 + 1e-6


def test_condition_report_aggregates_all_monitors():
    sets, x0, member = random_family(7)
    r = run_alg1(sets, x0, policy=All(), stop=StoppingRule(1e-10, 400))
    rep = condition_report(r, member)
    assert rep.fejer_violations == 0
    assert rep.fejer_worst <= 1e-9
    assert rep.condition_b_residuals and max(rep.condition_b_residuals) <= 1e-8
    assert rep.b_prime_ratios
    assert rep.sum_of_squares == running_sum_of_squares(step_decompositions(r))


def test_map_decompositions_are_the_squared_steps():
    sets, x0, _ = random_family(8)
    r = run_map(sets, x0, stop=StoppingRule(1e-10, 2000))
    assert step_decompositions(r) == [StepDecomposition(components=s * s, steps=s * s)
                                      for s in r.step_norms()]


def reference_alg1_decompositions(r):
    """Each run_alg1 iteration from the step lengths of its two trace
    records, the normal it found (none when its window's stop did not grow)
    and its window's coefficients, the correction split by the set that
    generated each normal, one set at a time."""
    out = []
    stop = 0
    steps = r.step_norms()
    for i, (sel, lam) in enumerate(zip(r.selected_history, r.coefficients)):
        assert ([t.phase for t in r.trace[2 * i:2 * i + 2]]
                == ["set-projection", "hyperplane-projection"])
        project, correct = steps[2 * i:2 * i + 2]
        a = r.generated[sel.stop - 1][1].normal if sel.stop > stop else np.zeros(0)
        stop = sel.stop
        window = [r.generated[j] for j in sel]
        pieces = {}
        for (k, h), c in zip(window, lam):
            pieces[k] = c * h.normal if k not in pieces else pieces[k] + c * h.normal
        components = float(np.dot(a, a)) + float(sum(np.dot(v, v) for v in pieces.values()))
        out.append(StepDecomposition(
            components=components,
            steps=project * project + correct * correct))
    return out


def assert_decompositions_match(got, expected):
    """steps bit for bit; components to 1e-12 relative, because the report
    sums the pieces of all sets in one matrix product."""
    assert [d.steps for d in got] == [d.steps for d in expected]
    assert [d.components for d in got] == pytest.approx([d.components for d in expected],
                                                        rel=1e-12, abs=0.0)


def parallel_planes():
    """Two disjoint parallel planes: alg1's windows become inconsistent
    and the correction falls back to the uncorrected iterate."""
    e = np.eye(3)
    return [RowConstraintSet(e[:1], [0.0]), RowConstraintSet(e[:1], [1.0])]


@pytest.mark.parametrize("family,policy,stop", [
    (random_family(9, dim=12, k=3, codim=3), LastQ(3), StoppingRule(1e-10, 400)),
    (random_family(9, dim=12, k=3, codim=3), All(), StoppingRule(1e-10, 400)),
    (random_family(10), LastQ(2), StoppingRule(0.0, 600)),  # runs on past convergence
    ((parallel_planes(), np.array([3.0, -2.0, 5.0]), None), LastQ(3), StoppingRule(1e-10, 40)),
])
def test_alg1_decompositions_match_the_coefficient_reference(family, policy, stop):
    sets, x0, member = family
    r = run_alg1(sets, x0, policy=policy, stop=stop)
    assert len(r.coefficients) == len(r.selected_history) == r.iterations
    assert_decompositions_match(step_decompositions(r), reference_alg1_decompositions(r))
    rep = condition_report(r, member)
    assert rep.sum_of_squares == running_sum_of_squares(step_decompositions(r))
    assert rep.b_prime_ratios == check_b_prime(step_decompositions(r))


@pytest.mark.parametrize("case", ["rows-LastQ(3)", "rows-All()", "experiment1-LastQ(3)"])
def test_step_decompositions_measure_no_span(monkeypatch, case):
    """step_decompositions reads only the decompositions: it calls no
    window_residual and grows no SpanBasis, and its decompositions are bit
    for bit those of the measuring pass that condition_report makes."""
    if case.startswith("experiment1"):
        prob, _ = mmup.experiment1()
        sets, x0 = prob.sets, prob.flatten(prob.x0)
    else:
        sets, x0, _ = random_family(9, dim=12, k=3, codim=3)
    policy = All() if case.endswith("All()") else LastQ(3)
    r = run_alg1(sets, x0, policy=policy, stop=StoppingRule(1e-10, 400))
    measured = [d for _, d in diagnostics._corrections(r)]
    calls = []
    monkeypatch.setattr(diagnostics, "window_residual", lambda *args: calls.append(args))
    monkeypatch.setattr(linalg.SpanBasis, "extend", lambda *args: calls.append(args))
    assert step_decompositions(r) == measured
    assert calls == [] and len(measured) == r.iterations


def test_fallback_corrections_have_no_coefficients():
    sets, x0, _ = parallel_planes(), np.array([3.0, -2.0, 5.0]), None
    r = run_alg1(sets, x0, policy=LastQ(3), stop=StoppingRule(1e-10, 40))
    fell_back = [w for w in r.warnings if "fell back" in w]
    assert fell_back
    assert sum(lam.size == 0 for lam in r.coefficients) == len(fell_back)


def test_alg2_has_no_decompositions():
    sets, x0, _ = random_family(11)
    assert step_decompositions(run_alg2(sets, x0, policy=All())) == []


def span_start(r):
    """x0 under run_alg1, the lifted start under run_alg2."""
    return r.trace[0].point if r.trace[0].phase == "m1-projection" else r.x0


@pytest.mark.parametrize("runner,policy,stop", [
    (run_alg1, LastQ(3), StoppingRule(1e-10, 400)),
    (run_alg1, All(), StoppingRule(1e-10, 400)),
    (run_alg1, LastQ(2), StoppingRule(0.0, 600)),
    (run_alg2, LastQ(2), StoppingRule(1e-10, 400)),
    (run_alg2, All(), StoppingRule(1e-10, 400)),
])
def test_report_span_residuals_match_check_condition_b(runner, policy, stop):
    """The report extends one basis window by window while its windows
    start at generated[0], where check_condition_b factors each window
    afresh, so the two agree to roundoff, not bit for bit."""
    sets, x0, member = random_family(10)
    r = runner(sets, x0, policy=policy, stop=stop)
    assert_match_check_condition_b(r, condition_report(r, member).condition_b_residuals)


def assert_match_check_condition_b(r, got):
    """got, a report's span residuals of r, within 1e-10 max(1, ||start - x_i||)
    of check_condition_b on each window."""
    start = span_start(r)
    points = [t.point for t in r.trace if t.phase == "hyperplane-projection"]
    expected = [check_condition_b(start, p, [r.generated[j][1].normal for j in sel])
                for p, sel in zip(points, r.selected_history)]
    assert len(got) == len(expected) == r.iterations
    for g, e, p in zip(got, expected, points):
        assert abs(g - e) <= 1e-10 * max(1.0, norm(start - p))


@pytest.mark.parametrize("runner", [run_alg1, run_alg2])
def test_a_sliding_window_is_measured_without_a_span_basis(monkeypatch, runner):
    """Under LastQ(3) only the windows that start at generated[0] grow the
    report's SpanBasis, by their new rows; a window that has slid is
    measured from its own rows, with no basis."""
    sets, x0, member = random_family(10)
    r = runner(sets, x0, policy=LastQ(3), stop=StoppingRule(1e-10, 400))
    assert any(w.start for w in r.selected_history)
    prefix = max(w.stop for w in r.selected_history if not w.start)
    extended = []
    extend = linalg.SpanBasis.extend

    def spy(self, rows):
        extended.extend(rows)
        return extend(self, rows)

    monkeypatch.setattr(linalg.SpanBasis, "extend", spy)
    got = condition_report(r, member).condition_b_residuals
    np.testing.assert_array_equal(np.reshape(extended, (-1, x0.shape[0])),
                                  [h.normal for _, h in r.generated[:prefix]])
    assert_match_check_condition_b(r, got)


# -- span residuals against the per-window least-squares reference ----------

def reference_span_residual(x0, x_i, normals):
    """The former diagnostics._span_residual, kept as the reference: the
    normals stacked afresh and x0 - x_i solved against them by one
    SVD least-squares solve, cut at RCOND * sigma_max."""
    v = x0 - x_i
    A = np.reshape(normals, (-1, v.shape[0])).T
    if not A.shape[1]:
        return norm(v)
    return norm(v - A @ lstsq_min_norm(A, v))


def reference_slack(x0, x_i, normals):
    """(cut, roundoff) of reference_span_residual on these normals.

    cut is the part of x0 - x_i along the singular directions of the stack
    that the reference cuts (sigma <= RCOND * sigma_max).  A SpanBasis
    judges each row against the rows before it, so it can keep a row that
    lies that close to the span of the others when it comes after them:
    its residual may then be smaller than the reference's by up to cut.
    roundoff is 100 eps kappa ||x0 - x_i||, with kappa the condition number
    of the stack on the singular values the reference keeps: the kept
    singular directions are only known to an angle of about eps kappa.  On
    three rows of an inconsistent run_alg2 LastQ(5) window, 0.7 long and
    1e-7 from parallel (kappa 1.3e7), the reference read 1.9e-7 where the
    distance from the span of two of them is 7.2e-9: 23 eps kappa ||v||.
    """
    v = x0 - x_i
    A = np.reshape(normals, (-1, v.shape[0])).T
    if not A.shape[1]:
        return 0.0, 0.0
    U, sv, _ = np.linalg.svd(A, full_matrices=False)
    kept = sv > RCOND * sv[0]
    return (norm(U[:, ~kept].T @ v),
            100.0 * np.finfo(float).eps * sv[0] / sv[kept][-1] * norm(v))


def inconsistent_family(seed):
    """Three two-row sets in dim 4 with independent offsets: six rows in
    dim 4 meet nowhere, so alg1's windows turn inconsistent."""
    rng = np.random.default_rng(seed)
    return ([RowConstraintSet(rng.standard_normal((2, 4)), rng.standard_normal(2))
             for _ in range(3)], rng.standard_normal(4))


def span_case(kind, seed):
    """(sets, x0, stop) of a family kind: Gaussian, Gaussian at stop_tol 0
    (iterations that find no hyperplane), parallel planes (exact repeats, fallbacks), or
    rows that meet nowhere (inconsistent windows, every one a fallback)."""
    if kind == "random":
        return random_family(seed, dim=8, k=3, codim=2)[:2] + (StoppingRule(1e-10, 120),)
    if kind == "fixed-point":
        return random_family(seed)[:2] + (StoppingRule(0.0, 600),)
    if kind == "parallel":
        x0 = np.random.default_rng(seed).standard_normal(3)
        return parallel_planes(), x0, StoppingRule(1e-10, 40)
    return inconsistent_family(seed) + (StoppingRule(1e-10, 80),)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["random", "fixed-point", "parallel", "inconsistent"]),
       st.sampled_from([run_alg1, run_alg2]),
       st.one_of(st.builds(LastQ, st.integers(1, 6)), st.just(All())),
       st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0))
@example("fixed-point", run_alg1, LastQ(2), 1, 0.0)       # iterations that find none
@example("fixed-point", run_alg1, All(), 4, 0.0)          # and exact repeats
@example("fixed-point", run_alg2, All(), 0, 3.0)
@example("parallel", run_alg1, All(), 0, 0.0)             # exact repeats, full fallbacks
@example("parallel", run_alg1, LastQ(3), 0, 4.0)
@example("inconsistent", run_alg1, All(), 0, 0.0)         # fallbacks under All()
@example("inconsistent", run_alg2, LastQ(4), 1, -7.0)
@example("inconsistent", run_alg1, LastQ(6), 306, 0.0)    # a third direction 1.06x the cut
def test_span_residuals_match_the_least_squares_reference(kind, runner, policy, seed, length):
    """The report's span residuals against reference_span_residual on every
    correction, from the report's start, within reference_slack; and under
    run_alg1 its decompositions against the coefficient reference (see
    assert_decompositions_match).  Every recorded hyperplane of a run is scaled by the same
    10^length, which keeps its spans, so the rank cuts (RCOND times the
    longest row here, RCOND times sigma_max there) are tested at lengths
    from 1e-10 to 1e10."""
    sets, x0, stop = span_case(kind, seed)
    r = runner(sets, x0, policy=policy, stop=stop)
    if not r.selected_history:
        return
    if runner is run_alg1:
        assert_decompositions_match(step_decompositions(r), reference_alg1_decompositions(r))
    r = dataclasses.replace(r, generated=[(k, Hyperplane(10.0 ** length * h.normal,
                                                         10.0 ** length * h.offset))
                                          for k, h in r.generated])
    start = span_start(r)
    points = [t.point for t in r.trace if t.phase == "hyperplane-projection"]
    got = condition_report(r).condition_b_residuals
    assert len(got) == len(points) == len(r.selected_history)
    for g, p, sel in zip(got, points, r.selected_history):
        normals = [r.generated[j][1].normal for j in sel]
        ref = reference_span_residual(start, p, normals)
        cut, roundoff = reference_slack(start, p, normals)
        tol = 1e-10 * max(1.0, norm(start - p)) + roundoff
        assert ref - cut - tol <= g <= ref + tol


@pytest.mark.parametrize("iterations", [50, 200])
def test_all_window_report_extends_its_basis_without_refactoring(monkeypatch, iterations):
    """alg1 All() at stop_tol 0 on three one-row sets in dim 4 sits at its
    fixed point for most of the run, without fallbacks.  Its report factors
    each correction's new row alone, once per hyperplane found, and never a
    window afresh."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal(4)
    sets = []
    for _ in range(3):
        C = rng.standard_normal((1, 4))
        sets.append(RowConstraintSet(C, C @ z))
    r = run_alg1(sets, rng.standard_normal(4), policy=All(),
                 stop=StoppingRule(0.0, 2 * iterations))
    assert r.iterations == iterations and not r.warnings and len(r.generated) < iterations
    columns = []
    dgeqp3 = linalg.lapack.dgeqp3

    def counted(a, *args, **kwargs):
        columns.append(a.shape[1])
        return dgeqp3(a, *args, **kwargs)

    monkeypatch.setattr(linalg.lapack, "dgeqp3", counted)
    rep = condition_report(r, z)
    assert columns == [1] * len(r.generated)
    assert max(rep.condition_b_residuals) <= 1e-8


# -- dimension checks ---------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda r: condition_report(r, np.array([0.5])),
    lambda r: count_fejer_violations(r.points(), [0.5]),
    lambda r: check_condition_b(r.x0, [0.5], [r.generated[0][1].normal]),
    lambda r: check_condition_b(r.x0, r.solution, [np.ones(3)]),
], ids=["condition_report", "count_fejer_violations", "check_condition_b x_i",
        "check_condition_b normal"])
def test_a_wrong_dimension_raises_naming_both(call):
    sets, x0, _ = random_family(7)
    r = run_alg1(sets, x0, policy=All(), stop=StoppingRule(1e-10, 400))
    with pytest.raises(ValueError, match=r"dimension 10.*dimension (1|3)\b|dimension (1|3)\b.*dimension 10"):
        call(r)
