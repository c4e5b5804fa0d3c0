import numpy as np
import pytest

from affproj.diagnostics import (StepDecomposition, check_b_prime, check_condition_b,
                                 check_fejer, condition_report, count_fejer_violations,
                                 running_sum_of_squares, step_decompositions)
from affproj.linalg import norm
from affproj.oracle import direct_projection, stack
from affproj.sets import RowConstraintSet
from affproj.solver import All, LastQ, StoppingRule, run_alg1, run_alg2, run_map


def random_family(seed, dim=10, k=3, codim=2):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    sets = [RowConstraintSet(C := rng.standard_normal((codim, dim)), C @ z)
            for _ in range(k)]
    return sets, rng.standard_normal(dim), z


def test_fejer_constant_trace_has_zero_margin():
    p = np.array([1.0, 2.0])
    assert check_fejer([p, p, p], [0.0, 0.0]) == 0.0


def test_fejer_detects_a_corrupted_trace():
    m = np.zeros(2)
    good = [np.array([4.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 0.0])]
    assert check_fejer(good, m) <= 0.0
    corrupted = [good[0], good[1], np.array([3.0, 0.0])]
    assert check_fejer(corrupted, m) == pytest.approx(1.0)
    viol, worst = count_fejer_violations(corrupted, m)
    assert viol == 1 and worst == pytest.approx(1.0)


def test_fejer_nonpositive_on_alternating_projection_runs():
    sets, x0, member = random_family(1)
    r = run_map(sets, x0, stop=StoppingRule(1e-10, 2000))
    assert r.converged
    assert check_fejer(r.points(), member) <= 1e-9


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


def test_condition_b_small_under_full_window():
    sets, x0, _ = random_family(2)
    r = run_alg1(sets, x0, policy=All(), stop=StoppingRule(1e-10, 400))
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
    assert step_decompositions(r) == [StepDecomposition(components=t.step_norm * t.step_norm,
                                                        steps=t.step_norm * t.step_norm)
                                      for t in r.trace]


def reference_alg1_decompositions(r):
    """Each run_alg1 iteration from its two trace records, its recorded
    normal and its window's coefficients, the correction split by the set
    that generated each normal."""
    out = []
    for i, (sel, lam) in enumerate(zip(r.selected_history, r.coefficients)):
        project, correct = r.trace[2 * i:2 * i + 2]
        assert (project.phase, correct.phase) == ("set-projection", "hyperplane-projection")
        a = r.generated[i][1].normal
        window = [r.generated[j] for j in sel if np.any(r.generated[j][1].normal)]
        pieces = {}
        for (k, h), c in zip(window, lam):
            pieces[k] = c * h.normal if k not in pieces else pieces[k] + c * h.normal
        components = float(np.dot(a, a)) + float(sum(np.dot(v, v) for v in pieces.values()))
        out.append(StepDecomposition(
            components=components,
            steps=project.step_norm * project.step_norm + correct.step_norm * correct.step_norm))
    return out


def parallel_planes():
    """Two disjoint parallel planes: alg1's windows become inconsistent
    and the correction falls back to the uncorrected iterate."""
    e = np.eye(3)
    return [RowConstraintSet(e[:1], [0.0]), RowConstraintSet(e[:1], [1.0])]


@pytest.mark.parametrize("family,policy,stop", [
    (random_family(9, dim=12, k=3, codim=3), LastQ(3), StoppingRule(1e-10, 400)),
    (random_family(9, dim=12, k=3, codim=3), All(), StoppingRule(1e-10, 400)),
    (random_family(10), LastQ(2), StoppingRule(0.0, 600)),  # records whole-space entries
    ((parallel_planes(), np.array([3.0, -2.0, 5.0]), None), LastQ(3), StoppingRule(1e-10, 40)),
])
def test_alg1_decompositions_match_the_coefficient_reference(family, policy, stop):
    sets, x0, member = family
    r = run_alg1(sets, x0, policy=policy, stop=stop)
    assert len(r.coefficients) == len(r.selected_history) == r.iterations
    assert step_decompositions(r) == reference_alg1_decompositions(r)
    rep = condition_report(r, member)
    assert rep.sum_of_squares == running_sum_of_squares(step_decompositions(r))
    assert rep.b_prime_ratios == check_b_prime(step_decompositions(r))


def test_fallback_corrections_have_no_coefficients():
    sets, x0, _ = parallel_planes(), np.array([3.0, -2.0, 5.0]), None
    r = run_alg1(sets, x0, policy=LastQ(3), stop=StoppingRule(1e-10, 40))
    fell_back = [w for w in r.warnings if "fell back" in w]
    assert fell_back
    assert sum(lam.size == 0 for lam in r.coefficients) == len(fell_back)


def test_alg2_has_no_decompositions():
    sets, x0, _ = random_family(11)
    assert step_decompositions(run_alg2(sets, x0, policy=All())) == []


@pytest.mark.parametrize("runner,policy,stop", [
    (run_alg1, LastQ(3), StoppingRule(1e-10, 400)),
    (run_alg1, All(), StoppingRule(1e-10, 400)),
    (run_alg1, LastQ(2), StoppingRule(0.0, 600)),
    (run_alg2, LastQ(2), StoppingRule(1e-10, 400)),
    (run_alg2, All(), StoppingRule(1e-10, 400)),
])
def test_report_span_residuals_match_check_condition_b(runner, policy, stop):
    sets, x0, member = random_family(10)  # records whole-space entries at stop_tol 0
    r = runner(sets, x0, policy=policy, stop=stop)
    points = [t.point for t in r.trace if t.phase == "hyperplane-projection"]
    expected = [check_condition_b(x0, p, [r.generated[j][1].normal for j in sel])
                for p, sel in zip(points, r.selected_history)]
    assert condition_report(r, member).condition_b_residuals == expected
