import numpy as np
import pytest

from affproj.diagnostics import check_fejer
from affproj.linalg import inner, norm
from affproj.oracle import direct_projection, stack
from affproj.sets import (Hyperplane, HyperplaneSet, RowConstraintSet,
                          project_hyperplane_intersection)
from affproj.solver import (All, ConditionB, CyclicSchedule, HyperplaneBuffer,
                            LastQ, StoppingRule, _correct, lift_start,
                            run_alg1, run_alg2, run_map)


def two_lines():
    """x-axis and the 45-degree diagonal through the origin."""
    m1 = RowConstraintSet([[0.0, 1.0]], [0.0])
    m2 = RowConstraintSet([[1.0, -1.0]], [0.0])
    return [m1, m2]


def random_family(seed, dim=10, k=3, codim=2):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    sets = []
    for _ in range(k):
        C = rng.standard_normal((codim, dim))
        sets.append(RowConstraintSet(C, C @ z))
    return sets, rng.standard_normal(dim), z


# -- plain alternating projections -----------------------------------------

def test_map_single_set_converges_in_one_projection():
    s = RowConstraintSet([[1.0, 0.0]], [2.0])
    r = run_map([s], [5.0, 7.0])
    assert r.converged and r.iterations == 1
    np.testing.assert_allclose(r.solution, [2.0, 7.0], atol=1e-12)


def test_map_orthogonal_planes_finish_in_one_cycle():
    sets = [RowConstraintSet([[1.0, 0.0, 0.0]], [0.0]),
            RowConstraintSet([[0.0, 1.0, 0.0]], [0.0])]
    r = run_map(sets, [1.0, 1.0, 1.0])
    assert r.converged and r.iterations == 2
    np.testing.assert_allclose(r.solution, [0.0, 0.0, 1.0], atol=1e-12)


def test_map_two_lines_contract_by_half_per_cycle():
    sets = two_lines()
    r = run_map(sets, [2.0, 1.0], stop=StoppingRule(1e-12, 60))
    # distance to the intersection {0} after each full cycle
    cycle_points = [rec.point for rec in r.trace if rec.index % 2 == 0]
    dists = [norm(p) for p in cycle_points if norm(p) > 1e-10]
    ratios = [b / a for a, b in zip(dists[:-1], dists[1:])]
    np.testing.assert_allclose(ratios, 0.5, rtol=1e-8)


def test_map_respects_max_iter():
    sets = two_lines()
    r = run_map(sets, [2.0, 1.0], stop=StoppingRule(1e-15, 5))
    assert not r.converged
    assert r.stop_reason == "max-iter"
    assert r.iterations == 5


def test_map_reports_infeasible_set():
    bad = RowConstraintSet([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])
    r = run_map([bad], [0.0, 0.0])
    assert not r.converged
    assert r.stop_reason == "infeasible"
    assert r.warnings


def family_with_inconsistent_set(index, k=3):
    """random_family(0) with an inconsistent set inserted at `index`."""
    sets, x0, _ = random_family(0, dim=6, k=k, codim=1)
    e = np.eye(6)[-1]
    sets.insert(index, RowConstraintSet([e, e], [0.0, 1.0]))
    return sets, x0


@pytest.mark.parametrize("index", [1, 3])
def test_map_reports_infeasible_set_met_by_residual_check(index):
    # an inconsistent set after the first is first met by a residual check
    sets, x0 = family_with_inconsistent_set(index)
    r = run_map(sets, x0)
    assert not r.converged
    assert r.stop_reason == "infeasible"
    assert r.warnings


def test_map_trace_fields():
    sets = two_lines()
    r = run_map(sets, [2.0, 1.0], stop=StoppingRule(1e-10, 50))
    for rec in r.trace:
        assert rec.phase == "set-projection"
        assert len(rec.per_set_residuals) == 2
        assert rec.step_norm >= 0.0


# -- hyperplane-window acceleration -----------------------------------------

def test_window_of_one_reproduces_plain_alternation():
    sets, x0, _ = random_family(11)
    r_map = run_map(sets, x0, stop=StoppingRule(1e-10, 60))
    r_acc = run_alg1(sets, x0, policy=LastQ(1), stop=StoppingRule(1e-10, 120))
    main = [rec.point for rec in r_acc.trace if rec.phase == "hyperplane-projection"]
    plain = [rec.point for rec in r_map.trace]
    for a, b in zip(plain, main):
        np.testing.assert_array_equal(a, b)


def test_full_window_solves_two_lines_at_second_iteration():
    sets = two_lines()
    r = run_alg1(sets, [2.0, 1.0], policy=All())
    assert r.converged and r.iterations == 2
    assert norm(r.solution) < 1e-12


def test_iterate_already_in_set_records_whole_space():
    sets = two_lines()
    r = run_alg1(sets, [2.0, 0.0], policy=All())  # starts on the x-axis
    assert r.generated[0][1].is_whole_space()
    assert r.converged


def test_full_window_matches_direct_projection():
    sets, x0, _ = random_family(21, dim=20, k=3, codim=3)
    oracle = direct_projection(x0, stack(sets))
    r = run_alg1(sets, x0, policy=All())
    assert r.converged
    assert norm(r.solution - oracle) < 1e-6


def test_condition_b_policy_selects_like_all():
    sets, x0, _ = random_family(31)
    r_all = run_alg1(sets, x0, policy=All(), stop=StoppingRule(1e-10, 40))
    r_cb = run_alg1(sets, x0, policy=ConditionB(), stop=StoppingRule(1e-10, 40))
    np.testing.assert_array_equal(r_all.solution, r_cb.solution)
    assert r_all.selected_history == r_cb.selected_history


# -- easy-set acceleration ---------------------------------------------------

def test_easy_set_scheme_one_step_on_crossing_lines():
    sets = two_lines()
    r = run_alg2(sets, [1.0, 0.0], policy=LastQ(1))
    assert r.converged and r.iterations == 1
    np.testing.assert_allclose(r.solution, [0.0, 0.0], atol=1e-12)
    # the recorded hyperplane passes through the origin with normal
    # along the easy set
    h = r.generated[0][1]
    np.testing.assert_allclose(h.normal, [0.5, 0.0], atol=1e-12)
    assert h.offset == pytest.approx(0.0, abs=1e-12)


def test_easy_set_iterates_stay_in_easy_set():
    sets, x0, _ = random_family(41, dim=14, k=3, codim=2)
    r = run_alg2(sets, x0, policy=LastQ(2), stop=StoppingRule(1e-10, 400))
    assert r.converged
    for rec in r.trace:
        if rec.phase == "hyperplane-projection":
            assert sets[0].residual(rec.point) <= 1e-8


def test_easy_set_correction_from_either_point_agrees():
    # the window projection of the pre-composite iterate equals the
    # window projection of the post-composite point
    sets, x0, _ = random_family(51, dim=12, k=3, codim=2)
    r = run_alg2(sets, x0, policy=All(), stop=StoppingRule(1e-10, 200))
    assert r.converged
    mains = [rec.point for rec in r.trace if rec.phase == "hyperplane-projection"]
    composites = [rec.point for rec in r.trace if rec.phase == "m1-projection"][1:]
    prev = [rec.point for rec in r.trace if rec.phase == "hyperplane-projection"]
    starts = [r.trace[0].point] + prev[:-1]
    for i, sel in enumerate(r.selected_history):
        hyps = [r.generated[j][1] for j in sel]
        from_pre = project_hyperplane_intersection(starts[i], hyps)
        from_post = project_hyperplane_intersection(composites[i], hyps)
        assert norm(from_pre - from_post) < 1e-9 * max(1.0, norm(from_pre))
        np.testing.assert_allclose(from_post, mains[i], atol=1e-9)


def test_easy_set_scheme_needs_two_sets():
    with pytest.raises(ValueError):
        run_alg2([RowConstraintSet([[1.0, 0.0]], [0.0])], [1.0, 1.0])


def test_easy_set_schedule_must_avoid_easy_set():
    sets = two_lines()
    with pytest.raises(ValueError):
        run_alg2(sets, [1.0, 1.0], schedule=CyclicSchedule([0, 1]))


def test_lift_start_lands_in_set_and_fixes_members():
    s = RowConstraintSet([[0.0, 1.0]], [0.0])
    np.testing.assert_allclose(lift_start([1.0, 1.0], s), [1.0, 0.0])
    np.testing.assert_allclose(lift_start([3.0, 0.0], s), [3.0, 0.0])
    rng = np.random.default_rng(8)
    x = rng.standard_normal(2)
    assert s.residual(lift_start(x, s)) < 1e-12


def test_degenerate_composite_step_is_skipped_with_note():
    # a start so close to the solution that the composite displacement
    # is below the linear tolerance, with a stop tolerance too tight to
    # be met: the scheme records whole-space hyperplanes and notes it
    sets = two_lines()
    r = run_alg2(sets, [1e-11, 0.0], policy=LastQ(1), stop=StoppingRule(1e-16, 8))
    assert not r.converged
    assert any("degenerate composite step" in w for w in r.warnings)
    assert all(h.is_whole_space() for _, h in r.generated)


@pytest.mark.parametrize("index", [0, 1, 3])
def test_alg1_reports_infeasible_set(index):
    sets, x0 = family_with_inconsistent_set(index)
    r = run_alg1(sets, x0, policy=LastQ(3))
    assert not r.converged
    assert r.stop_reason == "infeasible"
    assert r.warnings


@pytest.mark.parametrize("index", [0, 2, 3])
def test_alg2_reports_infeasible_set(index):
    # index 0 is the easy set, where the starting lift meets it; at 2 and 3
    # it is a non-easy set that the scheme projects onto later
    sets, x0 = family_with_inconsistent_set(index)
    r = run_alg2(sets, x0, policy=LastQ(3))
    assert not r.converged
    assert r.stop_reason == "infeasible"
    assert r.warnings


# -- schedules, buffer, fallback ---------------------------------------------

def test_schedule_cycles_in_order():
    s = CyclicSchedule([2, 0, 1])
    assert [s.index_at(i) for i in range(6)] == [2, 0, 1, 2, 0, 1]


def test_schedule_rejects_empty_order():
    with pytest.raises(ValueError):
        CyclicSchedule([])


def test_buffer_window_keeps_current_plus_most_recent():
    buf = HyperplaneBuffer(LastQ(2))
    ids = [buf.append(Hyperplane([1.0, float(i)], 0.0), 0) for i in range(4)]
    sel = buf.select(ids[-1])
    assert [e.index for e in sel] == [2, 3]


def test_buffer_window_skips_whole_space_entries():
    buf = HyperplaneBuffer(LastQ(3))
    buf.append(Hyperplane([1.0, 0.0], 1.0), 0)
    buf.append(Hyperplane([0.0, 0.0], 0.0), 1)
    cur = buf.append(Hyperplane([0.0, 1.0], 2.0), 0)
    sel = buf.select(cur)
    assert [e.index for e in sel] == [0, 2]


def test_buffer_window_dedupes_identical_normals_keeping_newest():
    buf = HyperplaneBuffer(All())
    buf.append(Hyperplane([1.0, 0.0], 1.0), 0)
    buf.append(Hyperplane([1.0, 0.0], 1.0 + 1e-13), 1)
    cur = buf.append(Hyperplane([0.0, 1.0], 0.0), 0)
    sel = buf.select(cur)
    assert [e.index for e in sel] == [1, 2]


def test_buffer_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        LastQ(0)


def test_inconsistent_window_drops_oldest_and_warns():
    buf = HyperplaneBuffer(All())
    buf.append(Hyperplane([1.0, 0.0, 0.0], 0.0), 0)
    buf.append(Hyperplane([2.0, 0.0, 0.0], 1.0), 1)  # parallel, incompatible
    cur = buf.append(Hyperplane([0.0, 1.0, 0.0], 0.0), 0)
    warnings = []
    p, selected, used, lam = _correct(np.array([5.0, 5.0, 5.0]), buf, cur, warnings)
    assert warnings and "dropped oldest" in warnings[0]
    # the retained window is consistent and was actually projected onto
    assert abs(p[1]) < 1e-12


def test_unresolvable_window_falls_back_to_unmoved_point():
    buf = HyperplaneBuffer(All())
    buf.append(Hyperplane([0.0, 1.0, 0.0], 0.0), 0)
    buf.append(Hyperplane([0.0, 2.0, 0.0], 1.0), 1)
    buf.append(Hyperplane([1.0, 0.0, 0.0], 0.0), 0)
    cur = buf.append(Hyperplane([2.0, 0.0, 0.0], 1.0), 1)
    warnings = []
    x = np.array([5.0, 5.0, 5.0])
    p, selected, used, lam = _correct(x, buf, cur, warnings)
    assert any("fell back" in w for w in warnings)
    np.testing.assert_array_equal(p, x)


# -- shared convergence certificates ----------------------------------------

@pytest.mark.parametrize("runner,kwargs", [
    (run_map, {}),
    (run_alg1, {"policy": LastQ(3)}),
    (run_alg1, {"policy": All()}),
    (run_alg2, {"policy": LastQ(2)}),
])
def test_distance_to_members_never_increases(runner, kwargs):
    sets, x0, member = random_family(61, dim=12, k=3, codim=2)
    r = runner(sets, x0, stop=StoppingRule(1e-10, 2000), **kwargs)
    assert r.converged
    assert check_fejer(r.points(), member) <= 1e-9
    oracle = direct_projection(x0, stack(sets))
    assert check_fejer(r.points(), oracle) <= 1e-9


@pytest.mark.parametrize("runner,kwargs", [
    (run_map, {}),
    (run_alg1, {"policy": All()}),
    (run_alg2, {"policy": All()}),
])
def test_accumulated_displacement_orthogonal_to_intersection(runner, kwargs):
    sets, x0, _ = random_family(71, dim=12, k=3, codim=2)
    sc = stack(sets)
    rng = np.random.default_rng(72)
    members = [direct_projection(rng.standard_normal(12), sc) for _ in range(4)]
    r = runner(sets, x0, stop=StoppingRule(1e-10, 2000), **kwargs)
    for rec in r.trace:
        for m1, m2 in zip(members[:-1], members[1:]):
            v = x0 - rec.point
            denom = max(1.0, norm(v) * norm(m1 - m2))
            assert abs(inner(v, m1 - m2)) < 1e-8 * denom


def test_squared_steps_telescope_below_initial_distance():
    sets, x0, member = random_family(81, dim=14, k=4, codim=2)
    for runner, kwargs in ((run_map, {}), (run_alg1, {"policy": LastQ(2)})):
        r = runner(sets, x0, stop=StoppingRule(1e-10, 4000), **kwargs)
        assert r.converged
        total = sum(d.steps for d in r.decompositions)
        assert total <= norm(x0 - member) ** 2 + 1e-6
