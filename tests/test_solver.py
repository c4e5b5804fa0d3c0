from dataclasses import FrozenInstanceError
from math import ceil, isfinite
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affproj import solver
from affproj.cli import random_family as cli_random_family
from affproj.diagnostics import count_fejer_violations, step_decompositions
from affproj.linalg import TOL_FEAS, GramFactor, inner, lstsq_min_norm, norm
from affproj.oracle import direct_projection, stack
from affproj.sets import (AffineSet, Hyperplane, InfeasibleIntersectionError,
                          InfeasibleSetError, RowConstraintSet,
                          project_hyperplane_intersection)
from affproj.solver import (ROUNDOFF_STEP, All, HyperplaneBuffer, LastQ, StoppingRule, _correct,
                            run_alg1, run_alg2, run_map)


def two_lines():
    """x-axis and the 45-degree diagonal through the origin."""
    m1 = RowConstraintSet([[0.0, 1.0]], [0.0])
    m2 = RowConstraintSet([[1.0, -1.0]], [0.0])
    return [m1, m2]


def random_family(seed, dim=10, k=3, codim=2, scale=1.0):
    """k row sets through a common point z, and a start; scale multiplies
    z and the start (scale 1.0 changes no bit)."""
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal(dim)
    sets = []
    for _ in range(k):
        C = rng.standard_normal((codim, dim))
        sets.append(RowConstraintSet(C, C @ z))
    return sets, scale * rng.standard_normal(dim), z


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


@pytest.mark.parametrize("kwargs", [{"stop_tol": float("nan")}, {"stop_tol": -1e-10},
                                    {"max_iter": -5}, {"max_iter": 2.5},
                                    {"max_iter": True}])
def test_stopping_rule_rejects_invalid_values(kwargs):
    with pytest.raises(ValueError):
        StoppingRule(**kwargs)
    StoppingRule(0.0, 0)  # both bounds are valid


def test_stopping_rule_cannot_be_made_invalid_after_it_is_built():
    rule = StoppingRule(1e-10, 50)
    with pytest.raises(FrozenInstanceError):
        rule.stop_tol = float("nan")


@pytest.mark.parametrize("m", range(1, 9))
def test_sub_step_budget_ends_at_an_iteration_boundary(m):
    """A run stops at the first iteration boundary with at least max_iter
    sub-steps: map makes one per iteration, alg1 two and alg2 three after
    its starting lift."""
    sets, x0, _ = random_family(11)
    stop = StoppingRule(0.0, m)
    r = run_map(sets, x0, stop=stop)
    assert (r.iterations, len(r.trace)) == (m, m)
    r = run_alg1(sets, x0, stop=stop)
    assert (r.iterations, len(r.trace)) == (ceil(m / 2), 2 * ceil(m / 2))
    r = run_alg2(sets, x0, stop=stop)
    its = ceil((m - 1) / 3)
    assert (r.iterations, len(r.trace)) == (its, 1 + 3 * its)


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
    for rec, step in zip(r.trace, r.step_norms()):
        assert rec.phase == "set-projection"
        assert sets[rec.set_index].residual(rec.point) <= 1e-12
        assert step >= 0.0


def test_repr_leaves_out_the_trace_and_the_hyperplanes():
    sets, x0, _ = cli_random_family(400, 4, [40] * 4, 97)
    r = run_alg1(sets, x0, policy=All())
    text = repr(r)
    assert len(text) < 50_000
    assert f"iterations={r.iterations}" in text
    assert f"stop_reason={r.stop_reason!r}" in text


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


def test_iterate_already_in_set_records_no_hyperplane():
    sets = two_lines()
    r = run_alg1(sets, [2.0, 0.0], policy=All())  # starts on the x-axis
    assert r.selected_history[0] == range(0, 0)
    assert r.generated[0][0] == 1  # the first hyperplane comes from set 1
    assert r.converged


def test_full_window_matches_direct_projection():
    sets, x0, _ = random_family(21, dim=20, k=3, codim=3)
    oracle = direct_projection(x0, stack(sets))
    r = run_alg1(sets, x0, policy=All())
    assert r.converged
    assert norm(r.solution - oracle) < 1e-6


def test_roundoff_displacement_opens_no_window():
    """Set 0 is one row, so the hyperplane recorded by projecting onto it is
    set 0 itself.  Every later projection onto set 0 moves the iterate only
    by roundoff.  Recorded as a hyperplane, that displacement would open
    a LastQ(3) window with a meaningless normal and pull the run along C - C,
    away from the direct projection."""
    sets, x0, _ = cli_random_family(6, 3, [1, 2, 2], 0)
    r = run_alg1(sets, x0, policy=LastQ(3), stop=StoppingRule(1e-10, 10000))
    assert r.converged
    assert norm(r.solution - direct_projection(x0, stack(sets))) <= 1e-6


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


def test_starting_lift_lands_in_set_and_fixes_members():
    s = RowConstraintSet([[0.0, 1.0]], [0.0])
    np.testing.assert_allclose(s.project([1.0, 1.0]), [1.0, 0.0])
    np.testing.assert_allclose(s.project([3.0, 0.0]), [3.0, 0.0])
    rng = np.random.default_rng(8)
    x = rng.standard_normal(2)
    assert s.residual(s.project(x)) < 1e-12


@pytest.mark.parametrize("scale", [2.0 ** -30, 2.0 ** 20], ids=["2^-30", "2^20"])
@pytest.mark.parametrize("runner,policy", [
    (run_map, None), (run_alg1, LastQ(3)), (run_alg1, All()), (run_alg2, LastQ(3)),
    (run_alg2, All())], ids=["map", "alg1-LastQ3", "alg1-All", "alg2-LastQ3", "alg2-All"])
def test_a_family_scaled_by_a_power_of_two_runs_as_the_scaled_run(runner, policy, scale):
    """Scaling the sets, the start and stop_tol by a power of two scales
    every projection, norm and residual exactly, so a solver whose rules
    carry no unit returns exactly the scaled solution in as many
    iterations.  Rules with a unit did not: with alg1 dropping a step up to
    64 eps max(1, ||x||) long and alg2 one up to 1e-10 long, alg1 and alg2
    under LastQ(3) took 163 and 138 iterations at 2**-30, and alg2 All()
    136; the rule without a unit takes 85, 20 and 4 at every scale."""
    kwargs = {} if policy is None else {"policy": policy}
    runs = []
    for s in (1.0, scale):
        sets, x0, _ = random_family(5, scale=s)
        runs.append(runner(sets, x0, stop=StoppingRule(1e-10 * s, 2000), **kwargs))
    base, scaled = runs
    assert base.converged and scaled.warnings == base.warnings
    assert scaled.iterations == base.iterations
    np.testing.assert_array_equal(scaled.solution, scale * base.solution)


@pytest.mark.parametrize("runner", [run_map, run_alg1, run_alg2])
@pytest.mark.parametrize("m", [1, 2, 6])
def test_zero_tolerance_reads_each_residual_once_at_the_start(runner, m):
    """Under stop_tol = 0 every check stops at the next iteration's first
    projection, which misses, so the only residual calls are the k of the
    start check.  The last check's projection is the one projection not in
    the trace."""
    calls, projections = [], []

    class CountingSet(RowConstraintSet):
        def residual(self, x):
            calls.append(1)
            return super().residual(x)

        def project(self, x):
            projections.append(1)
            return super().project(x)

    family, x0, _ = random_family(11)
    sets = [CountingSet(s.C, s.d) for s in family]
    r = runner(sets, x0, stop=StoppingRule(0.0, m))
    assert len(calls) == len(sets)
    recorded = [rec for rec in r.trace if rec.phase in ("set-projection", "m1-projection")]
    assert len(projections) == len(recorded) + 1


def four_coordinate_hyperplanes(record):
    """x_0 = 0, x_1 = 0, x_2 = 0 and x_0 + x_1 + x_2 = 0 in R^3, whose
    residual calls append the set's index to record."""
    class Logged(RowConstraintSet):
        def __init__(self, row, index):
            super().__init__([row], [0.0])
            self.index = index

        def residual(self, x):
            record.append(self.index)
            return super().residual(x)

    return [Logged(row, j) for j, row in enumerate([*np.eye(3), np.ones(3)])]


@pytest.mark.parametrize("runner,kwargs,reads", [
    (run_map, {}, [2, 0, 1]),
    (run_alg1, {"policy": LastQ(2)}, [0, 2, 0, 1, 2]),
    (run_alg2, {"policy": LastQ(2)}, [2, 0, 1, 2]),
], ids=["run_map", "run_alg1", "run_alg2"])
def test_check_reads_sets_in_index_order_up_to_the_first_miss(runner, kwargs, reads):
    """From (1, 0, 1) the first projection onto set 0 (alg2: its lift) gives
    (0, 0, 1), whose check finds the step to set 1 met, then reads set 2,
    which misses, and stops there: set 3 misses too, but no check after the
    start ever reads it.  The run ends at the origin, where the last check
    reads every set but its lookahead (and, under map, the set just
    projected onto)."""
    record = []
    sets = four_coordinate_hyperplanes(record)
    r = runner(sets, [1.0, 0.0, 1.0], **kwargs)
    assert r.stop_reason == "residual-met"
    np.testing.assert_array_equal(r.solution, np.zeros(3))
    assert record == [0, 1, 2, 3] + reads


@pytest.mark.parametrize("runner,kwargs", [
    (run_map, {}),
    (run_alg1, {"policy": LastQ(2)}),
    (run_alg2, {"policy": LastQ(2)}),
], ids=["run_map", "run_alg1", "run_alg2"])
def test_residual_that_turns_non_finite_raises_once_the_check_reads_it(runner, kwargs):
    """Set 2's residual is finite at the start and NaN after it.  Under
    every driver, the first check after the start that reads set 2 (see the
    test above) raises."""
    record = []
    sets = four_coordinate_hyperplanes(record)

    class NanLater(type(sets[2])):
        def residual(self, x):
            r = super().residual(x)
            return r if record.count(2) == 1 else float("nan")

    sets[2] = NanLater(np.eye(3)[2], 2)
    with pytest.raises(ValueError, match="set 2: residual nan"):
        runner(sets, [1.0, 0.0, 1.0], **kwargs)
    assert record.count(2) == 2


@pytest.mark.parametrize("runner,kwargs", [
    (run_map, {}),
    (run_alg1, {"policy": LastQ(3)}),
    (run_alg2, {"policy": LastQ(3)}),
])
@pytest.mark.parametrize("index", [0, 1, 2, 3])
def test_infeasible_set_stops_before_anything_is_recorded(runner, kwargs, index):
    sets, x0 = family_with_inconsistent_set(index)
    r = runner(sets, x0, **kwargs)
    assert r.stop_reason == "infeasible"
    assert (r.iterations, r.trace, r.generated, r.selected_history) == (0, [], [], [])
    assert len(r.warnings) == 1


def test_failed_iteration_records_nothing():
    # x0 lies in sets 0 and 1, so alg2's first composite step does not move
    # it and finds no hyperplane; the check of the corrected iterate then
    # projects onto set 2, the next scheduled set, which fails, and the
    # iteration leaves nothing behind
    class FailingSet(AffineSet):
        dim = 3

        def project(self, x):
            raise InfeasibleSetError("set 2 failed")

        def residual(self, x):
            return abs(x[2])

    e = np.eye(3)
    sets = [RowConstraintSet(e[:1], [0.0]), RowConstraintSet(e[1:2], [0.0]), FailingSet()]
    r = run_alg2(sets, [0.0, 0.0, 1.0], policy=LastQ(2))
    assert r.stop_reason == "infeasible"
    assert r.warnings == ["iteration 1: set 2 failed"]
    assert (r.iterations, len(r.trace), r.generated, r.selected_history) == (0, 1, [], [])


@pytest.mark.parametrize("runner", [run_map, run_alg1, run_alg2])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_non_finite_residual_raises_at_every_position(runner, index):
    class NanResidual(AffineSet):
        """Projects like `inner`, but its residual is NaN."""

        def __init__(self, inner):
            self.dim, self.project = inner.dim, inner.project

        def residual(self, x):
            return float("nan")

    sets, x0, _ = random_family(3, dim=4, k=3, codim=1)
    sets[index] = NanResidual(sets[index])
    with pytest.raises(ValueError, match=f"set {index}: residual nan"):
        runner(sets, x0, stop=StoppingRule(1e-10, 300))


_ALG1_CANCELLATION = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="x - p loses its direction to cancellation, so a recorded normal of length about "
    "1e-12 gives a hyperplane that misses the intersection")


# seed 27 passes by roundoff alone: it misses by 7.8e-7, under the bound but 78 times stop_tol
@pytest.mark.parametrize("seed,q", [pytest.param(21, 3, marks=_ALG1_CANCELLATION),
                                    pytest.param(21, 5, marks=_ALG1_CANCELLATION), (27, 3)])
def test_alg1_last_q_lands_on_the_direct_projection(seed, q):
    sets, x0, _ = cli_random_family(10, 3, [1, 3, 3], seed)
    r = run_alg1(sets, x0, policy=LastQ(q), stop=StoppingRule(1e-8, 3000))
    assert r.stop_reason == "residual-met"
    np.testing.assert_allclose(r.solution, direct_projection(x0, stack(sets)), rtol=0, atol=1e-6)


def small_angle_family(theta_min, seed=0):
    """Two sets of 40 rows in dim 400 through one Gaussian point, with row
    spaces U and cos(theta_j) U + sin(theta_j) V, theta_j =
    geomspace(theta_min, 1, 40), U and V orthonormal, and the rows mixed by
    Gaussian 40 x 40 matrices: the Friedrichs angle is theta_min, and the
    total codimension is 80.  Returns (sets, x0)."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((400, 80)))[0]
    U, V = Q[:, :40], Q[:, 40:]
    theta = np.geomspace(theta_min, 1.0, 40)
    C0 = rng.standard_normal((40, 40)) @ U.T
    C1 = rng.standard_normal((40, 40)) @ (U * np.cos(theta) + V * np.sin(theta)).T
    z = rng.standard_normal(400)
    return [RowConstraintSet(C0, C0 @ z), RowConstraintSet(C1, C1 @ z)], rng.standard_normal(400)


_ALG2_ALL_DRIFT = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="alg2 drifts out of set 0: nearly every All() correction falls back, and the run "
    "ends 1.06e-5 (relative) from the direct projection")


# Under All() the window's hyperplanes contain the intersection, so once their
# normals span the 80 directions of the two row spaces, one correction lands on
# it: alg1 needs about 80 iterations, where map takes 3 673 at this angle.
@pytest.mark.parametrize("runner,policy,most", [
    (run_alg1, All(), 90), (run_alg1, LastQ(5), None), (run_alg2, LastQ(5), None),
    pytest.param(run_alg2, All(), None, marks=_ALG2_ALL_DRIFT),
], ids=["alg1-All", "alg1-LastQ5", "alg2-LastQ5", "alg2-All"])
def test_small_angle_family_lands_on_the_direct_projection(runner, policy, most):
    sets, x0 = small_angle_family(0.1)
    r = runner(sets, x0, policy=policy, stop=StoppingRule(1e-10, 20000))
    assert r.stop_reason == "residual-met"
    # a local, so that a failure does not print the whole SolveResult
    miss = norm(r.solution - direct_projection(x0, stack(sets)))
    assert miss <= 1e-8 * max(1.0, norm(x0))
    if most is not None:
        assert r.iterations <= most


@pytest.mark.parametrize("index", [0, 1, 3])
def test_alg1_reports_infeasible_set(index):
    sets, x0 = family_with_inconsistent_set(index)
    r = run_alg1(sets, x0, policy=LastQ(3))
    assert not r.converged
    assert r.stop_reason == "infeasible"
    assert r.warnings


@pytest.mark.parametrize("index", [0, 2, 3])
def test_alg2_reports_infeasible_set(index):
    # index 0 is the easy set, which the starting lift projects onto; at 2
    # and 3 it is a non-easy set; the start check meets each of them first
    sets, x0 = family_with_inconsistent_set(index)
    r = run_alg2(sets, x0, policy=LastQ(3))
    assert not r.converged
    assert r.stop_reason == "infeasible"
    assert r.warnings


# -- cyclic order, buffer, fallback ------------------------------------------

@pytest.mark.parametrize("runner,kwargs,order", [
    (run_map, {}, [0, 1, 2, 0, 1, 2, 0]),
    (run_alg1, {"policy": LastQ(2)}, [0, 1, 2, 0, 1, 2, 0]),
    (run_alg2, {"policy": LastQ(2)}, [1, 2, 1, 2, 1, 2, 1]),  # set 0 is kept by the lift
], ids=["run_map", "run_alg1", "run_alg2"])
def test_drivers_visit_the_sets_in_fixed_cyclic_order(runner, kwargs, order):
    sets, x0, _ = random_family(12, dim=6, k=3, codim=1)
    r = runner(sets, x0, stop=StoppingRule(0.0, 30), **kwargs)
    firsts = [rec.set_index for rec in r.trace if rec.phase == "set-projection"]
    assert firsts[:len(order)] == order


@pytest.mark.parametrize("runner", [run_map, run_alg1])
def test_an_empty_family_raises(runner):
    with pytest.raises(ValueError, match="no sets"):
        runner([], [1.0, 2.0])


class ProjectionCountingSet(RowConstraintSet):
    """A row set that appends every array its project returns to calls."""

    def __init__(self, C, d, calls):
        super().__init__(C, d)
        self.calls = calls

    def project(self, x):
        p = super().project(x)
        self.calls.append(p)
        return p


@pytest.mark.parametrize("q", [2.5, True, np.float64(3.0), "3"])
def test_window_size_must_be_a_positive_integer(q):
    with pytest.raises(ValueError, match="q must be a positive integer"):
        LastQ(q)


def test_window_size_accepts_numpy_integers():
    assert HyperplaneBuffer(LastQ(np.int64(3))).ring == 3


@pytest.mark.parametrize("runner", [run_alg1, run_alg2])
@pytest.mark.parametrize("policy", ["all", None, 3])
def test_accelerated_runs_reject_an_unknown_window_policy(runner, policy):
    calls = []
    sets = [ProjectionCountingSet(s.C, s.d, calls) for s in two_lines()]
    with pytest.raises(TypeError, match="window policy"):
        runner(sets, [1.0, 1.0], policy=policy)
    assert calls == []


def test_buffer_window_keeps_current_plus_most_recent():
    buf = HyperplaneBuffer(LastQ(2))
    for i in range(4):
        buf.append(Hyperplane([1.0, float(i)], 0.0), 0)
    assert buf.select(True) == range(2, 4)


def test_buffer_window_skips_iterations_without_a_hyperplane():
    """The second of three LastQ(3) iterations finds no hyperplane: its
    window is the one entry before it, and the third iteration's window
    is its own entry and that one."""
    buf = HyperplaneBuffer(LastQ(3))
    buf.append(Hyperplane([1.0, 0.0], 1.0), 0)
    assert buf.select(False) == range(0, 1)
    buf.append(Hyperplane([0.0, 1.0], 2.0), 0)
    assert buf.select(True) == range(0, 2)


def test_buffer_window_keeps_identical_normals_in_generation_order():
    buf = HyperplaneBuffer(All())
    buf.append(Hyperplane([1.0, 0.0], 1.0), 0)
    buf.append(Hyperplane([1.0, 0.0], 1.0 + 1e-13), 1)
    buf.append(Hyperplane([0.0, 1.0], 0.0), 0)
    assert buf.select(True) == range(0, 3)
    buf.policy = LastQ(2)
    assert buf.select(True) == range(1, 3)


def pairwise_select(policy, found, current):
    """The former HyperplaneBuffer.select, kept as the reference: a walk
    back over the iterations before `current`, skipping those that found
    no hyperplane.  found[j] is iteration j's hyperplane, or None where it
    found none; the window is returned as positions in the list of the
    hyperplanes found."""
    chosen = [current] if found[current] is not None else []
    budget = policy.q - 1 if isinstance(policy, LastQ) else len(found)
    for j in reversed(range(current)):
        if budget <= 0:
            break
        if found[j] is None:
            continue
        chosen.append(j)
        budget -= 1
    chosen.reverse()
    position = np.cumsum([h is not None for h in found]) - 1
    return [int(position[j]) for j in chosen]


KINDS = ("fresh", "copy", "sign", "collide", "none")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 5, 130]),
       st.one_of(st.builds(LastQ, st.integers(1, 6)), st.just(All())),
       st.lists(st.sampled_from(KINDS), min_size=1, max_size=30),
       st.integers(0, 2**32 - 1))
def test_select_matches_pairwise_reference(dim, policy, kinds, seed):
    """Exact copies, copies with the sign of their zeros flipped, copies
    changed in one odd position (dim 130) and iterations that find no
    hyperplane, in any order; the window of every iteration is checked."""
    rng = np.random.default_rng(seed)
    stride = max(1, dim // 64)
    buf, found = HyperplaneBuffer(policy), []
    for kind in kinds:
        live = [a for a in found if a is not None]
        if kind == "none":
            a = None
        elif kind == "fresh" or not live:
            a = rng.integers(-1, 2, dim).astype(float)
            a[rng.integers(dim)] = 1.0
        else:
            a = live[rng.integers(len(live))].copy()
            if kind == "sign":
                a[a == 0.0] *= -1.0
            elif kind == "collide" and stride > 1:
                a[stride * rng.integers(dim // stride) + 1] += 1.0
        found.append(a)
        if a is not None:
            buf.append(Hyperplane(a, 0.0), 0)
        assert list(buf.select(a is not None)) == pairwise_select(policy, found, len(found) - 1)


@pytest.mark.parametrize("older,newer", [(-0.0, 0.0), (0.0, -0.0)])
def test_signed_zero_normals_kept_in_generation_order(older, newer):
    buf = HyperplaneBuffer(All())
    buf.append(Hyperplane([older, 1.0], 1.0), 0)
    buf.append(Hyperplane([newer, 1.0], 1.0 + 1e-13), 1)
    buf.append(Hyperplane([1.0, 0.0], 0.0), 0)
    assert buf.select(True) == range(0, 3)


def test_colliding_fingerprints_keep_both_normals():
    """Two normals of length 130 that agree on every even position: a
    window must keep both."""
    a = np.ones(130)
    b = a.copy()
    b[1] = 2.0
    buf = HyperplaneBuffer(All())
    buf.append(Hyperplane(a, 0.0), 0)
    buf.append(Hyperplane(b, 0.0), 1)
    assert buf.select(True) == range(0, 2)


def test_select_ignores_a_long_run_of_iterations_without_a_hyperplane():
    """A run at a fixed point finds no hyperplane for many iterations.  They
    leave nothing in the buffer, so the windows after them are those of the
    two hyperplanes found since."""
    buf = HyperplaneBuffer(LastQ(2))
    for _ in range(5000):
        assert buf.select(False) == range(0, 0)
    buf.append(Hyperplane([1.0, 0.0, 0.0], 0.0), 1)
    buf.append(Hyperplane([0.0, 1.0, 0.0], 0.0), 2)
    assert buf.select(True) == range(0, 2)
    buf.policy = All()
    assert buf.select(True) == range(0, 2)
    assert len(buf.generated) == 2


def test_buffer_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        LastQ(0)


@pytest.mark.parametrize("policy", [All(), LastQ(3)])
def test_inconsistent_window_skips_the_correction_and_warns(policy):
    """A window whose newest hyperplanes are consistent with each other is
    still skipped whole: the point stays, the whole window is recorded with
    no coefficients, and one warning names the correction."""
    buf = HyperplaneBuffer(policy)
    buf.append(Hyperplane([1.0, 0.0, 0.0], 0.0), 0)
    buf.append(Hyperplane([2.0, 0.0, 0.0], 1.0), 1)  # parallel, incompatible
    buf.append(Hyperplane([0.0, 1.0, 0.0], 0.0), 0)
    warnings = []
    x = np.array([5.0, 5.0, 5.0])
    p, selected, lam = _correct(x, buf, True, 2, warnings)
    np.testing.assert_array_equal(p, x)
    assert selected == range(0, 3) and lam.size == 0
    assert len(warnings) == 1
    assert warnings[0].startswith("correction 2: ") and "fell back" in warnings[0]


def test_unresolvable_window_falls_back_to_unmoved_point():
    buf = HyperplaneBuffer(All())
    buf.append(Hyperplane([0.0, 1.0, 0.0], 0.0), 0)
    buf.append(Hyperplane([0.0, 2.0, 0.0], 1.0), 1)
    buf.append(Hyperplane([1.0, 0.0, 0.0], 0.0), 0)
    buf.append(Hyperplane([2.0, 0.0, 0.0], 1.0), 1)
    warnings = []
    x = np.array([5.0, 5.0, 5.0])
    p, selected, lam = _correct(x, buf, True, 3, warnings)
    assert any("fell back" in w for w in warnings)
    np.testing.assert_array_equal(p, x)
    assert lam.size == 0


# -- the stored-factor correction against the stacked reference ------------

def stacked_intersection_step(x, hyperplanes):
    """The former sets._intersection_step, kept as the reference: the window
    stacked afresh at every correction and solved by the min-norm Gram solve."""
    if not hyperplanes:
        return x.copy(), np.zeros(0)
    A = np.vstack([h.normal for h in hyperplanes])
    b = np.array([h.offset for h in hyperplanes])
    resid = b - np.array([np.dot(h.normal, x) for h in hyperplanes])
    lam = lstsq_min_norm(A @ A.T, resid)
    p = x + A.T @ lam
    worst = np.max(np.abs(b - A @ p))
    if worst > TOL_FEAS * max(1.0, np.max(np.abs(b))):
        raise InfeasibleIntersectionError(
            f"hyperplane family is inconsistent (residual {worst:.3e})")
    return p, lam


def stacked_correct(x, buffer, recorded, i, warnings):
    """solver._correct over stacked_intersection_step."""
    selected = buffer.select(recorded)
    try:
        p, lam = stacked_intersection_step(x, [buffer.generated[j][1] for j in selected])
    except InfeasibleIntersectionError:
        warnings.append(f"correction {i}: inconsistent intersection, "
                        "fell back to the uncorrected iterate")
        return x.copy(), selected, np.zeros(0)
    return p, selected, lam


def assert_matches_stacked_reference(x, buf, recorded, i, near_pair=False):
    """_correct against stacked_correct on the same buffer: the fallback
    warnings and windows are equal, sum_j lam_j a_j over the returned
    coefficients is the correction, and the points agree within
    tol = 1e-9 max(1, ||x||).

    With near_pair, the window holds two normals 1e-7 rad apart.  The
    factor keeps the older one and the min-norm solve splits the residual
    between them, so the points differ by about 1e-7 times the weight on
    the kept row.  The point must then be the exact projection onto the
    hyperplanes the factor kept, within tol, and lie within
    1e-7 max|lam| max||a_j|| + tol of the reference's, with lam the
    factor's coefficients.  The first-order effect of a 1e-7 rad turn
    scales with the weight the factor puts on the kept row, not with the
    reference's, which spreads that weight over the row and its near
    copies: with two near copies of a0 the reference gave each of the
    three 0.0029 where the factor gave a0 0.0088, and the points differed
    by 2.36e-9, above a bound of 1e-7 max|lam_ref| max||a_j|| + tol =
    2.25e-9."""
    ours, ref = [], []
    p, selected, lam = _correct(x, buf, recorded, i, ours)
    q, ref_selected, _ = stacked_correct(x, buf, recorded, i, ref)
    tol = 1e-9 * max(1.0, norm(x))
    assert ours == ref
    assert selected == ref_selected
    normals = [buf.generated[j][1].normal for j in selected]
    assert lam.shape == ((len(normals),) if lam.size else (0,))
    assert norm(x + sum((l * a for l, a in zip(lam, normals)), np.zeros_like(x)) - p) <= tol
    if ours or not near_pair:
        assert norm(p - q) <= tol
        return
    factor = buf.window(selected)[3]
    kept = [buf.generated[selected[j]][1] for j in factor.kept[:factor.rank]]
    assert norm(p - direct_projection(x, stack(kept))) <= tol
    longest = max(norm(a) for a in normals)
    assert norm(p - q) <= 1e-7 * np.abs(lam).max() * longest + tol


WINDOW_KINDS = ("fresh", "none", "repeat", "near")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.builds(LastQ, st.integers(1, 6)), st.just(All())),
       st.sampled_from([3, 8, 40]),
       st.lists(st.sampled_from(WINDOW_KINDS), min_size=1, max_size=24),
       st.integers(0, 2**32 - 1), st.floats(-10.0, 10.0), st.sampled_from([1e-3, 1.0]))
@example(LastQ(3), 8, ["fresh"] * 10, 0, 0.0, 1.0)   # the ring wraps around
@example(All(), 40, ["fresh"] * 12, 1, 0.0, 1.0)     # the row store doubles past 8 rows
@example(LastQ(4), 8, ["fresh", "fresh", "none", "fresh", "none"], 2, 0.0, 1.0)
# ill-conditioned fresh rows (singular values 2.8 and 0.08) and a near pair:
# lam is about 0.012, and the points differ by 1.85e-9
@example(LastQ(3), 3, ["fresh", "fresh", "near"], 2**32 - 1, 0.0, 1e-3)
# two near copies of a0, then a fresh normal 0.077 rad from a0: the reference
# splits a0's weight three ways (see assert_matches_stacked_reference)
@example(All(), 3, ["fresh", "none", "none", "near", "near", "fresh"], 18670871, 0.0, 1e-3)
# three near copies of a0: the points differ by 2.55e-9 against a near-pair
# bound of 1.65e-9, a draw that once failed at random
@example(All(), 3, ["fresh", "none", "none", "near", "near", "near", "none", "fresh", "near"],
         853, 0.0, 1e-3).xfail(raises=AssertionError,
                               reason="ROADMAP item 5: the near-pair split")
def test_stored_factor_correction_matches_stacked_reference(policy, dim, kinds, seed, length,
                                                            scale):
    """Every hyperplane passes through one point z, and the buffer is
    corrected after each iteration, from a point at distance about `scale`
    from z.  Kinds: a fresh Gaussian normal, no hyperplane, an exact repeat
    of an earlier normal, and an earlier normal turned by 1e-7 rad.  All
    normals of a case are scaled by 10^length, so lengths span 1e+-10.

    Where the rank rules differ, the points differ too.  Normals of very
    different lengths in one window are left to
    test_factor_keeps_a_short_row_that_a_later_long_row_would_cut.  Two
    normals 1e-7 rad apart fall below the RCOND cut; a window that holds
    both is checked as assert_matches_stacked_reference describes for
    near_pair.  Such pairs come from the short steps late in a run, so
    cases with one are corrected from within 1e-3 / max(1, 10^length) of z
    here.  At distance 1 from unit normals the points differ by up to
    1.5e-9, and the factor's feasibility check fires at about half the
    distance that the reference's does.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    buf, family = HyperplaneBuffer(policy), []  # family[j]: the fresh entry entry j derives from
    for i, kind in enumerate(kinds):
        if kind == "none":
            a = None
        elif kind == "fresh" or not family:
            a = rng.standard_normal(dim) * 10.0 ** length
            family.append(len(family))
        else:
            j = rng.integers(len(family))
            family.append(family[j])
            a = buf.generated[j][1].normal.copy()
            if kind == "near":
                u = rng.standard_normal(dim)
                u -= (u @ a) / (a @ a) * a
                a = np.cos(1e-7) * a + np.sin(1e-7) * norm(a) / norm(u) * u
        if a is not None:
            buf.append(Hyperplane(a, a @ z), 0)
        near = 1e-3 / max(1.0, 10.0 ** length)
        x = z + (near if "near" in kinds else scale) * rng.standard_normal(dim)
        window = buf.select(a is not None)
        normals = {(family[j], buf.generated[j][1].normal.tobytes()) for j in window}
        near_pair = len({f for f, _ in normals}) < len(normals)
        assert_matches_stacked_reference(x, buf, a is not None, i, near_pair)


@pytest.mark.parametrize("policy", [All(), LastQ(4)])
@pytest.mark.parametrize("rows", [
    # parallel, incompatible pair, then a fresh normal
    [([1.0, 0.0, 0.0], 0.0), ([2.0, 0.0, 0.0], 1.0), ([0.0, 1.0, 0.0], 0.0)],
    # the same pair, then a fresh normal and an iteration that found none
    [([0.0, 1.0, 0.0], 0.0), ([0.0, 2.0, 0.0], 1.0), ([1.0, 0.0, 0.0], 0.0), None],
    # two incompatible pairs
    [([0.0, 1.0, 0.0], 0.0), ([0.0, 2.0, 0.0], 1.0), ([1.0, 0.0, 0.0], 0.0),
     ([2.0, 0.0, 0.0], 1.0)],
])
def test_fallbacks_match_stacked_reference(policy, rows):
    buf = HyperplaneBuffer(policy)
    for row in filter(None, rows):
        buf.append(Hyperplane(*row), 0)
    recorded, i = rows[-1] is not None, len(rows) - 1
    warnings = []
    _correct(np.array([5.0, 5.0, 5.0]), buf, recorded, i, warnings)
    assert len(warnings) == 1 and "fell back" in warnings[0]
    assert_matches_stacked_reference(np.array([5.0, 5.0, 5.0]), buf, recorded, i)


def test_factor_keeps_a_short_row_that_a_later_long_row_would_cut():
    """A unit normal, then one 1e9 times longer: the min-norm solve cuts the
    first (its Gram eigenvalue is below RCOND times the largest) and misses
    its hyperplane by 0.6, which the long row's offset hides from the
    feasibility check.  The factor, judging each row against the rows
    before it, keeps both and lands on the exact projection."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal(3)
    a1, a2 = rng.standard_normal(3), 1e9 * rng.standard_normal(3)
    buf = HyperplaneBuffer(All())
    buf.append(Hyperplane(a1, a1 @ z), 0)
    buf.append(Hyperplane(a2, a2 @ z), 1)
    x = z + rng.standard_normal(3)
    warnings = []
    p = _correct(x, buf, True, 1, warnings)[0]
    q = stacked_correct(x, buf, True, 1, [])[0]
    exact = direct_projection(x, stack([h for _, h in buf.generated]))
    assert not warnings and buf.factor.rank == 2
    assert norm(p - exact) <= 1e-9 * norm(x)
    assert abs(a1 @ q - a1 @ z) > 0.1


def test_a_unit_row_after_a_long_one_is_not_cut():
    """A normal 1e9 long, then a unit normal, through one point: the rank
    rule judges the unit row's pivot against its own length, not the long
    row's, so the projection lands on both hyperplanes.  A rule relative to
    the longest row cut the unit row and missed its hyperplane by 1.1,
    which the long row's offset hid from the feasibility check."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal(3)
    a1, a2 = 1e9 * rng.standard_normal(3), rng.standard_normal(3)
    family = [Hyperplane(a1, a1 @ z), Hyperplane(a2, a2 @ z)]
    x = z + rng.standard_normal(3)
    p = project_hyperplane_intersection(x, family)
    for h in family:
        assert h.residual(p) <= 1e-12 * max(1.0, norm(p))
    assert norm(p - direct_projection(x, stack(family))) <= 1e-12 * max(1.0, norm(x))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the feasibility test is TOL_FEAS * max(1, max |b_j|)")
@pytest.mark.parametrize("policy", [All(), LastQ(2)])
def test_a_long_row_does_not_hide_a_parallel_unit_row_miss(policy):
    """{1e9 x_0 = 1e9, x_0 = 2.95} is inconsistent.  The factor leaves the
    parallel unit row out, and the correction lands at [1, 5, 5], 1.95 off
    the unit hyperplane; the feasibility threshold TOL_FEAS max(1, max |b_j|)
    is 10 there, so no fallback is taken and nothing warns.  The
    correction should fall back and warn."""
    buf = HyperplaneBuffer(policy)
    buf.append(Hyperplane([1e9, 0.0, 0.0], 1e9), 0)
    buf.append(Hyperplane([1.0, 0.0, 0.0], 2.95), 1)
    warnings = []
    x = np.array([5.0, 5.0, 5.0])
    p = _correct(x, buf, True, 1, warnings)[0]
    assert len(warnings) == 1 and "fell back" in warnings[0]
    np.testing.assert_array_equal(p, x)


@pytest.mark.parametrize("iterations,parallel", [(50, False), (200, False), (200, True)],
                         ids=["50", "200", "200-parallel"])
def test_all_window_grows_its_factor_by_one_row_without_refactoring(monkeypatch, iterations,
                                                                    parallel):
    """alg1 All() at stop_tol 0 on three one-row sets in dim 4 sits at its
    fixed point for most of the run.  Each hyperplane found gets one Gram
    row, each correction grows the factor by at most one row, and nothing
    is factored afresh.

    With parallel, the first two sets are one row with offsets 0 and 1, so
    the sets do not meet.  Every window from the second correction on holds
    both of their hyperplanes and is skipped with one warning, still
    without a fresh factor."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal(4)
    sets = []
    for j in range(3):
        C = sets[0].C if parallel and j == 1 else rng.standard_normal((1, 4))
        d = [float(j)] if parallel and j < 2 else C @ z
        sets.append(RowConstraintSet(C, d))
    x0 = rng.standard_normal(4)
    for s in sets:  # each set factors its own rows on its first call
        s.residual(x0)
    rows, ranks, refactors = [], [], []
    append, of = GramFactor.append, GramFactor.of.__func__

    def counted_append(self, g):
        rows.append(g.shape[0])
        append(self, g)
        ranks.append(self.rank)

    def counted_of(cls, G):
        refactors.append(G.shape[0])
        return of(cls, G)

    monkeypatch.setattr(GramFactor, "append", counted_append)
    monkeypatch.setattr(GramFactor, "of", classmethod(counted_of))
    r = run_alg1(sets, x0, policy=All(), stop=StoppingRule(0.0, 2 * iterations))
    live = len(r.generated)
    assert r.iterations == iterations
    skipped = range(1, iterations) if parallel else []
    assert [w.split(":")[0] for w in r.warnings] == [f"correction {j}" for j in skipped]
    assert all("fell back" in w for w in r.warnings)
    assert rows == list(range(1, live + 1))
    assert all(b - a in (0, 1) for a, b in zip([0] + ranks, ranks)) and ranks[-1] <= 4
    assert refactors == []


def y_axis_family():
    """y = 0, x = y and 2y = 0: under alg2 every iterate is in set 0 and
    so in set 2, whose step then does not move it."""
    return [RowConstraintSet([[0.0, 1.0]], [0.0]), RowConstraintSet([[1.0, -1.0]], [0.0]),
            RowConstraintSet([[0.0, 2.0]], [0.0])]


@pytest.mark.parametrize("runner,policy,start", [
    (run_alg1, LastQ(3), None),  # the fixed-point probe: set projections that do not move
    (run_alg2, LastQ(1), [2.0, 1.0]),  # y_axis_family: every second step does not move x
])
def test_each_window_ends_at_the_hyperplanes_found_so_far(runner, policy, start):
    """selected_history[i] is a range whose stop counts the hyperplanes found
    through iteration i + 1, growing by 0 or 1 per correction.  An
    iteration from x finds one when x minus the end of its projections
    (x - p under alg1, x - x'' under alg2) is longer than ROUNDOFF_STEP
    ||x||, and records that difference as the normal."""
    if start is None:
        sets, x0, _ = random_family(0, dim=4, k=3, codim=1)
    else:
        sets, x0 = y_axis_family(), start
    r = runner(sets, x0, policy=policy, stop=StoppingRule(0.0, 400))
    assert r.iterations > 1 and all(isinstance(w, range) for w in r.selected_history)
    lifted = runner is run_alg2
    trace, per = r.trace[lifted:], 3 if lifted else 2
    mains = [r.trace[0].point if lifted else r.x0] + [t.point for t in trace[per - 1::per]]
    normals = [x - t.point for x, t in zip(mains, trace[per - 2::per])]
    found = [norm(a) > ROUNDOFF_STEP * norm(x) for x, a in zip(mains, normals)]
    assert not all(found)
    assert [w.stop for w in r.selected_history] == list(np.cumsum(found))
    assert len(r.generated) == sum(found)
    for (_, h), a in zip(r.generated, [a for a, f in zip(normals, found) if f]):
        np.testing.assert_array_equal(h.normal, a)


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
    assert count_fejer_violations(r.points(), member)[1] <= 1e-9
    oracle = direct_projection(x0, stack(sets))
    assert count_fejer_violations(r.points(), oracle)[1] <= 1e-9


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
        total = sum(d.steps for d in step_decompositions(r))
        assert total <= norm(x0 - member) ** 2 + 1e-6


@st.composite
def stop_test_families(draw):
    """Gaussian row families, the same with rows scaled by 1e-6 or 1e6, and
    a pair of hyperplanes at an angle of at most 0.3 rad."""
    kind = draw(st.sampled_from(["gaussian", "scaled", "parallel"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(3, 10))
    if kind == "parallel":
        a, u = np.linalg.qr(rng.standard_normal((dim, 2)))[0].T
        angle = draw(st.floats(1e-3, 0.3))
        rows = [a[None], (np.cos(angle) * a + np.sin(angle) * u)[None]]
    else:
        k = draw(st.integers(2, 4))
        rows = [rng.standard_normal((draw(st.integers(1, 2)), dim)) for _ in range(k)]
        if kind == "scaled":
            rows = [C * 10.0 ** rng.choice([-6.0, 6.0], size=(len(C), 1)) for C in rows]
    z = rng.standard_normal(dim)
    return [RowConstraintSet(C, C @ z) for C in rows], rng.standard_normal(dim)


@settings(max_examples=40, deadline=None)
@given(stop_test_families())
def test_stop_is_neither_early_nor_late(family):
    """Full residual checks on the trace's main iterates: a converged run's
    solution meets stop_tol and every earlier main iterate misses it, and a
    budget that ends on the converged iterate still reports residual-met."""
    sets, x0 = family
    tol = 1e-8
    for runner, kwargs, per_iteration, lift in [
            (run_map, {}, 1, 0),
            (run_alg1, {"policy": LastQ(3)}, 2, 0), (run_alg1, {"policy": All()}, 2, 0),
            (run_alg2, {"policy": LastQ(3)}, 3, 1), (run_alg2, {"policy": All()}, 3, 1)]:
        r = runner(sets, x0, stop=StoppingRule(tol, 3000), **kwargs)
        mains = [rec.point for rec in r.trace
                 if runner is run_map or rec.phase == "hyperplane-projection" or rec.index == 0]
        assert len(mains) == r.iterations + lift
        worst = [max(s.residual(x) for s in sets) for x in mains]
        assert all(w > tol * (1 - 1e-6) for w in worst[:-1])
        if r.converged:
            assert worst[-1] <= tol * (1 + 1e-6)
            budget = StoppingRule(tol, per_iteration * r.iterations + lift)
            again = runner(sets, x0, stop=budget, **kwargs)
            assert (again.stop_reason, again.iterations) == ("residual-met", r.iterations)
        else:
            assert worst[-1] > tol * (1 - 1e-6)


def full_check(sets, x, l, skip, stop_tol):
    """The stop check before it stopped at the first miss: every residual
    but set skip's, checked for finiteness, then their maximum."""
    ahead = solver._first_step(sets, l, x)
    checked = [(l, ahead[2])] + [(j, s.residual(x)) for j, s in enumerate(sets)
                                 if j not in (l, skip)]
    for j, r in checked:
        if not isfinite(r):
            raise ValueError(f"set {j}: residual {r} is not finite")
    return max(r for _, r in checked) <= stop_tol, ahead


@settings(max_examples=25, deadline=None)
@given(stop_test_families(), st.sampled_from([7, 3000]))
def test_early_exit_check_matches_the_full_check(family, budget):
    """Same solution bytes, iterations, stop reason and warnings as with
    full_check, under a budget that ends most runs early and one that
    lets them finish."""
    sets, x0 = family
    stop = StoppingRule(1e-8, budget)
    for runner, kwargs in [(run_map, {}),
                           (run_alg1, {"policy": LastQ(3)}), (run_alg1, {"policy": All()}),
                           (run_alg2, {"policy": LastQ(3)}), (run_alg2, {"policy": All()})]:
        r = runner(sets, x0, stop=stop, **kwargs)
        with mock.patch.object(solver, "_check", full_check):
            ref = runner(sets, x0, stop=stop, **kwargs)
        assert r.solution.tobytes() == ref.solution.tobytes()
        assert ((r.iterations, r.stop_reason, r.warnings)
                == (ref.iterations, ref.stop_reason, ref.warnings))


# -- the trace holds the solver's own points, read-only ----------------------

RUNS = [(run_map, {}), (run_alg1, {"policy": LastQ(3)}), (run_alg1, {"policy": All()}),
        (run_alg2, {"policy": LastQ(3)}), (run_alg2, {"policy": All()})]
RUN_IDS = ["map", "alg1-LastQ3", "alg1-All", "alg2-LastQ3", "alg2-All"]


@pytest.mark.parametrize("runner,kwargs", RUNS, ids=RUN_IDS)
def test_every_trace_point_is_read_only(runner, kwargs):
    sets, x0, _ = random_family(5)
    r = runner(sets, x0, stop=StoppingRule(1e-10, 300), **kwargs)
    assert len(r.trace) > 3
    for rec in r.trace:
        assert not rec.point.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rec.point[0] += 1.0


@pytest.mark.parametrize("runner,kwargs", RUNS, ids=RUN_IDS)
def test_a_projection_is_recorded_without_a_copy(runner, kwargs):
    """Each set-projection and m1-projection record holds the very array
    that a set's project returned."""
    family, x0, _ = random_family(5)
    returned = []
    sets = [ProjectionCountingSet(s.C, s.d, returned) for s in family]
    r = runner(sets, x0, stop=StoppingRule(1e-10, 300), **kwargs)
    projected = [rec for rec in r.trace if rec.phase != "hyperplane-projection"]
    assert len(projected) > 3
    ids = {id(p) for p in returned}
    for rec in projected:
        assert id(rec.point) in ids


@pytest.mark.parametrize("runner,kwargs", RUNS, ids=RUN_IDS)
def test_the_solution_is_a_writable_copy(runner, kwargs):
    sets, x0, _ = random_family(5)
    r = runner(sets, x0, stop=StoppingRule(1e-10, 300), **kwargs)
    assert r.solution.flags.writeable and r.x0.flags.writeable
    last = r.trace[-1].point
    assert not np.shares_memory(r.solution, last)
    np.testing.assert_array_equal(r.solution, last)
    before = last.copy()
    r.solution[:] = 0.0
    np.testing.assert_array_equal(r.trace[-1].point, before)
