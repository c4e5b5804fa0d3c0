"""Command-line interface: run solves, benchmark policies, print the
direct-oracle projection, and verify convergence certificates.

Problems come from the built-in experiments, a JSON problem file, or a
seeded random-family generator; traces are written as CSV with a fixed
column schema so downstream plotting is diff-stable.
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import mmup
from .diagnostics import condition_report
from .linalg import norm
from .oracle import UnsupportedSetError, direct_projection, stack
from .sets import AffineSet, InfeasibleSetError, RowConstraintSet
from .solver import (All, LastQ, SolveResult, StoppingRule, WindowPolicy, run_alg1,
                     run_alg2, run_map)

THRESHOLDS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


def random_family(dim: int, k: int, codims: Sequence[int], seed: int):
    """k random row-constraint sets through a common point.

    Returns (sets, x0, member): the constraint matrices are Gaussian,
    the right-hand sides are chosen so one drawn point lies in every
    set, which certifies a nonempty intersection; member is that point.
    """
    if len(codims) != k:
        raise ValueError(f"need {k} codimensions, got {len(codims)}")
    if sum(codims) > dim - 1:
        raise ValueError("total codimension must be at most dim - 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim)
    sets: List[AffineSet] = []
    for c in codims:
        C = rng.standard_normal((int(c), dim))
        sets.append(RowConstraintSet(C, C @ z))
    x0 = rng.standard_normal(dim)
    return sets, x0, z


def _parse_random_spec(spec: str):
    """Parse 'dim=20,k=3,seed=7[,codims=2:3:4]'."""
    fields = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad random spec field {part!r}")
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    try:
        dim = int(fields["dim"])
        k = int(fields["k"])
        seed = int(fields.get("seed", "0"))
    except KeyError as e:
        raise ValueError(f"random spec is missing {e.args[0]!r}") from None
    if k < 1:
        raise ValueError(f"random spec needs k >= 1, got k={k}")
    if "codims" in fields:
        codims = [int(c) for c in fields["codims"].split(":")]
    else:
        codims = [max(1, (dim - 1) // (2 * k))] * k
    return dim, k, codims, seed


class Problem:
    """A solvable instance: sets, start point, optional pencil context."""

    def __init__(self, sets, x0, label, prob=None, member=None):
        self.sets = sets
        self.x0 = np.asarray(x0, dtype=float).reshape(-1)
        self.label = label
        self.prob = prob          # MmupProblem when applicable
        self.member = member      # certified intersection member, if known

    @property
    def is_pencil(self) -> bool:
        return self.prob is not None


def _load_problem(args) -> Problem:
    sources = [args.experiment is not None, args.problem is not None,
               args.random is not None]
    if sum(sources) != 1:
        raise ValueError("choose exactly one of --experiment, --problem, --random")
    if args.experiment is not None:
        if args.experiment == 1:
            prob, _ = mmup.experiment1()
        elif args.experiment == 2:
            prob, _ = mmup.experiment2()
        else:
            raise ValueError("--experiment must be 1 or 2")
        return Problem(prob.sets, prob.flatten(prob.x0),
                       f"experiment{args.experiment}", prob=prob)
    if args.problem is not None:
        prob, _ = mmup.load_problem_json(args.problem)
        return Problem(prob.sets, prob.flatten(prob.x0), args.problem, prob=prob)
    dim, k, codims, seed = _parse_random_spec(args.random)
    sets, x0, member = random_family(dim, k, codims, seed)
    return Problem(sets, x0, f"random(dim={dim},k={k},seed={seed})", member=member)


def _policy(q: Optional[int]) -> WindowPolicy:
    return LastQ(q) if q is not None else All()


def _solve(problem: Problem, alg: str, policy: WindowPolicy,
           stop: StoppingRule) -> SolveResult:
    if alg == "map":
        return run_map(problem.sets, problem.x0, stop=stop)
    if alg == "alg1":
        return run_alg1(problem.sets, problem.x0, policy=policy, stop=stop)
    if alg == "alg2":
        return run_alg2(problem.sets, problem.x0, policy=policy, stop=stop)
    raise ValueError(f"unknown algorithm {alg!r}")


def _fmt(v) -> str:
    return "%.17g" % float(v)


def write_trace_csv(fh, result: SolveResult, sets: Sequence[AffineSet],
                    oracle_point: Optional[np.ndarray] = None) -> None:
    """Fixed schema: iter,phase,set_index,step_norm,residual_max,
    residual_per_set_1..k,dist_oracle, with the residuals and the distance
    to oracle_point computed from each record's point.  Set indices are
    1-based; dist_oracle is left empty without an oracle point."""
    cols = ["iter", "phase", "set_index", "step_norm", "residual_max"]
    cols += [f"residual_per_set_{i + 1}" for i in range(len(sets))]
    cols.append("dist_oracle")
    fh.write(",".join(cols) + "\n")
    for r, step in zip(result.trace, result.step_norms()):
        residuals = [s.residual(r.point) for s in sets]
        row = [str(r.index), r.phase,
               "" if r.set_index is None else str(r.set_index + 1),
               _fmt(step), _fmt(max(residuals))]
        row += [_fmt(v) for v in residuals]
        row.append("" if oracle_point is None else _fmt(norm(r.point - oracle_point)))
        fh.write(",".join(row) + "\n")


def _oracle_point(problem: Problem) -> np.ndarray:
    return direct_projection(problem.x0, stack(problem.sets))


def _print_certificates(result: SolveResult, x0: np.ndarray, m: Optional[np.ndarray],
                        policy: WindowPolicy) -> bool:
    """Print the run's convergence certificates against the member m (None
    when no member is known) and return whether they hold: a Fejer margin
    of at most 1e-9, a sum of squared steps within ||x0 - m||^2 + 1e-6
    (checked only with a member) and, under All(), a span-condition
    residual of at most 1e-8."""
    rep = condition_report(result, m)
    print(f"fejer worst margin: {_fmt(rep.fejer_worst)} "
          f"({rep.fejer_violations} violations)")
    bad = rep.fejer_worst > 1e-9
    if rep.sum_of_squares and m is not None:
        total, bound = rep.sum_of_squares[-1], norm(x0 - m) ** 2
        print(f"sum of squared steps: {_fmt(total)} vs bound {_fmt(bound)}")
        bad |= total > bound + 1e-6
    if rep.condition_b_residuals:
        worst = max(rep.condition_b_residuals)
        print(f"span-condition residual: worst {_fmt(worst)}")
        bad |= isinstance(policy, All) and worst > 1e-8
    if rep.b_prime_ratios:
        print(f"decomposition ratio: max {_fmt(max(rep.b_prime_ratios))}")
    return not bad


def cmd_run(args) -> int:
    problem = _load_problem(args)
    policy = _policy(args.q)
    stop = StoppingRule(stop_tol=args.stop_tol, max_iter=args.max_iter)
    oracle_point = _oracle_point(problem) if args.oracle else None
    result = _solve(problem, args.alg, policy, stop)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            write_trace_csv(fh, result, problem.sets, oracle_point)
    print(f"problem: {problem.label}")
    print(f"algorithm: {args.alg}  policy: {policy}")
    print(f"iterations: {result.iterations}  converged: {result.converged}  "
          f"stop_reason: {result.stop_reason}")
    finals = [s.residual(result.solution) for s in problem.sets]
    print("final per-set residuals: " + ", ".join(_fmt(v) for v in finals))
    if problem.is_pencil:
        series = mmup.residual_by_v_projection(problem.prob, result)
        print(f"constraint residual: {_fmt(mmup.pencil_residual(problem.prob, result.solution))} "
              f"after {len(series) - 1} V-projections (start {_fmt(series[0])})")
    if oracle_point is not None:
        print(f"distance to oracle projection: {_fmt(norm(result.solution - oracle_point))}")
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.monitors:
        m = problem.member
        if m is None:
            try:
                m = oracle_point if oracle_point is not None else _oracle_point(problem)
            except (UnsupportedSetError, ValueError):
                m = None
        _print_certificates(result, problem.x0, m, policy)
    if result.stop_reason == "infeasible":
        return 1
    return 0


def _parse_bench_config(text: str) -> Tuple[str, Optional[int]]:
    if ":" in text:
        alg, q = text.split(":", 1)
        return alg.strip(), int(q)
    return text.strip(), None


def cmd_bench(args) -> int:
    problem = _load_problem(args)
    if not problem.is_pencil:
        raise ValueError("bench needs --experiment or --problem (thresholds count "
                         "V-projections)")
    stop = StoppingRule(stop_tol=args.stop_tol, max_iter=args.max_iter)
    thresholds = ([float(t) for t in args.thresholds.split(",")]
                  if args.thresholds else list(THRESHOLDS))
    out = io.StringIO()
    out.write("algorithm,q,threshold,v_projections\n")
    for text in args.config:
        alg, q = _parse_bench_config(text)
        result = _solve(problem, alg, _policy(q), stop)
        for t in thresholds:
            count = mmup.v_projections_to_threshold(problem.prob, result, t)
            out.write(f"{alg},{'' if q is None else q},{float(t)},"
                      f"{'' if count is None else count}\n")
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return 0


def cmd_oracle(args) -> int:
    for v in _oracle_point(_load_problem(args)):
        print(_fmt(v))
    return 0


def cmd_verify(args) -> int:
    problem = _load_problem(args)
    policy = _policy(args.q)
    stop = StoppingRule(stop_tol=args.stop_tol, max_iter=args.max_iter)
    result = _solve(problem, args.alg, policy, stop)
    m = problem.member if problem.member is not None else _oracle_point(problem)
    print(f"problem: {problem.label}  algorithm: {args.alg}")
    print(f"converged: {result.converged} ({result.stop_reason}) "
          f"after {result.iterations} iterations")
    ok = _print_certificates(result, problem.x0, m, policy)
    dist = norm(result.solution - m)
    print(f"distance to certified member: {_fmt(dist)}")
    print("status: " + ("ok" if ok else "violated"))
    return 0 if ok else 1


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--experiment", type=int, choices=(1, 2), default=None,
                   help="built-in pencil-updating instance")
    p.add_argument("--problem", default=None, help="JSON problem file")
    p.add_argument("--random", default=None,
                   help="random family spec, e.g. dim=20,k=3,seed=7[,codims=2:3:4]")


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alg", choices=("map", "alg1", "alg2"), default="map")
    p.add_argument("--q", type=int, default=None, help="window LastQ(N); All() without it")
    p.add_argument("--stop-tol", dest="stop_tol", type=float, default=1e-10)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=10000)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="affproj",
                                 description="projection onto intersections of affine subspaces")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one configuration and write a trace")
    _add_problem_flags(p_run)
    _add_solve_flags(p_run)
    p_run.add_argument("--monitors", action="store_true",
                       help="print convergence-certificate checks")
    p_run.add_argument("--oracle", action="store_true",
                       help="compute the direct projection and report distances")
    p_run.add_argument("--output", default=None, help="trace CSV path")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="V-projection counts to residual thresholds")
    _add_problem_flags(p_bench)
    p_bench.add_argument("--config", action="append", required=True,
                         help="ALG[:Q], e.g. map, alg1:3, alg2:1 (repeatable)")
    p_bench.add_argument("--thresholds", default=None,
                         help="comma-separated residual thresholds")
    p_bench.add_argument("--stop-tol", dest="stop_tol", type=float, default=1e-10)
    p_bench.add_argument("--max-iter", dest="max_iter", type=int, default=10000)
    p_bench.add_argument("--output", default=None, help="comparison CSV path")
    p_bench.set_defaults(func=cmd_bench)

    p_oracle = sub.add_parser("oracle", help="print the direct projection")
    _add_problem_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run and check convergence certificates")
    _add_problem_flags(p_verify)
    _add_solve_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, UnsupportedSetError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfeasibleSetError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
