"""affproj benchmark: seconds to stop_tol per solver, with a traced per-layer split.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload rowfam --seed 1 --seconds 35 --trace 0

Workloads are defined in workloads.py and listed with their reasons in
BENCHMARK.json.  A run draws a fixed instance list from --seed, solves one
full round over it, then keeps solving round-robin until --seconds have
passed.  Every output is checked; a failed check counts as a failed solve.

--trace 0 times every call untraced and prints the end-to-end metrics.
--trace 1 runs every call untraced and then through the span wrappers of
spans.py, requires the two to agree bit for bit, prints the per-layer split
and writes the spans to .perfbench_out/.  Since it makes every call twice,
it may stop after any instance once --seconds have passed.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics,
holding exactly the metrics BENCHMARK.json declares for that mode.

The package is imported from src/ of the checkout, never from an installed
copy, so a run without src/ stops with an error and prints no result.
"""

import os

# Load comes from this one process, with BLAS on one thread; the variables
# must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import itertools
import json
import platform
import resource
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Median time of Ruler() on the machine the benchmark was written on: a
# 2-vCPU VM, Python 3.11, OpenBLAS 0.3.31 on one thread.
RULER_REF_S = 0.0105
REPEAT_S = 0.3        # oracle and certify calls repeat until this long, at most REPEAT_MAX times
REPEAT_MAX = 10
SETUP_SAMPLES = 5     # set-up timings per instance and round, each over SETUP_BATCH builds
SETUP_BATCH = 20
MB = 1e6
TIMINGS = ("map_s", "alg1_s", "alg2_s", "oracle_s", "certify_s", "setup_s")
COUNTS = ("iterations", "projections", "v_projections")
# Spans directly under a solve; with the solve's self time they add up to it.
DIRECT = ("sets.project", "sets.residual", "solver.select", "linalg.gram_solve")
NESTED = ("linalg.lstsq", "mmup.s_proj", "mmup.v_proj")


def import_package():
    if not (SRC / "affproj" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'affproj'} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import affproj
    if Path(affproj.__file__).resolve().parent != SRC / "affproj":
        sys.exit(f"error: affproj was imported from {affproj.__file__}, not from {SRC}")


def environment(args):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def median(values):
    return float(np.median(values)) if values else 0.0


def tail(values):
    """(p, value) for the highest usual percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(values, p))
    return None


class Ruler:
    """Fixed numpy-only work, timed after every measured call.

    The shared host changes speed by up to 1.4x over minutes, and this
    kernel slows with it: small LAPACK and interpreter-bound calls like the
    row-family solves, then copies and a matmul like the chain's.  Each
    run's timings are scaled by RULER_REF_S / (median ruler time), which
    turns them into seconds on the reference machine.  On that host it cut
    the spread of 30-second medians of a fixed solve from 30% to 3%.
    The kernel uses no code of the package, so no change there can move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.c = rng.standard_normal((40, 400))
        self.x = rng.standard_normal(400)
        self.big = rng.standard_normal(40000)
        self.m = rng.standard_normal((200, 200))

    def __call__(self):
        t0 = perf_counter()
        y = self.x
        for _ in range(25):
            v = np.asarray(y, dtype=float)
            if not np.all(np.isfinite(v)):
                raise ValueError("ruler diverged")
            lam = np.linalg.lstsq(self.c @ self.c.T, self.c @ v, rcond=1e-12)[0]
            y = v - 1e-3 * (self.c.T @ lam)
        z = self.big
        for _ in range(25):
            z = z.copy()
        for _ in range(3):
            self.m @ self.m
        return perf_counter() - t0


class Run:
    """Samples, counts and failures of one benchmark run."""

    def __init__(self, w, wl, seed, seconds, tracer):
        self.w = w                       # the workloads module
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.samples = defaultdict(list)      # metric -> seconds per call
        self.counts = defaultdict(int)        # first-round totals of COUNTS
        self.oracle = {}                      # instance -> first oracle point
        self.first = {}                       # (instance, method) -> first solution
        self.to_certify = {}                  # instance -> result of wl.certify
        self.traced = defaultdict(list)       # method -> [(Summary, facts)]
        self.requests = defaultdict(list)     # root span name -> [Summary]
        self.untraced_s = 0.0                 # untraced twins of the traced solves
        self.notes = []
        self.rounds = 0
        self.ruler = Ruler()

    def attempt(self, what, step, *args):
        """One checked call: step(*args) returns None or why it failed."""
        self.attempted += 1
        try:
            why = step(*args)
        except Exception as e:  # a call that raises is a failed call
            why = f"{type(e).__name__}: {e}"
        if why is not None:
            self.failures.append(f"{what}: {why}")
            print(f"FAILED {what}: {why}", file=sys.stderr)

    def timed(self, name, fn, *args, repeat=False):
        """Outputs of fn(*args), each call timed as a sample of `name`.

        With repeat, a cheap call is made again until REPEAT_S has passed or
        it ran REPEAT_MAX times, so cheap metrics get as many samples as the
        solves get rounds."""
        outs = []
        spent = 0.0
        while not outs or (repeat and spent < REPEAT_S and len(outs) < REPEAT_MAX):
            t0 = perf_counter()
            outs.append(fn(*args))
            dt = perf_counter() - t0
            self.samples[name].append(dt)
            spent += dt
        return outs

    def traced_call(self, root, fn, *args):
        out, summary = self.tracer.call(root, fn, *args)
        self.requests[root].append(summary)
        return out

    # -- set-up ---------------------------------------------------------------

    def set_up(self):
        wl, w = self.wl, self.w
        small = wl.build(wl.generate(self.seed, 0, wl.small))
        for method, policy in wl.configs:      # load lazily imported code paths
            w.solve(method, policy, small.sets, small.x0)
        w.oracle_projection(small)
        self.arrays = [wl.generate(self.seed, i) for i in range(wl.instances)]
        if self.tracer is None:
            self.instances = [wl.build(a) for a in self.arrays]
        else:
            self.instances = [self.traced_call("setup", wl.build, a) for a in self.arrays]
        if wl.name == "pencil":
            self.twins = [w.pencil_twin(self.seed, i) for i in range(wl.instances)]
            self.attempt(f"oracle and every method on {self.twins[0].label}",
                         self.validate, self.twins[0])
        else:
            self.twins = self.instances

    def validate(self, twin):
        """Oracle and every method on the small chain, once per run."""
        p = self.w.oracle_projection(twin)
        failed = []
        for method, policy in self.wl.configs:
            r = self.w.solve(method, policy, twin.sets, twin.x0)
            self.notes.append(f"validation: {method} on {twin.label} is "
                              f"{np.linalg.norm(r.solution - p):.3e} from the oracle "
                              f"(tolerance {self.w.tolerance(twin):.3e})")
            why = self.w.check_solve(twin, r, p)
            if why is not None:
                failed.append(f"{method}: {why}")
        return "; ".join(failed) or None

    # -- the measured loop ------------------------------------------------------

    def steps(self, i):
        yield f"set-up of {self.instances[i].label} #{i}", self.setup_step, i
        yield f"oracle on {self.twins[i].label} #{i}", self.oracle_step, i
        for method, policy in self.wl.configs:
            yield f"{method} on {self.instances[i].label} #{i}", self.solve_step, i, method, policy
        if i in self.to_certify:
            yield f"certify {self.wl.certify} on {self.instances[i].label} #{i}", self.certify_step, i

    def measure(self):
        """One full round, then round-robin until --seconds have passed.  The
        traced run, which makes every call twice, may stop after any instance."""
        start = perf_counter()
        for rnd in itertools.count():
            for i in range(self.wl.instances):
                for n, (what, step, *args) in enumerate(self.steps(i)):
                    late = perf_counter() - start >= self.seconds
                    if late and (rnd > 0 or (self.tracer is not None and i > 0 and n == 0)):
                        return
                    self.rounds = rnd + 1
                    self.attempt(f"{what} round {rnd}", step, *args)
                    self.samples["ruler"].append(self.ruler())

    def setup_step(self, i):
        """Set construction from the generated arrays, timed inside the loop
        so its samples spread over the whole run like the others."""
        for _ in range(SETUP_SAMPLES):
            t0 = perf_counter()
            for _ in range(SETUP_BATCH):
                self.wl.build(self.arrays[i])
            self.samples["setup_s"].append((perf_counter() - t0) / SETUP_BATCH)

    def oracle_step(self, i):
        twin = self.twins[i]
        outs = self.timed("oracle_s", self.w.oracle_projection, twin, repeat=True)
        p = self.oracle.setdefault(i, outs[0])
        why = self.w.check_oracle(twin, p)
        if why is None and not all(np.array_equal(o, p) for o in outs):
            why = "not bit-identical to the first oracle call"
        if why is None and self.tracer is not None:
            if not np.array_equal(self.traced_call("oracle", self.w.oracle_projection, twin), p):
                why = "traced oracle call differs from the untraced one"
        return why

    def solve_step(self, i, method, policy):
        inst = self.instances[i]
        r = self.timed(f"{method}_s", self.w.solve, method, policy, inst.sets, inst.x0)[0]
        dt = self.samples[f"{method}_s"][-1]
        key = (i, method)
        if key not in self.first:
            # row families check against the oracle, the chain against map
            ref = self.oracle[i] if inst.prob is None else self.first.get((i, "map"), r.solution)
            why = self.w.check_solve(inst, r, ref)
            if why is not None:
                return why
            self.first[key] = r.solution.copy()
            self.counts["iterations"] += r.iterations
            self.counts["projections"] += self.w.projections(r)
            self.counts["v_projections"] += self.w.v_projections(inst, r)
        elif not (r.converged and np.array_equal(r.solution, self.first[key])):
            return "not bit-identical to the first solve of this instance"
        if method == self.wl.certify:
            self.to_certify[i] = r
        if self.tracer is None:
            return None
        facts = {"fallbacks": sum(1 for w in r.warnings if w.startswith("correction")),
                 "corrections": sum(1 for t in r.trace if t.phase == "hyperplane-projection"),
                 "trace_bytes": r.x0.nbytes + sum(t.point.nbytes for t in r.trace)}
        solution, iterations = r.solution, r.iterations
        del r          # keep one long trace alive at a time
        return self.traced_solve(method, policy, inst, solution, iterations, facts, dt)

    def traced_solve(self, method, policy, inst, solution, iterations, facts, dt):
        """The same solve through the proxies and wrappers; it must match."""
        tr, summary = self.tracer.call("solve", self.w.solve, method, policy,
                                       self.tracer.proxies(inst.sets), inst.x0)
        if not np.array_equal(tr.solution, solution) or tr.iterations != iterations:
            return "traced solve differs from the untraced one"
        if summary.children_self > summary.duration:
            return "child spans' self times exceed the solve span"
        self.traced[method].append((summary, facts))
        self.untraced_s += dt
        return None

    def certify_step(self, i):
        inst = self.instances[i]
        r = self.to_certify.pop(i)
        member = inst.member if inst.member is not None else self.first[(i, "map")]
        policy = dict(self.wl.configs)[self.wl.certify]
        outs = self.timed("certify_s", self.w.certify, r, member, policy, repeat=True)
        rep, why = outs[0]
        if why is None and any(o[0].fejer_worst != rep.fejer_worst for o in outs):
            why = "repeated report differs from the first"
        if why is None and self.tracer is not None:
            trep, why = self.traced_call("certify", self.w.certify, r, member, policy)
            if why is None and trep.fejer_worst != rep.fejer_worst:
                why = "traced report differs from the untraced one"
        return why

    # -- metrics ----------------------------------------------------------------

    def machine_factor(self):
        return RULER_REF_S / median(self.samples["ruler"])

    def end_to_end(self):
        f = self.machine_factor()
        m = {name: (median(self.samples[name]) * f, "s") for name in TIMINGS}
        m.update({name: (self.counts[name], "count") for name in COUNTS})
        m["peak_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB")
        return m

    def per_layer(self):
        m = {}
        for method in ("map", "alg1", "alg2"):
            m.update(layer_metrics(method, self.traced[method]))

        def per_call(root, name):
            calls = sum(s.calls[name] for s in self.requests[root])
            return sum(s.seconds[name] for s in self.requests[root]) / calls if calls else 0.0
        m["mmup.build_s"] = (per_call("setup", "mmup.build"), "s")
        m["oracle.stack_s"] = (per_call("oracle", "oracle.stack"), "s")
        m["oracle.solve_s"] = (per_call("oracle", "oracle.solve"), "s")
        m["diagnostics.report_s"] = (per_call("certify", "diagnostics.report"), "s")
        traced = sum(s.duration for runs in self.traced.values() for s, _ in runs)
        m["trace.overhead"] = (traced / self.untraced_s if self.untraced_s else 0.0, "ratio")
        m["oracle.lead"] = (self.oracle_lead(), "ratio")
        for name, count in self.w.experiment_counts():
            m[name] = (count, "count")
        return m

    def oracle_lead(self):
        """Best iterative median over the oracle median; 0 on the chain, where
        the oracle only runs on the smaller twins."""
        if self.twins is not self.instances or not self.samples["oracle_s"]:
            return 0.0
        best = min(median(self.samples[f"{k}_s"]) for k, _ in self.wl.configs)
        return best / median(self.samples["oracle_s"])


def layer_metrics(method, runs):
    """Per-solve means over the traced solves of one method (0 when the
    workload does not run the layer)."""
    n = len(runs) or 1
    seconds = defaultdict(float)
    calls = defaultdict(int)
    sizes = defaultdict(list)
    facts = defaultdict(int)
    solve = self_time = 0.0
    for s, f in runs:
        for k, v in s.seconds.items():
            seconds[k] += v
        for k, v in s.calls.items():
            calls[k] += v
        for k, v in s.sizes.items():
            sizes[k].extend(v)
        for k, v in f.items():
            facts[k] += v
        solve += s.duration
        self_time += s.self_time
    m = {"solve_s": (solve / n, "s"), "solver.self_s": (self_time / n, "s")}
    for span in DIRECT + NESTED:
        m[f"{span}_s"] = (seconds[span] / n, "s")
        m[f"{span}_n"] = (calls[span] / n, "count")
    checks = calls["sets.project"] + calls["sets.residual"]
    m["sets.useful_ratio"] = (calls["sets.project"] / checks if checks else 0.0, "ratio")
    window = sizes["solver.select"]
    m["solver.window_mean"] = (sum(window) / len(window) if window else 0.0, "count")
    m["solver.window_max"] = (max(window, default=0), "count")
    rows = sizes["linalg.gram_solve"]
    m["linalg.gram_rows_mean"] = (sum(rows) / len(rows) if rows else 0.0, "count")
    m["solver.fallbacks"] = (facts["fallbacks"] / n, "count")
    corrections = facts["corrections"]
    m["solver.correct_ok_ratio"] = ((corrections - facts["fallbacks"]) / corrections
                                    if corrections else 0.0, "ratio")
    m["solver.trace_mb"] = (facts["trace_bytes"] / n / MB, "MB")
    return {f"{method}.{k}": v for k, v in m.items()}


def print_report(run, metrics, trace):
    for note in run.notes:
        print(note)
    print(f"rounds: {run.rounds} over {run.wl.instances} instances")
    if not trace:
        f = run.machine_factor()
        print(f"machine factor {f:.4f}: reference {RULER_REF_S} s over the median of "
              f"{len(run.samples['ruler'])} ruler timings; the timings below are wall "
              "seconds times this factor")
        for name in TIMINGS:
            values = run.samples[name]
            t = tail(values)
            extra = (f"p{t[0]:g} {t[1] * f:.6g} s" if t
                     else "no percentile has 10 samples beyond it")
            print(f"{name}: median {metrics[name][0]:.6g} s, {extra}, n={len(values)} "
                  f"(wall median {median(values):.6g} s)")
        for name in COUNTS + ("peak_mb",):
            print(f"{name}: {metrics[name][0]:.6g} {metrics[name][1]}")
        lead = run.oracle_lead()
        if lead:
            print(f"oracle beats every iterative solver: {'yes' if lead > 1 else 'NO'} "
                  f"(best iterative median / oracle median = {lead:.4g})")
    else:
        for method, _ in run.wl.configs:
            solve = metrics[f"{method}.solve_s"][0]
            parts = [(span, metrics[f"{method}.{span}_s"][0]) for span in DIRECT]
            parts.append(("solver.self", metrics[f"{method}.solver.self_s"][0]))
            parts.sort(key=lambda kv: -kv[1])
            split = ", ".join(f"{k} {v / solve:.1%}" for k, v in parts if solve)
            nested = ", ".join(f"{k} {metrics[f'{method}.{k}_s'][0] / solve:.1%}"
                               for k in NESTED if solve)
            print(f"{method} split of {solve:.4g} s per solve over "
                  f"{len(run.traced[method])} traced solves: {split}; nested: {nested}")
            print(f"{method} largest share: {parts[0][0]}; trace "
                  f"{metrics[f'{method}.solver.trace_mb'][0]:.1f} MB per solve")
        print(f"tracing overhead: {metrics['trace.overhead'][0]:.3f}x untraced solve time")
    fails = len(run.failures)
    print(f"fail_rate: {fails}/{run.attempted} = {fails / max(run.attempted, 1):.4g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    import_package()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("env: " + json.dumps(environment(args)))

    tracer = spans.Tracer() if args.trace else None
    run = Run(workloads, workloads.WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    run.set_up()
    run.measure()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    print_report(run, metrics, args.trace)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")

    out = {}
    for d in declared["per_layer" if args.trace else "end_to_end"]:
        value, unit = metrics[d["name"]]
        if unit != d["unit"]:
            sys.exit(f"error: {d['name']} is measured in {unit}, BENCHMARK.json says {d['unit']}")
        out[d["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
