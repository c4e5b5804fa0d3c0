"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload pencil [--seeds 1,2,3] [--trace 0]

For every metric of the mode this prints the median over the runs and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json.  A spread at or above a
third of the bound is marked, since that is too unsteady to gate on.

DEFAULT_SEEDS are the seeds used while writing the benchmark.  HELD_OUT_SEED
is kept out of them so that a later claim can be checked on a seed that
nothing was tuned on.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 97


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)))
    ap.add_argument("--seconds", type=int, default=declared["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    values = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        factor = next((l.split()[2].rstrip(":") for l in lines
                       if l.startswith("machine factor")), "-")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} machine factor {factor}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    for name, vals in values.items():
        mid = statistics.median(vals)
        if len(vals) >= 2 and mid:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(mid)
        else:
            spread = 0.0
        bound = bounds.get(name)
        mark = "  <-- above bound/3" if bound and spread >= bound / 3 else ""
        shown = "" if bound is None else f" bound {bound}"
        print(f"{name:32s} median {mid:<14.6g} spread {spread:7.2%}{shown}{mark}")
        print("    " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
