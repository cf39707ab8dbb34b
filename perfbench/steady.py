"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``perfbench/run.py`` once per seed and workload (one at a time) and
prints, per metric, the median and the distance between the first and
third quartiles as a share of the median — the spread the regression
bounds in ``BENCHMARK.json`` are set against (target: under a third of
the bound). ``--traced`` adds one traced run per workload on the first
seed. From the repository root::

    python3 perfbench/steady.py --workloads fft2048 --seeds 5
    python3 perfbench/steady.py --seeds 10 --traced --json summary.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": args.seconds, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        entry = {"seeds": list(seeds), "end_to_end": {}}
        print(f"{name} ({len(runs)} seeds from {args.first_seed}):")
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = stats
            wide = stats["spread"] >= bound / 3 and metric != "setup_s"
            steady &= not wide
            print(f"  {metric:24s} median {stats['median']:12.6g}  spread "
                  f"{stats['spread']:7.2%}  (bound/3 {bound / 3:6.2%})"
                  f"{'  WIDE' if wide else ''}")
        if args.traced:
            traced = run_once(name, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
        summary["workloads"][name] = entry
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
