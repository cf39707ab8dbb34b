"""One benchmark for the VWR2A stack: windows/s end to end, time by layer.

Run from the repository root::

    python3 perfbench/run.py --workload stream_seq --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off; host times in
reference seconds, see ``hostspeed``); ``--trace 1``
runs the same rounds untraced and then traced, checks that both produce
identical outputs, and prints the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs are
checked against reference models; any mismatch makes the exit code 1.
Spans of a traced run are written to ``.perfbench/`` at the repository
root. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)

#: Metric name -> unit, for the untraced and the traced run.
E2E_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

#: ``latency_ms_tail`` is the median over the run of the p90 of each
#: block of ``TAIL_BLOCK`` consecutive items. A host blip slows single
#: items, and how many a run catches varies from run to run: it moves the
#: p90 of a few blocks. A slow item that recurs — every heavy window, or
#: every 8th call — lifts the p90 of every block.
TAIL_BLOCK = 32
TAIL_PCT = 90.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, -(-int(pct * len(ordered)) // 100)) - 1]


def tail(latencies) -> tuple:
    """``(value, blocks)``: the median of the blocks' p90 (one block when
    there are fewer than ``TAIL_BLOCK`` latencies)."""
    blocks = [
        latencies[i: i + TAIL_BLOCK]
        for i in range(0, len(latencies) - TAIL_BLOCK + 1, TAIL_BLOCK)
    ] or [latencies]
    return (statistics.median(percentile(b, TAIL_PCT) for b in blocks),
            len(blocks))


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_rounds(workload, seconds: float = None, count: int = None) -> list:
    """Rounds until ``seconds`` have passed (at least one) or ``count``.

    Each round is ``(wall_s, items, latencies_s, scale)``: the latencies
    are the item spans recorded during the round; host times times
    ``scale`` are reference seconds (see ``hostspeed``).
    """
    tracer = workload.tracer
    rounds = []
    start = time.perf_counter()
    probes = [hostspeed.probe()]
    while True:
        if count is not None:
            if len(rounds) >= count:
                break
        elif rounds and time.perf_counter() - start >= seconds:
            break
        first_span = len(tracer.spans)
        wall, items = workload.round(len(rounds), keep=not rounds)
        probes.append(hostspeed.probe())
        latencies = [s[3] - s[2] for s in tracer.spans[first_span:]
                     if s[1] == workload.item_span]
        rounds.append((wall, items, latencies))
    return [r + (scale,) for r, scale in zip(rounds, hostspeed.scales(probes))]


def measure_untraced(workload, seconds: float) -> dict:
    from tracing import LATENCY_TARGETS

    tracer = workload.tracer
    setup_times = workload.measure_setup()
    tracer.install(LATENCY_TARGETS)
    try:
        workload.setup()
        tracer.reset()
        rounds = run_rounds(workload, seconds=seconds)
    finally:
        tracer.uninstall()
    failures = workload.check()
    items = [item for _, its, _, _ in rounds for item in its]
    # One pass over the distinct inputs: the same items on every run.
    first_pass = [item for _, its, _, _ in rounds[: workload.pass_rounds]
                  for item in its]
    latencies = [lat * scale for _, _, lats, scale in rounds
                 for lat in lats]
    tail_s, blocks = tail(latencies)
    scales = [scale for _, _, _, scale in rounds]
    values = {
        "items_per_s": statistics.median(
            len(its) / (wall * scale) for wall, its, _, scale in rounds
        ),
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_tail": tail_s * 1e3,
        "sim_cycles_per_s": statistics.median(
            sum(c for c, _, _ in its) / (wall * scale)
            for wall, its, _, scale in rounds
        ),
        "sim_cycles_per_item":
            sum(c for c, _, _ in first_pass) / len(first_pass),
        "sim_energy_uj_per_item":
            sum(e for _, e, _ in first_pass) / len(first_pass),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = [
        f"rounds {len(rounds)}, {len(items)} {workload.item}s "
        f"({len(first_pass)} in the first pass); {len(latencies)} latency "
        f"samples, tail = median p{TAIL_PCT:g} of {blocks} blocks of "
        f"{TAIL_BLOCK}",
        f"reference s per host s: median {statistics.median(scales):.3f}, "
        f"{min(scales):.3f}-{max(scales):.3f}; unscaled items/s "
        f"{statistics.median(len(r[1]) / r[0] for r in rounds):.4g}",
        "setup samples (reference s): "
        + ", ".join(f"{t:.4f}" for t in setup_times),
    ]
    return {"items": len(items), "failures": failures, "values": values,
            "units": E2E_UNITS, "notes": notes}


def measure_traced(workload, seconds: float, trace_path: str) -> dict:
    from tracing import TARGETS, layer_metrics

    tracer = workload.tracer
    tracer.install(TARGETS)
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    setup = tracer.snapshot()

    tracer.reset()
    plain = run_rounds(workload, seconds=seconds / 2)
    tracer.reset()
    tracer.install(TARGETS)
    try:
        traced = run_rounds(workload, count=len(plain))
    finally:
        tracer.uninstall()
    failures = workload.check()
    for index, (p, t) in enumerate(zip(plain, traced)):
        a, b = p[1], t[1]
        for k, (x, y) in enumerate(zip(a, b)):
            if x[2] != y[2]:
                failures.append(
                    f"round {index} item {k}: traced output digest differs"
                )
    steady = tracer.snapshot()
    items = sum(len(r[1]) for r in traced)
    values = layer_metrics(steady, items, setup)
    values["trace_overhead_frac"] = (
        sum(r[0] * r[3] for r in traced) / sum(r[0] * r[3] for r in plain)
        - 1.0
    )
    with open(trace_path, "w") as handle:
        json.dump({"setup": setup["spans"], "steady": steady["spans"]},
                  handle)
    notes = [
        f"rounds {len(traced)} untraced + {len(traced)} traced, "
        f"{items} {workload.item}s each, {len(steady['spans'])} spans "
        f"-> {os.path.relpath(trace_path, ROOT)}",
    ]
    return {"items": 2 * items, "failures": failures, "values": values,
            "units": LAYER_UNITS, "notes": notes}


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes=None) -> dict:
    """Run one workload; returns the result object plus notes."""
    from tracing import Tracer
    from workloads import DEFAULT, WORKLOADS

    workload = WORKLOADS[name](seed, sizes or DEFAULT, Tracer())
    if trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
        outcome = measure_traced(workload, seconds, path)
    else:
        outcome = measure_untraced(workload, seconds)
    if set(outcome["values"]) != set(outcome["units"]):
        raise RuntimeError(
            "computed metrics differ from BENCHMARK.json: "
            f"{sorted(set(outcome['values']) ^ set(outcome['units']))}"
        )
    attempted = outcome["items"]
    failed = min(len(outcome["failures"]), attempted)
    result = {
        "correct": not outcome["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": outcome["values"][key], "unit": unit}
            for key, unit in outcome["units"].items()
        },
    }
    notes = outcome["notes"] + [
        f"error_rate {failed / attempted:.6g} ({failed}/{attempted})"
    ] + [f"FAILED: {f}" for f in outcome["failures"]]
    return {"result": result, "notes": notes}


def pin_to_one_cpu() -> None:
    """Run this process, and every process it forks, on one CPU.

    On a shared VM each vCPU is slowed by other tenants on its own, 2x at
    times, switching within a second: pinned, the host-speed probe
    measures the CPU the program and its set-up children run on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def add_src_path() -> bool:
    """Put the repository's ``src`` first on the path; False if absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCH["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not add_src_path():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}:")
    for note in out["notes"]:
        print(f"  {note}")
    for key, metric in out["result"]["metrics"].items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
