"""Bench-trend gate: regenerated vs committed ``BENCH_sim_speed.json``.

CI's bench job reruns the benchmarks (which write the gitignored
``.bench/BENCH_sim_speed.json``, leaving the committed file alone), then
calls::

    python benchmarks/bench_trend.py BENCH_sim_speed.json .bench/BENCH_sim_speed.json

Any **guarded metric** that regressed by more than
:data:`MAX_REGRESSION` fails the build with a per-metric report. Guarded
metrics are the ones a guard test enforces a floor for — the FFT-2048
engine speedup, the batched-stream speedup, and the pool speedup (the
latter only when *both* snapshots were measured with the guard enforced,
so a 1-CPU laptop snapshot can never trip the trend gate; the
``skip_reason`` field says why a side was unenforced). Improvements and
new metrics always pass — the committed file is a floor, not a pin.

The same comparison is published on the metrics bus
(:func:`publish_rows` — ``repro_bench_guarded_metric`` /
``repro_bench_regression`` gauges), so the guarded ratios are observable
live through the obs layer, not only in CI logs; ``--prom FILE`` writes
the Prometheus text exposition next to the report (``-`` for stdout).
"""

from __future__ import annotations

import json
import sys

#: Maximum tolerated relative drop of a guarded metric.
MAX_REGRESSION = 0.10

#: path into the JSON -> condition path that must be truthy on BOTH
#: sides for the metric to be compared (None = always compared).
GUARDED_METRICS = {
    ("speedup",): None,
    ("stream_windows_per_s", "speedup"): None,
    ("pool_windows_per_s", "speedup"):
        ("pool_windows_per_s", "guard_enforced"),
}


def _lookup(payload: dict, path: tuple):
    value = payload
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def compare(committed: dict, regenerated: dict) -> list:
    """Regression report rows: (metric, old, new, drop, failed)."""
    rows = []
    for path, condition in GUARDED_METRICS.items():
        old = _lookup(committed, path)
        new = _lookup(regenerated, path)
        if not isinstance(old, (int, float)) \
                or not isinstance(new, (int, float)) or old <= 0:
            continue
        if condition is not None and not (
            _lookup(committed, condition) and _lookup(regenerated, condition)
        ):
            continue
        drop = (old - new) / old
        rows.append((
            ".".join(path), float(old), float(new), drop,
            drop > MAX_REGRESSION,
        ))
    return rows


def publish_rows(bus, rows) -> None:
    """Publish the comparison on a metrics bus (gauges, per metric)."""
    for metric, old, new, drop, _ in rows:
        bus.set_gauge(
            "repro_bench_guarded_metric", old,
            metric=metric, side="committed",
        )
        bus.set_gauge(
            "repro_bench_guarded_metric", new,
            metric=metric, side="regenerated",
        )
        bus.set_gauge("repro_bench_regression", drop, metric=metric)


def main(argv: list) -> int:
    prom_path = None
    if "--prom" in argv:
        at = argv.index("--prom")
        try:
            prom_path = argv[at + 1]
        except IndexError:
            print("--prom needs a file path (or - for stdout)")
            return 2
        argv = argv[:at] + argv[at + 2:]
    if len(argv) != 3:
        print(__doc__)
        return 2
    committed = json.loads(open(argv[1]).read())
    regenerated = json.loads(open(argv[2]).read())
    rows = compare(committed, regenerated)
    try:
        from repro.obs import MetricsBus, get_bus, render_prometheus
    except ImportError:
        # Standalone invocation without the package on sys.path: the
        # gate still works, only the live/exposition side is off.
        if prom_path is not None:
            print("--prom needs the repro package importable "
                  "(PYTHONPATH=src or pip install -e .)")
            return 2
    else:
        bus = get_bus()  # publish into an installed bus when one is live
        if bus is None and prom_path is not None:
            bus = MetricsBus()
        if bus is not None:
            publish_rows(bus, rows)
        if prom_path is not None:
            text = render_prometheus(bus)
            if prom_path == "-":
                sys.stdout.write(text)
            else:
                with open(prom_path, "w") as handle:
                    handle.write(text)
    failed = False
    for metric, old, new, drop, bad in rows:
        verdict = "FAIL" if bad else "ok"
        print(
            f"[{verdict}] {metric}: committed {old:.4g} -> measured "
            f"{new:.4g} ({-drop * 100:+.1f}%)"
        )
        failed |= bad
    if not rows:
        print("no guarded metrics comparable; trend gate passes")
    if failed:
        print(
            "bench-trend: guarded metric regressed more than "
            f"{MAX_REGRESSION:.0%} vs the committed BENCH_sim_speed.json"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
