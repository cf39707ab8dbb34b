"""Batched serving throughput: stream scheduler vs independent runners.

Serves the same long respiration trace twice through the full MBioTracker
``cpu_vwr2a`` pipeline:

* **independent** — the pre-serving pattern: a fresh
  :class:`KernelRunner` (fresh SoC, fresh configuration memory, fresh
  engine bindings) per window, one ``run_application`` call each;
* **batched** — one :func:`repro.serve.serve_trace` call: a single runner
  whose kernel stores dedupe structurally, whose SRAM staging region is
  rewound before every window, and whose compiled programs/bindings are
  reused across windows.

Writes the ``stream_windows_per_s`` entry into ``BENCH_sim_speed.json``
and guards that batched serving beats the N-independent-launch flow.
Process-wide structural caches (compile memos, hazard checks) are warmed
first so the comparison is steady-state amortization, not cold-start
compilation. Both flows are timed best-of-:data:`N_REPEATS` so one
descheduled pass cannot trip the speedup floor or the CI bench-trend
gate (``bench_trend.py`` fails on a >10% drop vs the committed
snapshot). Kept bench-job-bounded: ~40 application windows total.
"""

from __future__ import annotations

import time

from bench_io import update_bench
from repro.app import WINDOW, respiration_signal, run_application
from repro.kernels import KernelRunner
from repro.serve import serve_trace

#: Windows in the measured stream (one extra window warms the caches).
N_WINDOWS = 6

#: Timed passes per flow; the best (minimum) wall time is kept.
N_REPEATS = 5

#: Acceptance floor: batched serving must beat independent runners.
MIN_STREAM_SPEEDUP = 1.1


def test_stream_throughput_vs_independent_runners():
    trace = respiration_signal(N_WINDOWS * WINDOW)
    # Warm the process-wide structural caches (compile memo, hazard
    # cache, conflict analysis) so both flows measure steady state.
    run_application(trace[:WINDOW], "cpu_vwr2a", KernelRunner())

    # The flows are interleaved within each repeat so a transiently
    # loaded host slows both sides of the same round; the per-flow
    # minima then come from the same quiet stretch and the ratio stays
    # fair even when half the passes are descheduled.
    independent_wall = batched_wall = float("inf")
    for _ in range(N_REPEATS):
        # -- independent: a fresh runner per window ----------------------
        independent = []
        start = time.perf_counter()
        for i in range(N_WINDOWS):
            window = trace[i * WINDOW:(i + 1) * WINDOW]
            independent.append(run_application(window, "cpu_vwr2a"))
        independent_wall = min(
            independent_wall, time.perf_counter() - start)

        # -- batched: one stream through one runner ----------------------
        start = time.perf_counter()
        report = serve_trace(trace, "cpu_vwr2a", energy_model=None)
        batched_wall = min(batched_wall, time.perf_counter() - start)

    # Same served inference, window for window.
    assert report.n_windows == N_WINDOWS
    assert report.labels == [app.label for app in independent]
    assert [w.app.features for w in report.windows] \
        == [app.features for app in independent]
    assert [w.cycles for w in report.windows] \
        == [app.total_cycles for app in independent]

    speedup = independent_wall / batched_wall
    update_bench({
        "stream_windows_per_s": {
            "benchmark": "mbiotracker cpu_vwr2a window stream",
            "metric": "application windows served per wall-clock second",
            "n_windows": N_WINDOWS,
            "independent_windows_per_s": N_WINDOWS / independent_wall,
            "batched_windows_per_s": report.n_windows / batched_wall,
            "independent_wall_seconds": independent_wall,
            "batched_wall_seconds": batched_wall,
            "speedup": speedup,
            "measured_repeats": N_REPEATS,
            "min_speedup_required": MIN_STREAM_SPEEDUP,
            "store_dedup_hits": report.store_stats["dedup_hits"],
            "store_encode_misses": report.store_stats["encode_misses"],
            "simulated_cycles_per_window":
                report.total_cycles // N_WINDOWS,
            "overlap_saved_cycles": report.overlap_saved_cycles,
        },
    })
    assert speedup >= MIN_STREAM_SPEEDUP, (
        f"batched stream only {speedup:.2f}x faster than independent "
        f"runners (need >= {MIN_STREAM_SPEEDUP}x); see BENCH_sim_speed.json"
    )
