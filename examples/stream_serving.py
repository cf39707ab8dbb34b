"""Batched window-stream serving of a long respiration trace.

Mirrors docs/serving.md: slice a multi-minute synthetic recording into
512-sample windows, serve them through one StreamScheduler (kernels
stored once, one SRAM staging region rewound per window), read the
per-window and aggregate report, then sweep the same trace across
application variants on the same runner.

Run:  python examples/stream_serving.py
"""

from repro.app import WINDOW, AppParams, high_workload_config, respiration_signal
from repro.kernels import KernelRunner
from repro.serve import ParameterSweep, SweepCase, serve_trace

N_WINDOWS = 8

def main() -> None:
    trace = respiration_signal(N_WINDOWS * WINDOW, high_workload_config())
    print(f"trace: {len(trace)} samples "
          f"({N_WINDOWS} windows of {WINDOW})\n")

    # -- one stream through one runner ----------------------------------
    runner = KernelRunner()
    report = serve_trace(trace, "cpu_vwr2a", runner=runner)
    print(report.summary())
    print("\nper window:")
    for win in report.windows:
        print(f"  #{win.index} @{win.start:>5}  {win.cycles:>6} cycles  "
              f"{win.energy_uj:>5.2f} uJ  "
              f"label {'HIGH' if win.label > 0 else 'LOW'}  "
              f"launches {sum(win.engine_counts.values())}")

    saved = report.overlap_saved_cycles
    print(f"\nstaging overlap model: {saved} cycles a double-buffered "
          "staging area would hide "
          f"({report.pipelined_total_cycles} pipelined vs "
          f"{report.total_cycles} sequential)")

    # -- the same trace under four application variants ------------------
    sweep = ParameterSweep(
        cases=[
            SweepCase(name="paper", config="cpu_vwr2a"),
            SweepCase(name="short_fir", config="cpu_vwr2a",
                      params=AppParams(fir_taps=7)),
            SweepCase(name="loose_thresh", config="cpu_vwr2a",
                      params=AppParams(delineation_threshold=1800)),
            "cpu",
        ],
        runner=runner,  # reuse: encodings + compiled programs carry over
    )
    result = sweep.run(trace[:4 * WINDOW])
    print("\nparameter sweep (4 windows/case, one shared runner):")
    print(result.table())
    print(f"cheapest case: {result.best()}")

if __name__ == "__main__":
    main()
