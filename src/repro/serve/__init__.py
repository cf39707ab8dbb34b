"""Batched window-stream serving on top of the fast simulator.

The serving layer turns the single-window ``run_application`` flow into a
throughput-oriented pipeline for long biosignal traces and parameter
sweeps (docs/serving.md):

* :class:`WindowStream` — lazy, re-iterable slicing of a long trace into
  fixed-size (optionally overlapping, optionally zero-padded) windows;
* :class:`StreamScheduler` — feeds a stream through one
  :class:`~repro.kernels.KernelRunner`, amortizing kernel stores
  (build-once planners, identity-keyed store), rewinding the runner's
  own SRAM staging region before every window, and capturing per-window
  cycle/event/energy deltas and engine decisions;
* :class:`StreamReport` / :class:`WindowResult` — per-window and
  aggregate results, including the engine/fallback mix and the
  staging-overlap pipelining estimate;
* :class:`ParameterSweep` / :class:`SweepCase` / :class:`SweepReport` —
  the same trace replayed under N application variants on one shared
  runner per design point;
* :class:`PoolScheduler` — the same stream sharded across N worker
  processes, each owning its own simulated platform, merged back into
  an order-stable, bit-identical :class:`StreamReport`
  (docs/parallel.md);
* :class:`StreamCheckpoint` — periodic persistence of completed windows
  so very long traces resume mid-stream with identical final reports;
* :func:`serve_trace` — the one-call entry point (``workers=N`` opts
  into the pool, ``checkpoint=`` into resumable serving).

Per-window results are bit-identical to a sequential
``run_application`` loop (``tests/test_serve.py`` proves it, including a
mid-stream reference-engine fallback; ``tests/test_pool.py`` extends the
proof to the process pool and kill-and-resume runs).
"""

from repro.core.errors import ConfigurationError
from repro.serve.checkpoint import CheckpointState, StreamCheckpoint
from repro.serve.pool import PoolScheduler, PoolWorkerError, describe_exit
from repro.serve.report import (
    FailedWindow,
    StreamReport,
    WindowResult,
    app_energy_uj,
    merge_counts,
    step_energy_uj,
)
from repro.serve.scheduler import StreamScheduler
from repro.serve.stream import Window, WindowStream
from repro.serve.sweep import ParameterSweep, SweepCase, SweepReport


def serve_trace(trace, config: str = "cpu_vwr2a", window: int = None,
                hop: int = None, tail: str = "drop", runner=None,
                params=None, energy_model=True, workers: int = None,
                checkpoint=None) -> StreamReport:
    """Serve a long trace in one call: slice, schedule, report.

    Equivalent to ``StreamScheduler(...).run(WindowStream(...))`` with
    the application's 512-sample window as the default size. Energy is
    modeled by default (pass ``energy_model=None`` to skip it).
    ``workers=N`` (N > 1) serves the same stream through a
    :class:`PoolScheduler` instead — N platform instances in worker
    processes, bit-identical report; ``checkpoint`` (a
    :class:`StreamCheckpoint` or path) makes the run resumable
    mid-stream. See docs/parallel.md for worker-count guidance.
    """
    if window is None:
        from repro.app.mbiotracker import WINDOW

        window = WINDOW
    if workers is not None and workers < 1:
        raise ConfigurationError(
            f"serving needs at least one worker, got {workers}"
        )
    stream = WindowStream(trace, window=window, hop=hop, tail=tail)
    if workers is not None and workers > 1:
        if runner is not None:
            raise ConfigurationError(
                "pooled serving builds one runner per worker; a shared "
                "runner and workers>1 are mutually exclusive"
            )
        return PoolScheduler(
            config=config, workers=workers, params=params,
            energy_model=energy_model,
        ).run(stream, checkpoint=checkpoint)
    scheduler = StreamScheduler(
        config=config, runner=runner, params=params,
        energy_model=energy_model,
    )
    return scheduler.run(stream, checkpoint=checkpoint)


__all__ = [
    "CheckpointState",
    "FailedWindow",
    "ParameterSweep",
    "PoolScheduler",
    "PoolWorkerError",
    "StreamCheckpoint",
    "StreamReport",
    "StreamScheduler",
    "SweepCase",
    "SweepReport",
    "Window",
    "WindowResult",
    "WindowStream",
    "app_energy_uj",
    "describe_exit",
    "merge_counts",
    "serve_trace",
    "step_energy_uj",
]
