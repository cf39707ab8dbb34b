"""The batched window-stream scheduler.

One :class:`StreamScheduler` owns a :class:`~repro.kernels.KernelRunner`
and feeds it a :class:`~repro.serve.WindowStream`, amortizing every
per-launch cost the single-shot flow pays repeatedly:

* **store once** — the memoized planners hand every window the kernel
  objects stored before, which the configuration memory dedupes by
  identity, and whose launch records (compiled programs, SPM-conflict
  verdicts) the array reuses; the per-stream store delta is reported on
  :attr:`StreamReport.store_stats`;
* **one staging region** — the scheduler records the runner's staging
  region (:attr:`KernelRunner.sram_region`) when it is built; every
  window rewinds it, the stream leaves it as found, and serving never
  writes SRAM outside it (a caller's own buffers go below it, see
  :meth:`KernelRunner.reserve_sram`). Per-window results are
  bit-identical to a sequential ``run_application`` loop; the staging
  latency a double-buffered platform would hide is a model over the
  per-window staging ledgers
  (:attr:`StreamReport.overlap_saved_cycles`);
* **per-window deltas** — events, cycles, kernel launches (with their
  engine/fallback decisions off :class:`~repro.core.RunResult`) and
  optionally energy are captured per window into a
  :class:`~repro.serve.StreamReport`.
"""

from __future__ import annotations

from repro.app.mbiotracker import window_pipeline
from repro.kernels.runner import KernelRunner
from repro.obs.bus import get_bus
from repro.serve.checkpoint import stream_fingerprint
from repro.serve.ledger import MAX_RETRIES, WindowLedger, check_retries
from repro.serve.report import StreamReport, WindowResult, app_energy_uj


def _serve_session(scheduler, stream, checkpoint, **policy):
    """One serving session of any scheduler (sequential, pool, fleet).

    Opens the ledger, lets ``scheduler._serve_remaining`` serve whatever
    the checkpoint lacks and returns the finalized report. A
    fully-checkpointed resume serves nothing and reports the engine the
    checkpoint recorded.
    """
    ledger = WindowLedger.open(
        stream, checkpoint,
        lambda: stream_fingerprint(
            stream, scheduler.config, scheduler.engine,
            pipeline=scheduler.pipeline,
            energy_model=scheduler.energy_model,
        ),
        max_retries=scheduler.max_retries,
        reference_fallback=scheduler.reference_fallback, **policy,
    )
    if ledger.state.complete:
        engine = ledger.state.fingerprint.get("engine") or scheduler.engine
    else:
        with ledger:
            engine = scheduler._serve_remaining(stream, ledger)
    return ledger.finalize(
        scheduler.config, engine, stream, partial=ledger.stopped,
    )


def _resolve_job(config: str, params, pipeline):
    """The ``(config, pipeline)`` a scheduler serves.

    A pipeline that declares its configuration (window_pipeline does)
    wins over ``config``, so energy attribution and the report label
    follow what actually runs; without one, the MBioTracker pipeline is
    built from ``config``/``params``.
    """
    if pipeline is None:
        return config, window_pipeline(config, params)
    return getattr(pipeline, "config", config), pipeline


def _resolve_energy(setting, spec=None):
    """The :class:`~repro.energy.EnergyModel` an ``energy_model=`` setting
    names, or ``None`` for energy off.

    ``None`` and ``False`` both turn energy off; an instance is used
    verbatim; ``True`` is the calibrated model —
    :func:`~repro.energy.default_model`, or
    :func:`~repro.energy.model_for` on ``spec`` when one is given.
    """
    if setting is None or setting is False:
        return None
    if setting is not True:
        return setting
    from repro.energy import default_model, model_for

    return default_model() if spec is None else model_for(spec)


class StreamScheduler:
    """Runs a window stream through one runner with amortized staging.

    ``pipeline`` is any ``(runner, samples) -> result`` callable; when
    omitted it is built from ``config``/``params`` via
    :func:`repro.app.mbiotracker.window_pipeline` (the MBioTracker
    application). ``energy_model`` may be ``None`` or ``False`` (skip
    energy), ``True`` (use :func:`repro.energy.default_model`) or an
    :class:`~repro.energy.EnergyModel` instance; energy is only computed
    for results that carry application steps.

    Every window stages in the runner's staging region as it was when
    the scheduler was built (see the module docstring); SRAM outside it
    is never written.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) turns on the
    resilience layer of docs/robustness.md: faults are injected per
    serving attempt and each spoiled window climbs the retry ladder
    (``max_retries``, ``reference_fallback``) of the
    :class:`~repro.serve.ledger.WindowLedger` every transport shares;
    windows that exhaust it are quarantined into
    :attr:`StreamReport.failed_windows` instead of aborting the stream.
    Process faults (worker kill/hang) are counted but never executed
    here — only :class:`~repro.serve.PoolScheduler` workers are
    expendable.
    """

    def __init__(self, config: str = "cpu_vwr2a",
                 runner: KernelRunner = None, params=None,
                 pipeline=None, energy_model=None,
                 fault_plan=None, max_retries: int = MAX_RETRIES,
                 reference_fallback: bool = True) -> None:
        self.config, self.pipeline = _resolve_job(config, params, pipeline)
        self.runner = runner if runner is not None else KernelRunner()
        self._sram_region = self.runner.sram_region
        self.energy_model = _resolve_energy(energy_model)
        self.max_retries = check_retries(max_retries)
        self.reference_fallback = reference_fallback
        self.fault_plan = fault_plan
        self._injector = None
        if fault_plan is not None:
            from repro.faults.injector import FaultInjector

            self._injector = FaultInjector(fault_plan, process_faults=False)

    def run(self, stream, checkpoint=None) -> StreamReport:
        """Serve every window of ``stream``; returns the stream report.

        ``checkpoint`` (a :class:`~repro.serve.StreamCheckpoint` or a
        path) enables mid-stream resume for very long traces: completed
        windows recorded in the checkpoint are skipped, progress is
        flushed every ``checkpoint.every`` windows (and whenever serving
        fails), and the final report — per-window results are
        history-independent, so skipping served windows changes nothing
        — is bit-identical to an uninterrupted run (wall time and
        store-cache stats reflect the work each session actually did).
        """
        return _serve_session(self, stream, checkpoint)

    @property
    def engine(self) -> str:
        return self.runner.soc.vwr2a.engine

    def _serve_remaining(self, stream, ledger, label=None) -> str:
        """Serve, in order, every window of ``stream`` the ledger lacks.

        The loop behind :meth:`run`, and the fleet's last degradation
        rung over the fleet's own ledger (``label`` names this loop on
        the bus). A spoiled attempt's retry outranks the next fresh
        window, so each window's ladder ends before the stream moves on.
        Returns the engine that served.
        """
        runner = self.runner
        # The attempts log into a session list (cleared per attempt); a
        # caller's own launch log (a nested stream) gets each accepted
        # window's launches.
        outer = runner.launch_log
        runner.launch_log = []
        attempts = AttemptServer(self, self._injector)
        windows = iter(stream)
        try:
            for _, task in ledger.schedule(
                lambda: (label,), 1, lambda: next(windows, None)
            ):
                verdict = attempts.serve(task)
                if verdict[0] == "ok":
                    ledger.accept(label, *verdict[1:], label=label)
                    if outer is not None:
                        outer.extend(verdict[1].launches)
                else:
                    ledger.fault(label, task.index, verdict[1])
                # Metrics are host-side bookkeeping over the window's
                # results — off by default, and never feeding back into
                # simulated state (see repro.obs.instruments).
                bus = get_bus()
                if bus is not None:
                    ledger.progress(bus)
        finally:
            runner.launch_log = outer
            runner.set_sram_region(*self._sram_region)
        return self.engine

    # -- one window ---------------------------------------------------------

    def serve_window(self, window, log) -> WindowResult:
        """Serve one :class:`~repro.serve.Window` on this scheduler's runner.

        The pool workers' unit of work: rewinds the staging region, runs
        the pipeline, and captures the per-window cycle/event/staging/
        energy deltas. ``log`` must be the runner's active launch log.
        """
        runner = self.runner
        soc = runner.soc
        runner.set_sram_region(*self._sram_region)
        events_before = soc.events.snapshot()
        cpu_before = soc.cpu.active_cycles + soc.cpu.sleep_cycles
        staging_before = dict(runner.staging_cycles)
        log_start = len(log)

        app = self.pipeline(runner, window.samples)

        cycles = (
            soc.cpu.active_cycles + soc.cpu.sleep_cycles - cpu_before
        )
        energy_uj = None
        kernel_energy = None
        if self.energy_model is not None:
            if getattr(app, "steps", None) is not None:
                energy_uj = app_energy_uj(
                    self.energy_model, self.config, app
                )
            # Per-kernel attribution: fold each launch's own event delta
            # (the same record on every engine) to pJ.
            kernel_energy = {}
            for result in log[log_start:]:
                folded = self.energy_model.fold_histogram(
                    ((result.events, 1),)
                ).total_pj
                kernel_energy[result.name] = \
                    kernel_energy.get(result.name, 0.0) + folded
        return WindowResult(
            index=window.index,
            start=window.start,
            app=app,
            cycles=cycles,
            events=soc.events.diff(events_before),
            launches=tuple(log[log_start:]),
            staging_in_cycles=(
                runner.staging_cycles["in"] - staging_before["in"]
            ),
            staging_out_cycles=(
                runner.staging_cycles["out"] - staging_before["out"]
            ),
            energy_uj=energy_uj,
            kernel_energy_pj=kernel_energy,
        )


class AttemptServer:
    """Serving core of one platform: one *attempt* per task.

    Shared by the sequential scheduler, pool worker processes and remote
    fleet workers. It serves one
    :class:`~repro.serve.ledger.Task` at a time on ``scheduler``'s
    platform, or on a reference-engine twin built on first use, under
    the fault ``injector`` when there is one, and returns the verdict
    every transport speaks: ``("ok", result, stats_delta, reference)``
    or ``("retry", kinds)`` when an injected fault spoiled the attempt.
    The retry ladder belongs to the caller's
    :class:`~repro.serve.ledger.WindowLedger`.
    """

    def __init__(self, scheduler: StreamScheduler, injector=None) -> None:
        self._scheduler = scheduler
        self._injector = injector
        self._ref = None  # the reference twin, built on first use
        self.engine = scheduler.engine

    @classmethod
    def from_spec(cls, spec, process_faults: bool = True,
                  before_process_fault=None) -> "AttemptServer":
        """Build a worker's platform from a picklable worker spec.

        ``process_faults`` arms the suicidal fault kinds (``worker_kill``
        / ``worker_hang``) — off for in-process workers, whose death
        would kill the host. ``before_process_fault`` runs right before
        one strikes (pool workers flush their result queue there).
        """
        runner = spec.runner_factory()
        runner.launch_log = []
        scheduler = StreamScheduler(
            config=spec.config,
            runner=runner,
            pipeline=spec.pipeline,
            energy_model=spec.energy_model,
        )
        if spec.warm_samples is not None:
            runner.warm(scheduler.pipeline, spec.warm_samples)
        injector = None
        if spec.fault_plan is not None:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(
                spec.fault_plan, process_faults=process_faults
            )
            injector.before_process_fault = before_process_fault
        return cls(scheduler, injector)

    def _platform(self, reference: bool) -> StreamScheduler:
        if not reference:
            return self._scheduler
        if self._ref is None:
            # Same design point and job, golden engine, private launch
            # log: the replay must simulate the machine the primary
            # failed on without interleaving with its launch history.
            primary = self._scheduler
            runner = KernelRunner(engine="reference", spec=primary.runner.spec)
            runner.launch_log = []
            self._ref = StreamScheduler(
                config=primary.config,
                runner=runner,
                pipeline=primary.pipeline,
                energy_model=primary.energy_model,
            )
        return self._ref

    def serve(self, task):
        """Serve one attempt; returns an ``"ok"`` or ``"retry"`` verdict.

        A spoiled attempt (fired faults, or a fault-classified exception
        such as :class:`~repro.core.errors.BrownoutError`) returns after
        the injector healed the platform. A genuine (non-fault) failure
        raises.
        """
        platform = self._platform(task.reference)
        runner = platform.runner
        log = runner.launch_log
        stats = runner.soc.vwr2a.config_mem.stats
        # The result carries the window's launches; drop the previous
        # attempt's entries so the log does not grow for the platform's
        # whole lifetime (multi-hour streams).
        del log[:]
        before = stats.snapshot()
        window = task.window
        injector = self._injector
        if injector is not None:
            # worker_kill / worker_hang faults strike in here and never
            # return — host/server supervision takes over.
            window = injector.begin_attempt(
                runner, window, task.attempt,
                engine="reference" if task.reference else self.engine,
            )
        try:
            result = platform.serve_window(window, log)
            exc = None
        except Exception as err:
            result = None
            exc = err
        fired = injector.end_attempt() if injector is not None else ()
        if exc is None and not fired:
            return ("ok", result, stats.since(before), task.reference)
        if exc is not None:
            if injector is None:
                raise exc
            from repro.faults.injector import is_fault_failure

            if not is_fault_failure(exc, fired):
                raise exc
        return ("retry", tuple(fired) or (type(exc).__name__,))
