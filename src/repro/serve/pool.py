"""Parallel multi-instance serving: one window stream, N platforms.

Every window of a :class:`~repro.serve.WindowStream` is independent once
the engine decision for its kernels is made at compile time, so a long
trace shards embarrassingly: a :class:`PoolScheduler` runs N worker
processes, each owning its **own** simulated platform (a fresh
:class:`~repro.kernels.KernelRunner` built worker-side from a picklable
:class:`~repro.kernels.runner.RunnerFactory`, with the store-once config
cache warming on the worker's first window — or eagerly via
:meth:`KernelRunner.warm`), and merges the per-window
:class:`~repro.serve.WindowResult` objects back into one order-stable
:class:`~repro.serve.StreamReport`.

**Determinism.** Per-window results are history-independent: a window
served on a cold platform is bit-identical (cycles, events, energy,
engine decisions, features, labels) to the same window served mid-stream
on a warm one — ``tests/test_serve.py`` proves it against the sequential
flow, ``tests/test_pool.py`` against this pool. Sharding therefore
changes *nothing* about the report except host-side wall time and the
``store_stats`` counters, which honestly total the cache work all
workers actually did (N cold stores instead of one). See
docs/parallel.md.

**Feeding.** A host-side feeder thread keeps a bounded queue of sliced
windows topped up, so window materialization (tuple slicing of
multi-hour traces) overlaps window execution in the workers.

**Checkpointing.** Passing a :class:`~repro.serve.StreamCheckpoint` (or
a path) to :meth:`PoolScheduler.run` persists completed windows as their
results arrive; a killed run resumes mid-stream — with any worker count,
or even under the single-process scheduler — and the final report is
bit-identical to an uninterrupted one.

**Supervision.** Workers are expendable: the host's
:class:`~repro.serve.ledger.WindowLedger` tracks every window it
dispatched, while the pool detects dead workers by liveness/exit-code
and hung ones by progress timeout and respawns them within
``respawn_limit``; spoiled windows climb the shared retry ladder before
they are quarantined into :attr:`StreamReport.failed_windows`.
Deterministic chaos campaigns over this machinery live in
:mod:`repro.faults`; the taxonomy and semantics are documented in
docs/robustness.md.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import signal as _signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass

from repro.core.errors import ConfigurationError, SimulationError
from repro.kernels.runner import RunnerFactory
from repro.obs.bus import get_bus
from repro.obs.instruments import record_pool_state, record_worker_retired
from repro.serve.ledger import MAX_RETRIES, check_retries
from repro.serve.report import StreamReport
from repro.serve.scheduler import AttemptServer, _resolve_job, _serve_session

#: Seconds between liveness checks while waiting on worker results.
_POLL_SECONDS = 0.1


def describe_exit(exitcode) -> str:
    """Diagnose a dead worker's exit code for humans.

    Signal deaths (:mod:`multiprocessing` reports them as negative exit
    codes; shells as ``128 + signum``) are named, with an explicit hint
    for SIGKILL — the one the OOM killer, a fault plan's ``worker_kill``
    and an external ``kill -9`` all share. A clean zero exit without a
    final report is called out too: it usually means the worker's result
    queue was torn down under it.
    """
    if exitcode is None:
        return "still running"
    if exitcode == 0:
        return (
            "exit code 0 — the worker exited cleanly without reporting "
            "(result queue torn down?)"
        )
    signum = None
    if exitcode < 0:
        signum = -exitcode
    elif exitcode > 128:
        signum = exitcode - 128
    if signum is not None:
        try:
            name = _signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        hint = ""
        if signum == getattr(_signal, "SIGKILL", 9):
            hint = (
                " — killed hard: the kernel OOM killer, a fault plan's "
                "worker_kill, or an external kill -9"
            )
        return f"died on {name}{hint}"
    return f"exited with code {exitcode}"


def _drain_queue(q) -> None:
    """Best-effort drain so queue feeder threads never block shutdown."""
    try:
        while True:
            q.get_nowait()
    except (queue.Empty, OSError, ValueError):
        pass


def _stop(proc) -> None:
    """Terminate, then kill, a worker process; reap it either way."""
    for end in (proc.terminate, proc.kill):
        if proc.is_alive():
            end()
            proc.join(timeout=2.0)


def _close_queue(q) -> None:
    """Drain and close a process queue without waiting on its pipe."""
    _drain_queue(q)
    q.close()
    q.cancel_join_thread()


class _Feeder:
    """Slices a stream's unaccounted windows into a bounded host queue.

    A host thread, so trace slicing overlaps window execution; the pool
    and the fleet both dispatch from it. A slicing failure (lazy traces
    can raise mid-stream) waits in :attr:`failure` for the host loop to
    raise, never swallowed into a hang.
    """

    def __init__(self, stream, skip, maxsize: int) -> None:
        #: ``PoolWorkerError`` arguments once slicing failed, else None.
        self.failure = None
        self._ready = queue.Queue(maxsize=maxsize)
        self._stop = threading.Event()
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._feed, args=(stream, skip), daemon=True
        )
        self._thread.start()

    def _feed(self, stream, skip) -> None:
        try:
            for window in stream:
                if skip(window.index):
                    continue
                while not self._stop.is_set():
                    try:
                        self._ready.put(window, timeout=_POLL_SECONDS)
                        break
                    except queue.Full:
                        pass
                else:
                    return
        except Exception:
            self.failure = (
                "feeder", None,
                "trace slicing failed mid-stream:\n"
                + traceback.format_exc(),
            )
        finally:
            self._done.set()

    def poll(self):
        """The next sliced window, or ``None`` when none is ready."""
        try:
            return self._ready.get_nowait()
        except queue.Empty:
            return None

    def exhausted(self) -> bool:
        """Every window was sliced and handed out."""
        return self._done.is_set() and self._ready.empty()

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)
        _drain_queue(self._ready)


def _default_start_method() -> str:
    """``"fork"`` on Linux (workers inherit warm structural memos),
    ``"spawn"`` everywhere else — the one policy for every process pool
    and fleet worker.

    Fork is deliberately not preferred on macOS even though it is
    available there: CPython switched its default to spawn (bpo-33725)
    because forked children can crash in system frameworks.
    """
    if sys.platform == "linux" \
            and "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


class PoolWorkerError(SimulationError):
    """A pool worker failed; carries the worker-side traceback.

    Round-trips :mod:`pickle` losslessly (``__reduce__`` rebuilds from
    the original constructor arguments, not the formatted message), so a
    remote failure shipped over the fleet transport
    (:mod:`repro.serve.net`) or across a process boundary re-raises with
    the same ``worker_id``/``window_index``/``details`` — and the same
    rendered message — as a local one.
    """

    def __init__(self, worker_id, window_index, details: str) -> None:
        who = (
            "pool feeder thread" if worker_id == "feeder"
            else f"pool worker {worker_id}"
        )
        where = (
            f" at window {window_index}" if window_index is not None
            else ""
        )
        super().__init__(
            f"{who} failed{where} "
            "(completed windows are checkpointed when a checkpoint is "
            f"configured):\n{details}"
        )
        self.worker_id = worker_id
        self.window_index = window_index
        self.details = details

    def __reduce__(self):
        return (
            type(self),
            (self.worker_id, self.window_index, self.details),
        )


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs to build its platform — all picklable."""

    config: str
    pipeline: object
    energy_model: object
    runner_factory: object
    warm_samples: tuple
    fault_plan: object = None


def _worker_main(worker_id: int, spec: _WorkerSpec, tasks, results,
                 stop) -> None:
    """Worker process body: own platform, one serving *attempt* per task.

    Each :class:`~repro.serve.ledger.Task` on this worker's private queue
    is served once by the shared
    :class:`~repro.serve.scheduler.AttemptServer` and reported as the
    verdict (``"ok"``/``"retry"``) or ``"err"`` (a genuine pipeline
    exception, which aborts the pool). The worker exits when the host
    sets ``stop``, reporting ``"fin"`` with its engine.
    """
    # Exception (not BaseException) throughout: KeyboardInterrupt /
    # SystemExit must kill the worker outright — the host's liveness
    # polling reports dead workers — rather than be wrapped as a
    # per-window error while the worker keeps draining its queue.
    try:
        def _flush_results() -> None:
            # About to die or hang on purpose: push every buffered
            # result fully onto the wire first, or SIGKILL can tear
            # a half-written message and wedge the host's reader.
            results.close()
            results.join_thread()

        server = AttemptServer.from_spec(
            spec, process_faults=True,
            before_process_fault=_flush_results,
        )
    except Exception:
        results.put(("crash", worker_id, traceback.format_exc()))
        return
    while not stop.is_set():
        try:
            task = tasks.get(timeout=_POLL_SECONDS)
        except queue.Empty:
            continue
        try:
            verdict = server.serve(task)
        except Exception:
            results.put((
                "err", worker_id, task.index, traceback.format_exc()
            ))
            continue
        results.put((verdict[0], worker_id, task.index, *verdict[1:]))
    results.put(("fin", worker_id, server.engine))


class PoolScheduler:
    """Shards a window stream across N worker-owned platform instances.

    The drop-in parallel sibling of :class:`~repro.serve.StreamScheduler`
    for CPU-bound serving: same report, ``workers``-way process
    parallelism. The pipeline must be picklable — the default MBioTracker
    :class:`~repro.app.mbiotracker.WindowPipeline` is; custom pipelines
    should be module-level classes, not closures. ``runner_factory``
    builds each worker's platform (engine choice lives there);
    ``warm=True`` has every worker pre-run the stream's first window once
    to take cold-cache costs off its first served window; ``prefetch``
    bounds the feeder queue (windows buffered per worker);
    ``start_method`` picks the :mod:`multiprocessing` context (default
    ``"fork"`` where available — workers then inherit the parent's warm
    structural compile/conflict memos — else ``"spawn"``).

    The resilience knobs turn the pool into a self-healing one — see
    docs/robustness.md: ``fault_plan`` (a :class:`~repro.faults.FaultPlan`)
    injects deterministic faults into worker attempts; ``respawn_limit``
    bounds how many dead/hung workers are replaced before the pool gives
    up; ``heartbeat_timeout`` (seconds) declares a worker hung when it
    holds in-flight windows without delivering anything for that long —
    required whenever the plan schedules ``worker_hang`` faults. All
    three default off, so a knob-free pool fails fast. Spoiled windows
    climb the shared retry ladder (``max_retries``,
    ``reference_fallback``); windows that exhaust it are quarantined into
    :attr:`StreamReport.failed_windows` instead of aborting the stream.
    """

    def __init__(self, config: str = "cpu_vwr2a", workers: int = 2,
                 params=None, pipeline=None, energy_model=None,
                 runner_factory=None,
                 warm: bool = False, prefetch: int = 4,
                 start_method: str = None, fault_plan=None,
                 max_retries: int = MAX_RETRIES,
                 reference_fallback: bool = True, respawn_limit: int = 0,
                 heartbeat_timeout: float = None) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"a pool needs at least one worker, got {workers}"
            )
        if prefetch < 1:
            raise ConfigurationError(
                f"prefetch must be at least 1 window, got {prefetch}"
            )
        check_retries(max_retries)
        if respawn_limit < 0:
            raise ConfigurationError(
                f"respawn_limit must be >= 0, got {respawn_limit}"
            )
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ConfigurationError(
                "heartbeat_timeout must be positive seconds (or None "
                f"to disable hang detection), got {heartbeat_timeout}"
            )
        if fault_plan is not None and heartbeat_timeout is None and any(
            spec.kind == "worker_hang" for spec in fault_plan.specs
        ):
            raise ConfigurationError(
                "the fault plan schedules worker_hang faults; pass "
                "heartbeat_timeout so the pool can detect and kill the "
                "hung workers (otherwise the stream never finishes)"
            )
        self.config, self.pipeline = _resolve_job(config, params, pipeline)
        self.workers = workers
        self.energy_model = energy_model
        self.runner_factory = (
            runner_factory if runner_factory is not None else RunnerFactory()
        )
        self.warm = warm
        self.prefetch = prefetch
        self.start_method = (
            start_method if start_method is not None
            else _default_start_method()
        )
        self.fault_plan = fault_plan
        self.max_retries = max_retries
        self.reference_fallback = reference_fallback
        self.respawn_limit = respawn_limit
        self.heartbeat_timeout = heartbeat_timeout
        self._probed_engine = None

    @property
    def engine(self) -> str:
        """Engine of the worker platforms (for reports/fingerprints).

        Factories following the :class:`~repro.kernels.runner.RunnerFactory`
        convention declare it through an ``engine`` attribute; when that
        is absent or ``None`` (platform default), the factory is probed
        once by building a throwaway runner — fingerprints and reports
        record what workers actually run, never a guessed constant.
        """
        engine = getattr(self.runner_factory, "engine", None)
        if engine is not None:
            return engine
        if self._probed_engine is None:
            if isinstance(self.runner_factory, RunnerFactory):
                # A stock factory with engine=None defers to the SoC
                # default: read the platform's own constant rather than
                # building a throwaway platform.
                from repro.soc.platform import DEFAULT_ENGINE

                self._probed_engine = DEFAULT_ENGINE
            else:
                self._probed_engine = \
                    self.runner_factory().soc.vwr2a.engine
        return self._probed_engine

    def run(self, stream, checkpoint=None) -> StreamReport:
        """Serve ``stream`` across the pool; returns the merged report.

        With ``checkpoint`` (a :class:`~repro.serve.StreamCheckpoint` or
        path), previously completed windows are skipped and progress is
        persisted as results arrive — including on worker failure, right
        before :class:`PoolWorkerError` is raised.
        """
        # A duplicate result is only legitimate once supervision may
        # requeue a window whose first result is still in flight.
        return _serve_session(self, stream, checkpoint, dedup=(
            self.fault_plan is not None or self.respawn_limit > 0
            or self.heartbeat_timeout is not None
        ))

    # -- the pool proper ----------------------------------------------------

    def _spec(self, stream) -> _WorkerSpec:
        warm_samples = None
        if self.warm and len(stream):
            warm_samples = stream[0].samples
        spec = _WorkerSpec(
            config=self.config,
            pipeline=self.pipeline,
            energy_model=self.energy_model,
            runner_factory=self.runner_factory,
            warm_samples=warm_samples,
            fault_plan=self.fault_plan,
        )
        try:
            pickle.dumps(spec)
        except Exception as exc:
            raise ConfigurationError(
                "pool workers receive the pipeline/energy model/runner "
                f"factory by value, and this one does not pickle: {exc} "
                "(use a module-level pipeline class instead of a closure)"
            ) from exc
        return spec

    def _serve_remaining(self, stream, ledger) -> str:
        """The supervised pool loop; returns the workers' engine.

        The ledger owns every window: what is in flight on which worker,
        what waits for a retry, what was accepted or quarantined. This
        loop owns the processes — spawn, liveness, hangs, respawn and
        teardown. Workers only ever serve one attempt per task, so any
        of them can die at any moment without a window being lost.
        """
        n_workers = max(
            1, min(self.workers, stream.n_windows - ledger.state.n_done)
        )
        context = multiprocessing.get_context(self.start_method)
        results = context.Queue()
        stop = context.Event()
        spec = self._spec(stream)

        procs = {}
        task_queues = {}
        last_progress = {}   # wid -> monotonic time of last message
        finished = set()     # wids that reported "fin"/"crash"
        engines = set()
        failure = None
        respawns = 0
        next_wid = 0

        def spawn() -> None:
            nonlocal next_wid
            wid = next_wid
            next_wid += 1
            tasks = context.Queue(maxsize=self.prefetch)
            proc = context.Process(
                target=_worker_main,
                args=(wid, spec, tasks, results, stop),
                daemon=True,
            )
            proc.start()
            procs[wid] = proc
            task_queues[wid] = tasks
            last_progress[wid] = time.monotonic()

        def live() -> list:
            return [
                wid for wid, proc in procs.items()
                if proc.is_alive() and wid not in finished
            ]

        def handle(message) -> None:
            nonlocal failure
            kind, wid = message[0], message[1]
            if wid in last_progress:
                last_progress[wid] = time.monotonic()
            if kind == "ok":
                ledger.accept(wid, *message[3:], label=wid)
            elif kind == "retry":
                ledger.fault(wid, message[2], message[3])
            elif kind == "err":
                failure = failure or (wid, message[2], message[3])
            elif kind == "crash":
                finished.add(wid)
                failure = failure or (wid, None, message[2])
            elif kind == "fin":
                finished.add(wid)
                engines.add(message[2])

        def reap(wid, fault_kind, details) -> None:
            """Retire one dead/hung worker: respawn it, return its windows.

            Only the head of its queue died with it and spends a rung.
            Past the respawn budget the pool aborts with the diagnosis.
            """
            nonlocal failure, respawns
            proc = procs.pop(wid)
            proc.join(timeout=5.0)  # reap the corpse — no zombies
            last_progress.pop(wid, None)
            bus = get_bus()
            if bus is not None:
                record_worker_retired(bus, wid)
            _close_queue(task_queues.pop(wid))
            if respawns >= self.respawn_limit:
                head = next(iter(ledger.in_flight.get(wid, ())), None)
                failure = failure or (
                    wid, head,
                    f"{details} (respawn budget {self.respawn_limit} "
                    "exhausted)",
                )
                return
            respawns += 1
            ledger.tally({"respawns": 1})
            spawn()
            ledger.lose(wid, 1, fault_kind, details)

        def scan_workers() -> None:
            now = time.monotonic()
            for wid in list(procs):
                proc = procs[wid]
                held = len(ledger.in_flight.get(wid, ()))
                if not proc.is_alive():
                    if wid in finished:
                        continue
                    ledger.tally({"worker_deaths": 1})
                    reap(
                        wid, "worker_death",
                        f"worker {wid} {describe_exit(proc.exitcode)}",
                    )
                elif (
                    self.heartbeat_timeout is not None and held
                    and now - last_progress[wid] > self.heartbeat_timeout
                ):
                    ledger.tally({"worker_hangs": 1})
                    _stop(proc)
                    reap(
                        wid, "worker_hang",
                        f"worker {wid} hung: no progress for "
                        f"{self.heartbeat_timeout}s with {held} "
                        "windows in flight",
                    )

        for _ in range(n_workers):
            spawn()
        feeder = _Feeder(stream, ledger.resolved, n_workers * self.prefetch)
        try:
            while failure is None and not ledger.state.complete:
                try:
                    handle(results.get(timeout=_POLL_SECONDS))
                    while True:
                        handle(results.get_nowait())
                except queue.Empty:
                    pass
                if failure is not None or feeder.failure:
                    break
                scan_workers()
                if failure is not None:
                    break
                for wid, task in ledger.schedule(
                    live, self.prefetch, feeder.poll
                ):
                    task_queues[wid].put(task)
                bus = get_bus()
                if bus is not None:
                    # One gauge refresh per supervision tick (~10 Hz):
                    # queue depths, live workers, stream progress.
                    record_pool_state(bus, {
                        wid: ledger.in_flight.get(wid, ()) for wid in procs
                    }, len(live()))
                    ledger.progress(bus)
                stalled = ledger.stalled(feeder.exhausted())
                if stalled:
                    failure = (-1, None, f"pool {stalled}")
            if failure is None:
                # Clean completion: release the workers and collect
                # their engine reports (workers that died along the way
                # simply never report one).
                stop.set()
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and live():
                    try:
                        handle(results.get(timeout=_POLL_SECONDS))
                    except queue.Empty:
                        continue
        finally:
            stop.set()
            feeder.close()
            for tq in task_queues.values():
                _drain_queue(tq)
            for proc in procs.values():
                proc.join(timeout=5.0)
            for proc in procs.values():
                _stop(proc)
            _drain_queue(results)
            for tq in task_queues.values():
                _close_queue(tq)
            results.close()
            results.cancel_join_thread()
        failure = failure or feeder.failure
        if failure is not None:
            raise PoolWorkerError(*failure)
        if len(engines) > 1:
            raise SimulationError(
                f"pool workers disagree on the engine: {sorted(engines)}"
            )
        return engines.pop() if engines else self.engine
