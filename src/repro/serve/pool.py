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
dispatched; one supervision round (:func:`_supervise`) drives it for
the pool and for the fleet (:mod:`repro.serve.net`), each over its own
transport. The pool's detects dead workers by exit code and hung ones
by progress timeout and respawns them within ``respawn_limit``; spoiled
windows climb the shared retry ladder before they are quarantined into
:attr:`StreamReport.failed_windows`.
Deterministic chaos campaigns over this machinery live in
:mod:`repro.faults`; the taxonomy and semantics are documented in
docs/robustness.md.
"""

from __future__ import annotations

import itertools
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

#: One supervision tick: how long a round waits for messages (and a
#: worker or feeder thread blocks before re-checking its stop flag).
_TICK_SECONDS = 0.05


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
                        self._ready.put(window, timeout=_TICK_SECONDS)
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


class _Transport:
    """The workers one supervision round drives (see :func:`_supervise`).

    Implements ``poll()`` (wait up to one tick, book what arrived),
    ``owners()`` (who may take a task), ``scan()`` (retire lost owners),
    ``send(owner, task)``, ``publish(bus)``, ``release()`` (the session
    is complete) and ``close()``. A ``failure`` (:class:`PoolWorkerError`
    arguments) ends the round, as does a ``handoff``: a loop that serves
    the rest of the session instead.
    """

    #: Names the transport in its stall and engine errors.
    kind = "pool"

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        self.failure = None
        self.handoff = None
        self.engines = set()   # what the workers report serving on

    def label(self, owner):
        """The name ``owner`` goes by in errors and on the bus."""
        return owner

    def fail(self, worker, index, details: str) -> None:
        self.failure = self.failure or (worker, index, details)

    def verdict(self, owner, kind: str, index, *body):
        """Book an ``ok`` (``body``: result, stats delta, reference),
        ``retry`` (fault kinds) or ``err`` (traceback) verdict; returns
        the ledger's answer."""
        if kind == "ok":
            return self.ledger.accept(owner, *body, label=self.label(owner))
        if kind == "retry":
            return self.ledger.fault(owner, index, *body)
        return self.fail(self.label(owner), index, *body)

    def retried(self, verdict, reason: str) -> None:
        """A lost owner or a deadline cost a task a rung."""


def _supervise(transport, ledger, stream, ahead: int, capacity: int,
               timeout: float = None):
    """Serve ``stream`` over ``transport``: the one supervision round.

    A feeder slices up to ``ahead`` windows. Each tick books what
    arrived, retires lost owners, spoils tasks past their ``timeout``,
    hands out tasks (``capacity`` per owner), publishes gauges and
    checks for a stall. Returns the workers' engine, or ``None``.
    """
    def over() -> bool:
        return transport.failure is not None \
            or transport.handoff is not None or feeder.failure is not None

    try:
        feeder = _Feeder(stream, ledger.resolved, ahead)
        try:
            while not (over() or ledger.state.complete or ledger.stopped):
                transport.poll()
                if over():
                    break
                transport.scan()
                for owner, index in ledger.expired():
                    verdict = ledger.spoil(
                        owner, index, ("net_deadline",),
                        f"window {index} blew its {timeout}s deadline on "
                        f"worker {transport.label(owner)!r}",
                    )
                    if verdict is not None:
                        ledger.tally({"net_deadline_misses": 1})
                        transport.retried(verdict, "deadline")
                if over():
                    break
                for owner, task in ledger.schedule(
                    transport.owners, capacity, feeder.poll, timeout
                ):
                    transport.send(owner, task)
                bus = get_bus()
                if bus is not None:
                    transport.publish(bus)
                    ledger.progress(bus)
                stalled = ledger.stalled(feeder.exhausted())
                if stalled:
                    kind = transport.kind
                    transport.fail(kind, None, f"{kind} {stalled}")
            if not over() and ledger.state.complete:
                transport.release()
        finally:
            feeder.close()
    finally:
        transport.close()
    failure = transport.failure or feeder.failure
    if failure is not None:
        raise PoolWorkerError(*failure)
    if len(transport.engines) > 1:
        raise SimulationError(
            f"{transport.kind} workers disagree on the engine: "
            f"{sorted(transport.engines)}"
        )
    return next(iter(transport.engines), None)


def _supervised(fault_plan, respawn_limit: int, *timeouts) -> bool:
    """The ledger's ``dedup``: whether supervision may requeue a window
    whose first result is still in flight."""
    return fault_plan is not None or respawn_limit > 0 \
        or any(timeout is not None for timeout in timeouts)


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
            task = tasks.get(timeout=_TICK_SECONDS)
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
        return _serve_session(self, stream, checkpoint, dedup=_supervised(
            self.fault_plan, self.respawn_limit, self.heartbeat_timeout
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
        """Serve every unaccounted window; returns the workers' engine.

        The ledger owns the windows, :class:`_PoolTransport` the
        processes, and the supervision round drives both.
        """
        n_workers = max(
            1, min(self.workers, stream.n_windows - ledger.state.n_done)
        )
        transport = _PoolTransport(self, ledger, self._spec(stream),
                                   n_workers)
        return _supervise(
            transport, ledger, stream, n_workers * self.prefetch,
            self.prefetch,
        ) or self.engine


class _PoolTransport(_Transport):
    """Worker processes (owners: worker ids), a task queue each, one
    result queue. A worker is lost when it exits, or holds windows and
    sends nothing for ``heartbeat_timeout``."""

    def __init__(self, pool, ledger, spec, n_workers: int) -> None:
        super().__init__(ledger)
        self.pool = pool
        self.spec = spec
        self.context = multiprocessing.get_context(pool.start_method)
        self.results = self.context.Queue()
        self.stop = self.context.Event()
        self.procs = {}
        self.task_queues = {}
        self.last_progress = {}   # wid -> monotonic time of last message
        self.finished = set()     # wids that reported "fin"/"crash"
        self.respawns = 0
        self.wids = itertools.count()
        for _ in range(n_workers):
            self.spawn()

    def spawn(self) -> None:
        wid = next(self.wids)
        tasks = self.context.Queue(maxsize=self.pool.prefetch)
        proc = self.context.Process(
            target=_worker_main, daemon=True,
            args=(wid, self.spec, tasks, self.results, self.stop),
        )
        proc.start()
        self.procs[wid], self.task_queues[wid] = proc, tasks
        self.last_progress[wid] = time.monotonic()

    def owners(self) -> list:
        return [
            wid for wid, proc in self.procs.items()
            if proc.is_alive() and wid not in self.finished
        ]

    def poll(self) -> None:
        try:
            message = self.results.get(timeout=_TICK_SECONDS)
            while True:
                kind, wid = message[0], message[1]
                if wid in self.last_progress:
                    self.last_progress[wid] = time.monotonic()
                if kind in ("crash", "fin"):
                    self.finished.add(wid)
                if kind == "crash":
                    self.fail(wid, None, message[2])
                elif kind == "fin":
                    self.engines.add(message[2])
                else:
                    self.verdict(wid, kind, *message[2:])
                message = self.results.get_nowait()
        except queue.Empty:
            pass

    def send(self, wid, task) -> None:
        self.task_queues[wid].put(task)

    def scan(self) -> None:
        now = time.monotonic()
        timeout = self.pool.heartbeat_timeout
        for wid, proc in list(self.procs.items()):
            held = len(self.ledger.in_flight.get(wid, ()))
            if wid in self.finished:
                continue
            if not proc.is_alive():
                self.ledger.tally({"worker_deaths": 1})
                self.retire(
                    wid, "worker_death",
                    f"worker {wid} {describe_exit(proc.exitcode)}",
                )
            elif timeout is not None and held \
                    and now - self.last_progress[wid] > timeout:
                self.ledger.tally({"worker_hangs": 1})
                _stop(proc)
                self.retire(
                    wid, "worker_hang",
                    f"worker {wid} hung: no progress for {timeout}s "
                    f"with {held} windows in flight",
                )

    def retire(self, wid, fault_kind: str, details: str) -> None:
        """Reap one dead/hung worker, respawn it, return its windows.

        Only the head of its queue died with it and spends a rung.
        Past the respawn budget the pool aborts with the diagnosis.
        """
        self.procs.pop(wid).join(timeout=5.0)  # no zombies
        self.last_progress.pop(wid, None)
        bus = get_bus()
        if bus is not None:
            record_worker_retired(bus, wid)
        _close_queue(self.task_queues.pop(wid))
        limit = self.pool.respawn_limit
        if self.respawns >= limit:
            head = next(iter(self.ledger.in_flight.get(wid, ())), None)
            self.fail(
                wid, head, f"{details} (respawn budget {limit} exhausted)"
            )
            return
        self.respawns += 1
        self.ledger.tally({"respawns": 1})
        self.spawn()
        self.ledger.lose(wid, 1, fault_kind, details)

    def publish(self, bus) -> None:
        record_pool_state(bus, {
            wid: self.ledger.in_flight.get(wid, ()) for wid in self.procs
        }, len(self.owners()))

    def release(self) -> None:
        # Collect the engine reports; workers that died along the way
        # simply never send one.
        self.stop.set()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and self.owners():
            self.poll()

    def close(self) -> None:
        self.stop.set()
        for tq in self.task_queues.values():
            _drain_queue(tq)
        for proc in self.procs.values():
            proc.join(timeout=5.0)
            _stop(proc)
        _drain_queue(self.results)
        for tq in self.task_queues.values():
            _close_queue(tq)
        self.results.close()
        self.results.cancel_join_thread()
