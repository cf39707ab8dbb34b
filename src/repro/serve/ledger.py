"""One session's window bookkeeping, shared by every serving transport.

:class:`WindowLedger` is the resilience core behind
:class:`~repro.serve.StreamScheduler`, :class:`~repro.serve.PoolScheduler`
and :class:`~repro.serve.net.FleetServer`. It is a pure state machine:
no threads, processes or sockets, and time only from the clock it is
given. A transport reports what happened — a task went out, an attempt
came back clean or spoiled, an owner (a worker process, a connection,
the local loop) was lost — and keeps only its own job: serving
in-process, supervising processes, or moving frames.

The ledger owns resume and finalize of the session's
:class:`~repro.serve.CheckpointState`; the in-flight tasks of every
owner and the requeue queue (whose entries may wait for a not-before
time); the retry ladder of docs/robustness.md; late-result dedup and
quarantine rescue; the stall check; and every write to
``state.results``, ``state.failed`` and ``state.resilience``, with the
matching metrics-bus records. It never asks which transport calls it: a
lost owner is described by how many of its tasks the loss spoiled.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from repro.core.errors import ConfigurationError, SimulationError
from repro.obs.bus import get_bus
from repro.obs.instruments import (
    record_failed,
    record_progress,
    record_resilience,
    record_window,
)
from repro.serve.checkpoint import CheckpointState, StreamCheckpoint
from repro.serve.report import FailedWindow, StreamReport, merge_counts
from repro.serve.stream import Window

#: Primary retries a spoiled window gets before its reference attempt —
#: the one default of sequential, pooled and fleet serving.
MAX_RETRIES = 2


def check_retries(max_retries: int) -> int:
    """Validate a retry budget (shared by every scheduler's constructor)."""
    if max_retries < 0:
        raise ConfigurationError(
            f"max_retries must be >= 0, got {max_retries}"
        )
    return max_retries


class Task(NamedTuple):
    """One serving attempt of one window: what every transport dispatches."""

    window: Window
    #: ``0 .. max_retries`` on the primary engine, then the reference one.
    attempt: int = 0
    #: Serve on the reference-engine twin platform.
    reference: bool = False

    @property
    def index(self) -> int:
        return self.window.index


class WindowLedger:
    """Dispatch, verdicts and accounting of one serving session.

    ``max_retries`` and ``reference_fallback`` shape the ladder.
    ``dedup`` makes a second result for an accepted window expected
    (supervision may requeue a window whose first result is still on
    its way) instead of a sharding bug. ``backoff(attempt)`` is the
    seconds a retry waits (``None``: due at once; a transport may drop
    it mid-session, releasing every waiting retry). ``stop_after`` caps
    accepted plus in-flight windows. ``clock`` is the only time source.
    As a context manager the ledger flushes the checkpoint when the
    block raises, so completed windows survive any failure.
    """

    def __init__(self, state: CheckpointState, checkpoint=None, *,
                 max_retries: int = MAX_RETRIES,
                 reference_fallback: bool = True, dedup: bool = False,
                 backoff=None, stop_after: int = None,
                 clock=time.perf_counter) -> None:
        self.state = state
        self.checkpoint = checkpoint
        self.max_retries = check_retries(max_retries)
        self.reference_fallback = reference_fallback
        self.dedup = dedup
        self.stop_after = stop_after
        self.backoff = backoff
        self._clock = clock
        #: owner -> {window index: (Task, deadline or None)}, in
        #: dispatch order, so the first entry is the one being served.
        self.in_flight = {}
        self._requeue = []   # [not_before, Task]; outranks fresh windows
        self._kinds = {}     # window index -> fault kinds seen so far
        self.accepted = 0    # results accepted this session
        self._served = False  # whether this session accounted a window
        self._wall_base = state.wall_seconds
        self._wall_start = clock()

    @classmethod
    def open(cls, stream, checkpoint=None, fingerprint=None, **policy):
        """Resume, or start, the session that serves ``stream``.

        With a checkpoint (a :class:`~repro.serve.StreamCheckpoint` or a
        path) ``fingerprint()`` pins the job and the saved state is
        resumed; without one the O(trace) fingerprint is never computed.
        The serving clock starts after the resume: wall time accounts
        serving, not hashing. Windows the previous session quarantined
        are released for re-attempt: the faults that exhausted their
        retries (a hostile fault plan, a dying host) need not hold in
        this session, and a resume is the natural amnesty point. Their
        failure pedigree stays in the resilience counters.
        """
        if checkpoint is not None:
            if not isinstance(checkpoint, StreamCheckpoint):
                checkpoint = StreamCheckpoint(checkpoint)
            state = checkpoint.resume(fingerprint())
            if state.failed:
                merge_counts(state.resilience,
                             {"requarantine_released": len(state.failed)})
                state.failed.clear()
        else:
            state = CheckpointState(
                fingerprint={"n_windows": getattr(stream, "n_windows", 0)}
            )
        return cls(state, checkpoint, **policy)

    # -- queries -------------------------------------------------------------

    def resolved(self, index: int) -> bool:
        """Whether window ``index`` is served or quarantined."""
        return index in self.state.results or index in self.state.failed

    @property
    def n_in_flight(self) -> int:
        return sum(map(len, self.in_flight.values()))

    @property
    def stopped(self) -> bool:
        """``stop_after`` windows were accepted: the session is over."""
        return self.stop_after is not None \
            and self.accepted >= self.stop_after

    def wall(self) -> float:
        """Serving wall time over every session so far."""
        return self._wall_base + self._clock() - self._wall_start

    def stalled(self, exhausted: bool):
        """Why the session can make no more progress, or ``None``.

        With fresh windows ``exhausted`` and nothing queued or in
        flight, an uncovered stream means the books lost a window.
        """
        state = self.state
        if exhausted and not self._requeue and not self.n_in_flight \
                and not state.complete:
            return (
                f"stalled with {state.n_done + state.n_failed}/"
                f"{state.n_windows} windows accounted — sharding bug"
            )
        return None

    # -- dispatch ------------------------------------------------------------

    def schedule(self, owners, capacity: int, fresh, timeout: float = None):
        """Hand out tasks; yields ``(owner, task)`` until none can go.

        ``owners()`` — re-read before every hand-out, so the loop body
        may retire one — lists who may take work; the least loaded owner
        below ``capacity`` gets the next task. Requeued retries outrank
        the windows ``fresh()`` supplies (``None``: none ready).
        ``timeout`` stamps a deadline for :meth:`expired`.
        """
        while True:
            room = [
                owner for owner in owners()
                if len(self.in_flight.get(owner, ())) < capacity
            ]
            if not room:
                return
            task = self._next_task(fresh)
            if task is None:
                return
            owner = min(room, key=lambda o: len(self.in_flight.get(o, ())))
            deadline = None if timeout is None else self._clock() + timeout
            self.in_flight.setdefault(owner, {})[task.index] = (
                task, deadline,
            )
            yield owner, task

    def _next_task(self, fresh):
        if self.stop_after is not None \
                and self.accepted + self.n_in_flight >= self.stop_after:
            return None
        self._requeue = [
            entry for entry in self._requeue
            if not self.resolved(entry[1].index)
        ]
        now = self._clock() if self.backoff is not None else math.inf
        for position, (not_before, task) in enumerate(self._requeue):
            if not_before <= now:
                del self._requeue[position]
                return task
        while True:
            window = fresh()
            if window is None:
                return None
            if not self.resolved(window.index):
                return Task(window)

    def expired(self) -> list:
        """``(owner, index)`` of every in-flight task past its deadline."""
        now = self._clock()
        return [
            (owner, index)
            for owner, entries in self.in_flight.items()
            for index, (_, deadline) in entries.items()
            if deadline is not None and deadline < now
        ]

    # -- verdicts ------------------------------------------------------------

    def accept(self, owner, result, stats_delta=None,
               reference: bool = False, label=None) -> bool:
        """Merge one clean result; returns ``False`` for a late duplicate.

        ``reference`` marks a result served on the reference-engine twin
        (a ladder recovery); ``label`` names the worker on the bus.
        """
        index = result.index
        self.in_flight.get(owner, {}).pop(index, None)
        state = self.state
        if index in state.results:
            if not self.dedup:
                raise SimulationError(
                    f"window {index} was served twice — sharding bug"
                )
            return self._late()
        if index in state.failed:
            # Quarantined, then a clean result arrived after all: the
            # window is rescued back into the report.
            del state.failed[index]
            self.tally({"quarantine_rescues": 1})
        self._kinds.pop(index, None)
        state.results[index] = result
        if stats_delta:
            merge_counts(state.store_stats, stats_delta)
        self.accepted += 1
        self._served = True
        bus = get_bus()
        if bus is not None:
            # One record per accepted result, so bus totals equal the
            # merged report's counts exactly.
            record_window(bus, result, stats_delta, worker=label)
        if reference:
            self.tally({"reference_recoveries": 1})
        self._mark()
        return True

    def fault(self, owner, index: int, kinds):
        """An injected fault spoiled one attempt (a ``retry`` verdict).

        Returns the ladder verdict; a stale verdict (``None``) counts as
        a late result.
        """
        self.tally({f"fault:{kind}": 1 for kind in kinds})
        verdict = self.spoil(
            owner, index, kinds,
            f"faults fired on every attempt (last: {', '.join(kinds)})",
        )
        if verdict is None:
            self._late()
        return verdict

    def spoil(self, owner, index: int, kinds, why: str):
        """One in-flight attempt of ``owner`` failed: climb the ladder.

        Returns ``"retry"``, ``"quarantine"``, or ``None`` when the task
        was not in flight with ``owner`` or its window is accounted.
        """
        entry = self.in_flight.get(owner, {}).pop(index, None)
        if entry is None:
            return None
        return self._climb(entry[0], kinds, why)

    def lose(self, owner, spoiled, kind: str, why: str) -> list:
        """``owner`` is gone; returns the ladder verdicts it caused.

        Its first ``spoiled`` tasks (all when ``None``) spend a rung as
        fault ``kind``; the rest go back at their current attempt.
        """
        entries = [task for task, _ in self.in_flight.pop(owner, {}).values()]
        if spoiled is None:
            spoiled = len(entries)
        verdicts = [
            self._climb(task, (kind,), why) for task in entries[:spoiled]
        ]
        self._requeue.extend([0.0, task] for task in entries[spoiled:])
        return verdicts

    def _climb(self, task: Task, kinds, why: str):
        index = task.index
        if self.resolved(index):
            return None
        self._kinds.setdefault(index, []).extend(kinds)
        if task.attempt < self.max_retries \
                or (self.reference_fallback and not task.reference):
            self.tally({"retries": 1})
            not_before = (
                self._clock() + self.backoff(task.attempt)
                if self.backoff is not None else 0.0
            )
            self._requeue.append([not_before, Task(
                task.window, task.attempt + 1,
                task.attempt >= self.max_retries,
            )])
            return "retry"
        self.state.failed[index] = FailedWindow(
            index=index, start=task.window.start,
            attempts=task.attempt + 1,
            kinds=tuple(dict.fromkeys(self._kinds.pop(index))),
            detail=why,
        )
        self._served = True
        self.tally({"quarantined": 1})
        bus = get_bus()
        if bus is not None:
            record_failed(bus)
        self._mark()
        return "quarantine"

    # -- accounting ----------------------------------------------------------

    def _late(self) -> bool:
        """Count a stale verdict or a duplicate result, then drop it."""
        self.tally({"late_results": 1})
        return False

    def tally(self, counts: dict) -> None:
        """Count resilience events, in the report and on the bus."""
        merge_counts(self.state.resilience, counts)
        bus = get_bus()
        if bus is not None:
            record_resilience(bus, counts)

    def progress(self, bus) -> None:
        """Publish the stream-progress gauges."""
        state = self.state
        record_progress(
            bus, state.n_done + state.n_failed, state.n_windows,
            self.wall(),
        )

    def _mark(self) -> None:
        if self.checkpoint is not None:
            self.state.wall_seconds = self.wall()
            self.checkpoint.mark(self.state)

    def __enter__(self) -> "WindowLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self.checkpoint is not None:
            # Completed windows survive whatever the save cadence.
            self.state.wall_seconds = self.wall()
            self.checkpoint.save(self.state)
        return False

    def finalize(self, config: str, engine: str, stream,
                 partial: bool = False):
        """The session's :class:`~repro.serve.StreamReport`.

        Merges the state's windows in index order and adopts its store
        stats and wall clock, saving the completed state when a
        checkpoint is configured. A session that accounted no window
        (replaying a complete checkpoint) keeps its historical wall time
        and leaves the file alone, so repeated replays do not inflate
        the serving time. ``partial`` admits a session that ended early on
        purpose; any other incomplete one is a sharding bug.
        """
        state = self.state
        if self._served and not partial and not state.complete:
            raise SimulationError(
                f"finished with {state.n_done} served and "
                f"{state.n_failed} quarantined of {state.n_windows} "
                "windows — sharding bug"
            )
        report = StreamReport(
            config, engine, getattr(stream, "window", 0),
            getattr(stream, "hop", 0),
        )
        for index in sorted(state.results):
            report.add_window(state.results[index])
        for index in sorted(state.failed):
            report.add_failed(state.failed[index])
        if self._served:
            state.wall_seconds = self.wall()
            if self.checkpoint is not None:
                self.checkpoint.save(state)
        report.wall_seconds = state.wall_seconds
        report.store_stats = dict(state.store_stats)
        report.resilience = dict(state.resilience)
        return report
