"""The shared resilience core (``repro.serve.ledger``), proven once.

:class:`WindowLedger` keeps the books for the sequential scheduler, the
process pool and the TCP fleet alike, so its invariants are proven here
instead of once per transport. A hypothesis state machine drives one
ledger through random interleavings of what the transports report —
dispatch, clean results, fault verdicts, a lost owner (only the head of
its queue spoiled, or all of it), deadline expiry, and duplicate or late
results — against a small independent model, and checks that:

* every window ends in exactly one of ``results`` or ``failed``;
* no window gets more than ``max_retries + 2`` attempts;
* each ``resilience`` counter equals the count of its events;
* with a metrics bus installed, the bus totals equal the report.

The supervision round that drives the ledger for the pool and the fleet
is proven here once too, over a fake in-process transport.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.app import WINDOW, respiration_signal
from repro.core.errors import ConfigurationError, SimulationError
from repro.faults import FaultPlan, FaultSpec
from repro.obs import default_bus, recording
from repro.serve import (
    CheckpointState,
    PoolWorkerError,
    StreamScheduler,
    WindowResult,
    WindowStream,
)
from repro.serve.ledger import MAX_RETRIES, Task, WindowLedger
from repro.serve.net import FleetServer
from repro.serve.pool import _supervise, _Transport
from repro.serve.net.framing import read_frame, send_frame
from repro.serve.stream import Window

N_WINDOWS = 5
OWNERS = ("a", "b")
CAPACITY = 2
DEADLINE = 1.0
KINDS = ("spm_bitflip", "brownout")

WINDOWS = tuple(Window(i, 4 * i, (i, i)) for i in range(N_WINDOWS))


def result(index: int) -> WindowResult:
    return WindowResult(
        index=index, start=4 * index, app=index, cycles=10 + index,
        events={}, launches=(), staging_in_cycles=1,
        staging_out_cycles=2,
    )


def scratch_ledger(**policy) -> WindowLedger:
    return WindowLedger(
        CheckpointState(fingerprint={"n_windows": N_WINDOWS}), **policy
    )


class LedgerMachine(RuleBasedStateMachine):
    """A WindowLedger next to the model of what it must have done."""

    @initialize(max_retries=st.integers(0, 2),
                reference_fallback=st.booleans())
    def start(self, max_retries, reference_fallback):
        self.now = 0.0
        self.stack = ExitStack()
        self.bus = self.stack.enter_context(recording(default_bus()))
        self.max_retries = max_retries
        self.reference_fallback = reference_fallback
        self.ledger = scratch_ledger(
            max_retries=max_retries,
            reference_fallback=reference_fallback,
            dedup=True,
            backoff=lambda attempt: 0.25 * (attempt + 1),
            clock=lambda: self.now,
        )
        self.fresh = iter(WINDOWS)
        # The model: what the ledger must hold and must have counted.
        self.in_flight = {owner: {} for owner in OWNERS}
        self.results = set()
        self.failed = set()
        self.counts = {}

    # -- the model -----------------------------------------------------------

    def count(self, event: str) -> None:
        self.counts[event] = self.counts.get(event, 0) + 1

    def resolved(self, index: int) -> bool:
        return index in self.results or index in self.failed

    def climb(self, task: Task):
        """The ladder verdict the ledger must return for a spoiled task."""
        if self.resolved(task.index):
            return None
        if task.attempt < self.max_retries \
                or (self.reference_fallback and not task.reference):
            self.count("retries")
            return "retry"
        self.count("quarantined")
        self.failed.add(task.index)
        return "quarantine"

    def accept(self, owner, index: int, reference: bool = False) -> None:
        self.in_flight.get(owner, {}).pop(index, None)
        merged = self.ledger.accept(
            owner, result(index), {"stores": 1}, reference, owner
        )
        if index in self.results:
            assert merged is False
            self.count("late_results")
            return
        assert merged is True
        if index in self.failed:
            self.failed.discard(index)
            self.count("quarantine_rescues")
        self.results.add(index)
        if reference:
            self.count("reference_recoveries")

    def dispatch(self, owners) -> None:
        for owner, task in self.ledger.schedule(
            lambda: owners, CAPACITY, lambda: next(self.fresh, None),
            DEADLINE,
        ):
            assert not self.resolved(task.index)
            assert task.attempt <= self.max_retries + 1
            assert task.reference == (task.attempt > self.max_retries)
            self.in_flight[owner][task.index] = task

    def pick(self, data):
        held = [
            (owner, task)
            for owner, tasks in self.in_flight.items()
            for task in tasks.values()
        ]
        return data.draw(st.sampled_from(held))

    def anything_in_flight(self) -> bool:
        return any(self.in_flight.values())

    # -- the events ----------------------------------------------------------

    @rule(owner=st.sampled_from(OWNERS))
    def dispatch_to(self, owner):
        self.dispatch((owner,))

    @precondition(anything_in_flight)
    @rule(data=st.data())
    def ok(self, data):
        owner, task = self.pick(data)
        self.accept(owner, task.index, task.reference)

    @precondition(anything_in_flight)
    @rule(data=st.data(), kind=st.sampled_from(KINDS))
    def retry_verdict(self, data, kind):
        owner, task = self.pick(data)
        del self.in_flight[owner][task.index]
        self.count(f"fault:{kind}")
        expected = self.climb(task)
        if expected is None:
            self.count("late_results")
        assert self.ledger.fault(owner, task.index, (kind,)) == expected

    @rule(owner=st.sampled_from(OWNERS), head_only=st.booleans())
    def owner_lost(self, owner, head_only):
        tasks = list(self.in_flight[owner].values())
        self.in_flight[owner] = {}
        spoiled = tasks[:1] if head_only else tasks
        expected = [self.climb(task) for task in spoiled]
        verdicts = self.ledger.lose(
            owner, 1 if head_only else None, "worker_death", "lost"
        )
        assert verdicts == expected

    @rule(seconds=st.sampled_from((0.1, 0.6, 1.5)))
    def deadline_expiry(self, seconds):
        self.now += seconds
        for owner, index in self.ledger.expired():
            task = self.in_flight[owner].pop(index)
            expected = self.climb(task)
            verdict = self.ledger.spoil(
                owner, index, ("net_deadline",), "late"
            )
            assert verdict == expected

    @rule(owner=st.sampled_from(OWNERS),
          index=st.integers(0, N_WINDOWS - 1))
    def late_result(self, owner, index):
        # A result the owner no longer holds: a duplicate of an accepted
        # window, a rescue of a quarantined one, or a clean result that
        # raced its own requeue.
        if index not in self.in_flight[owner]:
            self.accept(owner, index)

    @rule(owner=st.sampled_from(OWNERS),
          index=st.integers(0, N_WINDOWS - 1),
          kind=st.sampled_from(KINDS))
    def late_retry_verdict(self, owner, index, kind):
        if index not in self.in_flight[owner]:
            self.count(f"fault:{kind}")
            self.count("late_results")
            assert self.ledger.fault(owner, index, (kind,)) is None

    # -- the invariants ------------------------------------------------------

    @invariant()
    def books_match_the_model(self):
        state = self.ledger.state
        assert set(state.results) == self.results
        assert set(state.failed) == self.failed
        assert not self.results & self.failed
        assert {
            owner: dict((index, task) for index, (task, _) in held.items())
            for owner, held in self.ledger.in_flight.items() if held
        } == {owner: held for owner, held in self.in_flight.items() if held}
        for failed in state.failed.values():
            assert failed.attempts <= self.max_retries + 2

    @invariant()
    def counters_count_their_events(self):
        assert self.ledger.state.resilience == self.counts

    @invariant()
    def bus_totals_equal_the_books(self):
        snap = self.bus.snapshot()
        state = self.ledger.state
        assert snap.counter("repro_windows_served_total") \
            == len(state.results)
        assert snap.counter("repro_windows_failed_total") \
            == self.counts.get("quarantined", 0)
        for event, count in state.resilience.items():
            assert snap.counter("repro_resilience_total", event=event) \
                == count

    def teardown(self):
        try:
            if hasattr(self, "ledger"):
                self.drain()
        finally:
            if hasattr(self, "stack"):
                self.stack.close()

    def drain(self):
        """Serve everything left; every window must end accounted."""
        ledger = self.ledger
        for _ in range(4 * N_WINDOWS * (self.max_retries + 2)):
            if ledger.state.complete:
                break
            self.now += 10.0  # every backoff is due
            self.dispatch(OWNERS)
            for owner, tasks in self.in_flight.items():
                for task in list(tasks.values()):
                    self.accept(owner, task.index, task.reference)
        state = ledger.state
        assert state.complete
        assert ledger.stalled(True) is None
        for index in range(N_WINDOWS):
            assert (index in state.results) != (index in state.failed)
        report = ledger.finalize("model", "auto", stream=None)
        assert report.n_windows + report.n_failed == N_WINDOWS
        snap = self.bus.snapshot()
        assert snap.counter("repro_windows_served_total") \
            == report.n_windows
        assert snap.counter("repro_window_cycles_total") \
            == report.total_cycles
        assert snap.counter("repro_windows_failed_total") \
            - report.resilience.get("quarantine_rescues", 0) \
            == report.n_failed
        for event, count in report.resilience.items():
            assert snap.counter("repro_resilience_total", event=event) \
                == count
        assert report.store_stats == {"stores": report.n_windows}


TestLedgerMachine = LedgerMachine.TestCase
TestLedgerMachine.settings = settings(
    max_examples=60, stateful_step_count=30, derandomize=True,
    database=None, deadline=None,
)


# -- single behaviours --------------------------------------------------------


def fresh_source(windows=WINDOWS):
    iterator = iter(windows)
    return lambda: next(iterator, None)


def test_stop_after_caps_accepted_plus_in_flight():
    ledger = scratch_ledger(stop_after=2)
    handed = list(ledger.schedule(lambda: OWNERS, 2, fresh_source()))
    assert [task.index for _, task in handed] == [0, 1]
    for owner, task in handed:
        ledger.accept(owner, result(task.index))
    assert ledger.stopped
    assert list(ledger.schedule(lambda: OWNERS, 2, fresh_source())) == []


def test_retry_waits_for_its_backoff():
    now = [0.0]
    ledger = scratch_ledger(
        dedup=True, backoff=lambda attempt: 1.0, clock=lambda: now[0]
    )
    source = fresh_source(WINDOWS[:2])
    ((owner, task),) = ledger.schedule(lambda: ("a",), 1, source)
    assert ledger.fault(owner, task.index, ("brownout",)) == "retry"
    # Not yet due: the fresh window goes first.
    ((_, second),) = ledger.schedule(lambda: ("a",), 1, source)
    assert second.index == 1
    ledger.accept("a", result(1))
    now[0] = 1.0
    ((_, retry),) = ledger.schedule(lambda: ("a",), 1, source)
    assert (retry.index, retry.attempt) == (0, 1)


def test_lost_owner_spends_a_rung_only_for_the_head():
    ledger = scratch_ledger(max_retries=0, reference_fallback=False)
    handed = list(ledger.schedule(lambda: ("a",), 3, fresh_source()))
    assert len(handed) == 3
    assert ledger.lose("a", 1, "worker_death", "died") == ["quarantine"]
    assert ledger.state.failed[0].kinds == ("worker_death",)
    retried = list(ledger.schedule(lambda: ("b",), 3, fresh_source(())))
    assert [(task.index, task.attempt) for _, task in retried] \
        == [(1, 0), (2, 0)]


def test_duplicates_are_a_bug_without_supervision():
    ledger = scratch_ledger()
    ledger.accept("a", result(0))
    with pytest.raises(SimulationError, match="served twice"):
        ledger.accept("a", result(0))


def test_one_retry_default_and_validation():
    assert scratch_ledger().max_retries == MAX_RETRIES == 2
    with pytest.raises(ConfigurationError, match="max_retries"):
        scratch_ledger(max_retries=-1)


# -- one ledger across a transport switch -------------------------------------


def _ghost_worker(host: str, port: int) -> None:
    """Register, take one task, vanish: the whole fleet lost mid-run."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        send_frame(sock, {"type": "hello", "name": "ghost"})
        assert read_frame(sock)[0]["type"] == "spec"
        send_frame(sock, {"type": "ready"})
        assert read_frame(sock)[0]["type"] == "task"


def test_fleet_last_rung_finishes_over_the_fleet_ledger():
    """Losing every fleet worker hands the session's own ledger to the
    in-process loop. Retries it inherits and spends are due at once, so
    backoff meant for a flapping link cannot leave windows unserved."""
    stream = WindowStream(respiration_signal(4 * WINDOW), window=WINDOW)
    single = StreamScheduler(energy_model=True).run(stream)
    server = FleetServer(
        energy_model=True, register_timeout=0.5, prefetch=1,
        retry_backoff=30.0, backoff_cap=30.0,
        fault_plan=FaultPlan(specs=(
            FaultSpec(kind="brownout", window=2, persist=1),
        )),
    )
    host, port = server.bind()
    ghost = threading.Thread(target=_ghost_worker, args=(host, port))
    ghost.start()
    try:
        report = server.run(stream)
    finally:
        ghost.join(timeout=10.0)
    assert report.identical_to(single) is None
    res = report.resilience
    assert res["local_degradations"] == 1
    assert res["fault:brownout"] == 1
    assert res["retries"] == 2  # the ghost's window, then the brownout


# -- the supervision round, over a fake transport -----------------------------


class FakeTransport(_Transport):
    """In-process workers that answer each task with a scripted fate.

    ``script`` holds ``(fate, pick)`` pairs, one per message: ``pick``
    chooses which unanswered task the message is about, so messages
    arrive in a drawn order. Fates: ``ok``; ``dup`` (ok, then the same
    result again); ``retry``; ``err``; ``lost`` (the owner dies with
    its tasks and is replaced); ``drop`` (the task silently vanishes
    from the books); ``raise`` (the transport itself fails). Past the
    script every task is served.
    """

    def __init__(self, ledger, script) -> None:
        super().__init__(ledger)
        self.script = list(script)
        self.live = list(OWNERS)
        self.spawned = len(OWNERS)
        self.unanswered = []
        self.dead = []
        self.delivered = []
        self.merged = Counter()   # window index -> results accepted
        self.ticks = self.released = self.closed = 0

    def owners(self):
        return list(self.live)

    def send(self, owner, task):
        self.unanswered.append((owner, task))

    def poll(self):
        self.ticks += 1
        assert self.ticks < 1000, "the round does not end"
        if not self.unanswered:
            time.sleep(0.001)  # the feeder thread slices the next window
            return
        fate, pick = self.script.pop(0) if self.script else ("ok", 0)
        self.delivered.append(fate)
        owner, task = self.unanswered.pop(pick % len(self.unanswered))
        index = task.index
        if fate in ("ok", "dup"):
            for _ in range(1 + (fate == "dup")):
                if self.verdict(owner, "ok", index, result(index),
                                {"stores": 1}, task.reference):
                    self.merged[index] += 1
        elif fate == "retry":
            self.verdict(owner, "retry", index, ("brownout",))
        elif fate == "err":
            self.verdict(owner, "err", index, "boom")
        elif fate == "lost":
            self.dead.append(owner)
        elif fate == "drop":
            del self.ledger.in_flight[owner][index]
        else:
            raise ConfigurationError("the transport gave up")

    def scan(self):
        for owner in self.dead:
            self.unanswered = [
                (held, task) for held, task in self.unanswered
                if held != owner
            ]
            self.live[self.live.index(owner)] = f"w{self.spawned}"
            self.spawned += 1
            self.ledger.lose(owner, 1, "worker_death", "lost")
        self.dead.clear()

    def publish(self, bus):
        pass

    def release(self):
        self.released += 1

    def close(self):
        self.closed += 1


def run_round(script, **policy):
    transport = FakeTransport(scratch_ledger(dedup=True, **policy), script)
    try:
        _supervise(transport, transport.ledger, WINDOWS, 4, CAPACITY)
    except (PoolWorkerError, ConfigurationError) as exc:
        return transport, exc
    return transport, None


@settings(max_examples=150, derandomize=True, database=None,
          deadline=None)
@given(
    fates=st.lists(st.tuples(
        st.sampled_from(("ok", "dup", "retry", "retry", "lost")),
        st.integers(0, 7),
    ), max_size=20),
    ending=st.sampled_from((None, "err", "drop", "raise")),
    at=st.integers(0, 20),
    max_retries=st.integers(0, 2),
    reference_fallback=st.booleans(),
)
def test_round_accounts_every_window_or_raises(
        fates, ending, at, max_retries, reference_fallback):
    """Whatever order the messages come in, the round ends: each window
    accepted exactly once or quarantined, or an error; always closed."""
    if ending is not None:
        fates.insert(at, (ending, at))
    transport, exc = run_round(
        fates, max_retries=max_retries,
        reference_fallback=reference_fallback,
    )
    assert transport.closed == 1
    state = transport.ledger.state
    delivered = set(transport.delivered)
    if exc is None:
        assert state.complete and transport.released == 1
        assert not delivered & {"err", "drop", "raise"}
        assert set(state.results) | set(state.failed) == set(range(N_WINDOWS))
        assert not set(state.results) & set(state.failed)
        assert all(transport.merged[i] == 1 for i in state.results)
        assert not any(transport.merged[i] for i in state.failed)
    elif isinstance(exc, ConfigurationError):
        assert transport.delivered[-1] == "raise"
    elif exc.details == "boom":
        assert transport.delivered[-1] == "err"
    else:
        assert "drop" in delivered and "err" not in delivered
        assert "stalled" in exc.details
    assert transport.released == (exc is None)


def test_round_stalls_on_a_dropped_window():
    """A transport that silently loses a window ends in the stall error
    instead of waiting for it forever."""
    transport, exc = run_round([("drop", 0)])
    assert isinstance(exc, PoolWorkerError)
    assert exc.details.startswith("pool stalled with 4/5 windows")
    assert transport.closed == 1 and not transport.released
