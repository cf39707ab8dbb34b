"""The fleet host: shard one window stream over TCP workers.

:class:`FleetServer` is the distributed sibling of
:class:`~repro.serve.PoolScheduler`: same picklable worker spec, same
:class:`~repro.serve.ledger.Task` protocol, same order-stable merge into
a :class:`~repro.serve.StreamReport` — so a stream served by a fleet
is bit-identical to the sequential scheduler, whatever the worker
count, and a :class:`~repro.serve.StreamCheckpoint` written by any
executor resumes under any other.

The server is a single-threaded :mod:`selectors` event loop (plus the
same feeder thread the pool uses for window materialization). Remote
:class:`~repro.serve.net.FleetWorker` processes dial in, register with
``hello``, receive the worker spec over the wire, and serve attempts;
the server's :class:`~repro.serve.ledger.WindowLedger` owns *all*
scheduling state, so any worker can vanish at any moment without a
window being lost.

Robustness is layered, and every knob defaults off — with no fault
plan, no deadlines and no heartbeat the fleet is exactly a remote pool
that fails fast on the first worker error:

* **Per-task deadlines** (``task_deadline``) bound how long a
  dispatched window may stay unresolved; an expired task spends one
  rung of the retry ladder and is re-dispatched with exponential
  backoff (``retry_backoff`` doubling up to ``backoff_cap``). Delivery
  is thus at-least-once; it is *safe* because results are deduplicated
  idempotently by window index — a late duplicate is bookkept as
  ``late_results`` and dropped, by the same ledger the pool uses.
* **Heartbeats** (``heartbeat_timeout``) retire workers that go silent
  — the read side of the workers' ``heartbeat_interval`` beats.
* **Reconnection** — a worker that lost its connection re-registers
  under the same name; its platform survives, the spec is only
  re-shipped when the digest changed (e.g. a different job), and the
  reconnect is tallied per worker in the checkpoint's namespaces.
* **Degradation ladder** (``local_fallback``) — no registration within
  ``register_timeout`` falls back to the in-process
  :class:`~repro.serve.PoolScheduler` loop; losing every worker mid-run
  to the :class:`~repro.serve.StreamScheduler` loop. Both run over the
  session's own ledger, and both rungs produce the same
  bit-identical report, just slower.

Chaos for all of the above comes from the ``net_*`` family of
:mod:`repro.faults`, injected at the framing layer by
:class:`~repro.serve.net.framing.NetGate` — task-side kinds on the
server's own sends, result-side kinds shipped to the workers.
"""

from __future__ import annotations

import functools
import hashlib
import multiprocessing.util
import pickle
import selectors
import socket
import time

from repro.core.errors import ConfigurationError, SimulationError
from repro.obs.bus import get_bus
from repro.obs.instruments import (
    record_net_event,
    record_net_frames,
    record_net_retry,
    record_net_state,
)
from repro.serve.ledger import MAX_RETRIES
from repro.serve.net.framing import (
    FrameBuffer,
    FrameError,
    NetGate,
    send_frame,
)
from repro.serve.pool import PoolScheduler, PoolWorkerError, _Feeder
from repro.serve.report import StreamReport
from repro.serve.scheduler import StreamScheduler, _serve_session

#: Event-loop tick (select timeout): liveness scans and dispatch pacing.
_TICK_SECONDS = 0.05
#: How long an accepted connection may stay silent before ``hello``.
_HELLO_TIMEOUT = 5.0
#: Blocking-send timeout on accepted sockets (results are read
#: non-blocking via the selector; only outbound frames can block).
_CONN_TIMEOUT = 5.0
#: Windows the feeder thread slices ahead of dispatch.
_FEED_AHEAD = 32


class _Conn:
    """One accepted connection (its tasks live in the ledger)."""

    __slots__ = (
        "sock", "addr", "buffer", "name", "ready", "engine",
        "last_seen", "connected_at",
    )

    def __init__(self, sock, addr) -> None:
        self.sock = sock
        self.addr = addr
        self.buffer = FrameBuffer()
        self.name = None
        self.ready = False
        self.engine = None
        self.last_seen = time.monotonic()
        self.connected_at = self.last_seen


class FleetServer:
    """Serve window streams over registered remote fleet workers.

    Platform/job parameters (``config``/``params``/``pipeline``/
    ``energy_model``/``runner_factory``/``warm``) mean exactly what
    they mean on :class:`~repro.serve.PoolScheduler`; the
    robustness knobs are documented in the module docstring and
    docs/distributed.md. ``port=0`` binds an OS-assigned port —
    :meth:`bind` returns the actual address so workers (and tests) can
    be pointed at it before :meth:`run`. ``stop_after`` ends the
    session after exactly that many windows were accepted (dispatch
    never lets accepted plus in-flight windows exceed it) — the hook
    the restart smoke test uses to model a server crash at a
    deterministic point; rerunning with the same checkpoint finishes
    the stream.
    """

    def __init__(self, config: str = "cpu_vwr2a",
                 host: str = "127.0.0.1", port: int = 0,
                 params=None, pipeline=None, energy_model=None,
                 runner_factory=None,
                 warm: bool = False, prefetch: int = 2,
                 fault_plan=None, max_retries: int = MAX_RETRIES,
                 reference_fallback: bool = True,
                 task_deadline: float = None,
                 retry_backoff: float = 0.05,
                 backoff_cap: float = 2.0,
                 heartbeat_timeout: float = None,
                 register_timeout: float = 10.0,
                 local_fallback: bool = True,
                 respawn_limit: int = 0,
                 stop_after: int = None) -> None:
        if task_deadline is not None and task_deadline <= 0:
            raise ConfigurationError(
                "task_deadline must be positive seconds (or None to "
                f"disable), got {task_deadline}"
            )
        if retry_backoff < 0 or backoff_cap < retry_backoff:
            raise ConfigurationError(
                "retry backoff must satisfy 0 <= retry_backoff <= "
                f"backoff_cap, got {retry_backoff}/{backoff_cap}"
            )
        if register_timeout <= 0:
            raise ConfigurationError(
                "register_timeout must be positive seconds, got "
                f"{register_timeout}"
            )
        if stop_after is not None and stop_after < 1:
            raise ConfigurationError(
                f"stop_after must be >= 1 window, got {stop_after}"
            )
        if fault_plan is not None and task_deadline is None and any(
            spec.kind in ("net_drop", "net_corrupt")
            for spec in fault_plan.specs
        ):
            raise ConfigurationError(
                "the fault plan schedules frame-loss faults (net_drop/"
                "net_corrupt); pass task_deadline so lost windows are "
                "detected and re-served (otherwise the stream never "
                "finishes)"
            )
        self.fault_plan = fault_plan
        platform_plan = (
            fault_plan.without_net() if fault_plan is not None else None
        )
        if platform_plan is not None and not platform_plan.specs:
            platform_plan = None
        # The local pool doubles as parameter resolution (config/
        # pipeline defaults, spec validation) and as the first rung of
        # the degradation ladder.
        self._local = PoolScheduler(
            config=config, params=params, pipeline=pipeline,
            energy_model=energy_model, runner_factory=runner_factory,
            warm=warm, prefetch=prefetch, fault_plan=platform_plan,
            max_retries=max_retries,
            reference_fallback=reference_fallback,
            respawn_limit=respawn_limit,
            heartbeat_timeout=heartbeat_timeout,
        )
        self.config = self._local.config
        self.pipeline = self._local.pipeline
        self.energy_model = self._local.energy_model
        self.host = host
        self.port = port
        self.prefetch = prefetch
        self.max_retries = max_retries
        self.reference_fallback = reference_fallback
        self.task_deadline = task_deadline
        self.retry_backoff = retry_backoff
        self.backoff_cap = backoff_cap
        self.heartbeat_timeout = heartbeat_timeout
        self.register_timeout = register_timeout
        self.local_fallback = local_fallback
        self.stop_after = stop_after
        self._listener = None
        self._resilient = (
            fault_plan is not None or task_deadline is not None
            or heartbeat_timeout is not None or respawn_limit > 0
        )

    @property
    def engine(self) -> str:
        return self._local.engine

    # -- listener lifecycle --------------------------------------------------

    def bind(self):
        """Bind and listen; returns ``(host, port)``. Idempotent."""
        if self._listener is None:
            listener = socket.socket(
                socket.AF_INET, socket.SOCK_STREAM
            )
            listener.setsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
            )
            listener.bind((self.host, self.port))
            listener.listen(64)
            listener.setblocking(False)
            self.port = listener.getsockname()[1]
            self._listener = listener
            # Fork-spawned worker processes inherit this fd; without
            # closing it there, the port stays bound after our close()
            # for as long as any worker lives — and a restarted server
            # cannot rebind it.
            multiprocessing.util.register_after_fork(
                self, FleetServer.close
            )
        return (self.host, self.port)

    def close(self) -> None:
        """Close the listener (accepted connections die with the run)."""
        if self._listener is not None:
            try:
                self._listener.close()
            finally:
                self._listener = None

    # -- serving -------------------------------------------------------------

    def run(self, stream, checkpoint=None) -> StreamReport:
        """Serve ``stream`` over the fleet; returns the merged report.

        Same contract as :meth:`PoolScheduler.run` — checkpoint resume,
        bit-identical merge, :class:`PoolWorkerError` on a genuine
        worker failure — plus the degradation ladder when no workers
        are available.
        """
        self.bind()
        try:
            return _serve_session(
                self, stream, checkpoint, dedup=self._resilient,
                backoff=self._backoff, stop_after=self.stop_after,
            )
        finally:
            self.close()

    # -- the event loop ------------------------------------------------------

    def _spec_frame(self, stream):
        """The spec payload and its digest (pinned in ``hello``)."""
        payload = (
            self._local._spec(stream),
            self.fault_plan.net_specs("result")
            if self.fault_plan is not None else (),
        )
        digest = hashlib.sha256(pickle.dumps(payload)).hexdigest()[:16]
        return payload, digest

    def _serve_remaining(self, stream, ledger):
        """Serve every unaccounted window; returns the workers' engine.

        The ledger owns the windows; this loop owns the sockets:
        framing, heartbeats, deadlines and reconnects. It ends early at
        the ledger's ``stop_after``, and worker errors raise
        :class:`PoolWorkerError` like the pool's.
        """
        state = ledger.state
        spec_payload, spec_digest = self._spec_frame(stream)
        task_gate = NetGate(
            self.fault_plan.specs if self.fault_plan is not None
            else (), side="task",
        )
        feeder = _Feeder(stream, ledger.resolved, _FEED_AHEAD)

        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, "listen")
        conns = {}       # fileno -> _Conn (every accepted connection)
        workers = {}     # name -> _Conn (registered)
        # Names ever registered — seeded from the checkpoint namespaces
        # so a worker re-registering after a *server* restart counts as
        # the reconnect it is from the worker's point of view.
        known = set(state.namespaces)
        engines = set()
        failure = None
        ever_ready = False
        now = time.monotonic()
        reg_deadline = now + self.register_timeout
        last_alive = now
        fallback = None  # the local loop the degradation ladder lands on

        def namespace(name: str) -> dict:
            return state.namespaces.setdefault(name, {})

        def bump(name: str, key: str) -> None:
            namespace(name)[key] = namespace(name).get(key, 0) + 1

        def ready() -> list:
            return [c for c in workers.values() if c.ready]

        def send(conn, msg, payload=None, gated=False) -> str:
            try:
                if gated and task_gate.specs:
                    action = task_gate.send(conn.sock, msg, payload)
                else:
                    send_frame(conn.sock, msg, payload)
                    action = "sent"
            except (OSError, socket.timeout):
                return "peer_gone"
            bus = get_bus()
            if bus is not None and action != "dropped":
                record_net_frames(bus, "out")
            return action

        def retried(verdict, reason: str) -> None:
            bus = get_bus()
            if verdict == "retry" and bus is not None:
                record_net_retry(bus, reason)

        def close_conn(conn) -> None:
            conns.pop(conn.sock.fileno(), None)
            try:
                sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            try:
                conn.sock.close()
            except OSError:
                pass

        def retire_conn(conn, reason: str) -> None:
            """Drop one connection; spend a rung per in-flight window.

            Every in-flight task rides the ladder (not just the head,
            as the pool does): over a lossy transport the server cannot
            know which of them the worker half-served, and unbounded
            free requeues would let a flapping link retry forever.
            """
            if conn.name is not None and workers.get(conn.name) is conn:
                del workers[conn.name]
            close_conn(conn)
            for verdict in ledger.lose(
                conn, None, f"net_{reason}",
                f"connection to worker {conn.name!r} lost ({reason}) "
                "with the window in flight",
            ):
                retried(verdict, reason)

        def merge_net_fired(name: str, fired) -> None:
            """Fold a worker's cumulative gate counters into resilience.

            Deltas are taken against the per-worker cumulative stored
            in the checkpoint namespaces, so reconnects and server
            restarts never double-count an injection.
            """
            if not fired:
                return
            stored = namespace(name).setdefault("net_fired", {})
            delta = {}
            for kind, count in fired.items():
                seen = stored.get(kind, 0)
                if count < seen:
                    seen = 0  # the worker itself restarted
                if count > seen:
                    delta[f"fault:{kind}"] = count - seen
                stored[kind] = count
            if delta:
                ledger.tally(delta)

        def on_frame(conn, msg, payload) -> None:
            nonlocal failure
            conn.last_seen = time.monotonic()
            kind = msg.get("type")
            if kind != "hello" and conn.name is None:
                # Data frames from a peer that never registered: a
                # protocol violation, not a scheduling event.
                return
            if kind == "hello":
                name = msg.get("name") or f"anon-{conn.sock.fileno()}"
                stale = workers.get(name)
                if stale is not None and stale is not conn:
                    # The worker reconnected before its old connection
                    # was detected dead: retire the half-open husk.
                    retire_conn(stale, "disconnect")
                conn.name = name
                workers[name] = conn
                if name in known:
                    ledger.tally({"net_reconnects": 1})
                    bump(name, "reconnects")
                    bus = get_bus()
                    if bus is not None:
                        record_net_event(bus, "reconnect")
                known.add(name)
                namespace(name)  # registration is durable bookkeeping
                if msg.get("spec_digest") == spec_digest:
                    # Warm reconnect: platform already built.
                    mark_ready(conn, msg)
                else:
                    send(conn, {
                        "type": "spec", "digest": spec_digest,
                    }, payload=spec_payload)
            elif kind == "ready":
                mark_ready(conn, msg)
            elif kind == "result":
                merge_net_fired(conn.name, msg.get("net_fired"))
                result, stats_delta = payload
                if ledger.accept(
                    conn, result, stats_delta,
                    bool(msg.get("force_reference")), conn.name,
                ):
                    bump(conn.name, "served")
            elif kind == "retry":
                merge_net_fired(conn.name, msg.get("net_fired"))
                kinds = tuple(msg.get("kinds") or ("unknown",))
                retried(ledger.fault(conn, msg["index"], kinds), "fault")
            elif kind == "err":
                failure = failure or (conn.name, msg.get("index"), payload)
            elif kind == "hb":
                merge_net_fired(conn.name, msg.get("net_fired"))
            # Unknown frame types are ignored: wire compatibility.

        def mark_ready(conn, msg) -> None:
            conn.ready = True
            conn.engine = msg.get("engine") or None
            if conn.engine:
                engines.add(conn.engine)

        def read_conn(conn) -> None:
            try:
                data = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                ledger.tally({"net_disconnects": 1})
                retire_conn(conn, "disconnect")
                return
            if not data:
                if conn.name is not None:
                    ledger.tally({"net_disconnects": 1})
                retire_conn(conn, "disconnect")
                return
            conn.buffer.feed(data)
            bus = get_bus()
            while True:
                try:
                    item = conn.buffer.pop()
                except FrameError:
                    # Desynced or hostile byte stream: the connection
                    # is unusable. In-flight windows ride the ladder;
                    # a real worker will reconnect.
                    ledger.tally({"net_desyncs": 1})
                    retire_conn(conn, "desync")
                    return
                if item is None:
                    return
                if item[0] == "bad":
                    ledger.tally({"net_checksum_failures": 1})
                    if bus is not None:
                        record_net_event(bus, "checksum_failure")
                    continue
                if bus is not None:
                    record_net_frames(bus, "in")
                try:
                    on_frame(conn, item[1], item[2])
                except (KeyError, TypeError, ValueError, IndexError):
                    # A structurally valid frame whose fields violate
                    # the protocol (hostile or byte-lucky corruption):
                    # never the server's problem to crash over.
                    ledger.tally({"net_protocol_errors": 1})
                if conn.sock.fileno() < 0:
                    return  # the frame handler closed the connection

        def dispatch() -> None:
            for conn, task in ledger.schedule(
                ready, self.prefetch, feeder.poll, self.task_deadline
            ):
                action = send(conn, {
                    "type": "task",
                    "index": task.index,
                    "attempt": task.attempt,
                    "force_reference": task.reference,
                }, payload=(task.window.start, task.window.samples),
                    gated=True)
                if action in ("disconnect", "peer_gone"):
                    ledger.tally({"net_disconnects": 1})
                    retire_conn(conn, "disconnect")
                # "dropped" frames wait for their deadline; "sent" and
                # duplicated/delayed frames need nothing more.

        def scan(now: float) -> None:
            for conn in list(conns.values()):
                if (
                    conn.name is None
                    and now - conn.connected_at > _HELLO_TIMEOUT
                ):
                    close_conn(conn)  # silent stranger
            if self.heartbeat_timeout is not None:
                for conn in list(workers.values()):
                    if now - conn.last_seen > self.heartbeat_timeout:
                        ledger.tally({"net_heartbeat_misses": 1})
                        bus = get_bus()
                        if bus is not None:
                            record_net_event(bus, "heartbeat_miss")
                        retire_conn(conn, "heartbeat")
            for conn, index in ledger.expired():
                verdict = ledger.spoil(
                    conn, index, ("net_deadline",),
                    f"window {index} blew its {self.task_deadline}s "
                    f"deadline on worker {conn.name!r}",
                )
                if verdict is None:
                    continue  # already retired with its connection
                ledger.tally({"net_deadline_misses": 1})
                retried(verdict, "deadline")

        try:
            while failure is None and not state.complete \
                    and not ledger.stopped:
                for key, _events in sel.select(timeout=_TICK_SECONDS):
                    if key.data == "listen":
                        try:
                            sock, addr = self._listener.accept()
                        except OSError:
                            continue
                        sock.settimeout(_CONN_TIMEOUT)
                        conn = _Conn(sock, addr)
                        conns[sock.fileno()] = conn
                        sel.register(
                            sock, selectors.EVENT_READ, conn
                        )
                    else:
                        read_conn(key.data)
                if failure is not None or feeder.failure:
                    break
                now = time.monotonic()
                scan(now)
                alive = ready()
                if alive:
                    ever_ready = True
                    last_alive = now
                elif not ever_ready and now > reg_deadline:
                    if not self.local_fallback:
                        raise ConfigurationError(
                            "no fleet workers registered within "
                            f"{self.register_timeout}s and "
                            "local_fallback is off"
                        )
                    fallback = self._local._serve_remaining
                    break
                elif ever_ready and now - last_alive > max(
                    self.register_timeout,
                    self.heartbeat_timeout or 0.0,
                ):
                    # Lost the whole fleet mid-run: the last rung.
                    if self.local_fallback:
                        fallback = functools.partial(StreamScheduler(
                            config=self.config,
                            runner=self._local.runner_factory(),
                            pipeline=self.pipeline,
                            energy_model=self.energy_model,
                            fault_plan=self._local.fault_plan,
                        )._serve_remaining, label="local")
                        break
                    failure = (
                        "fleet", None,
                        "every fleet worker was lost mid-stream and "
                        "local_fallback is off",
                    )
                    break
                dispatch()
                bus = get_bus()
                if bus is not None:
                    record_net_state(bus, len(alive), ledger.n_in_flight)
                    ledger.progress(bus)
                stalled = alive and ledger.stalled(feeder.exhausted())
                if stalled:
                    failure = ("fleet", None, f"fleet {stalled}")
            if failure is None and state.complete:
                for conn in list(workers.values()):
                    send(conn, {"type": "fin"})
        finally:
            feeder.close()
            for conn in list(conns.values()):
                close_conn(conn)
            sel.close()
        failure = failure or feeder.failure
        if failure is not None:
            raise PoolWorkerError(*failure)
        if len(engines) > 1:
            raise SimulationError(
                "fleet workers disagree on the engine: "
                f"{sorted(engines)}"
            )
        if fallback is None:
            return engines.pop() if engines else self.engine
        # The degradation ladder: a local loop finishes the session over
        # this same ledger, so the merge stays bit-identical. Backoff
        # lets a flapping link settle; locally, retries wait for nothing.
        self.close()
        ledger.backoff = None
        ledger.tally({"local_degradations": 1})
        return fallback(stream, ledger)

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.retry_backoff * (2 ** attempt))
