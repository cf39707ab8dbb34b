"""The fleet host: shard one window stream over TCP workers.

:class:`FleetServer` is the distributed sibling of
:class:`~repro.serve.PoolScheduler`: same picklable worker spec, same
:class:`~repro.serve.ledger.Task` protocol, same order-stable merge into
a :class:`~repro.serve.StreamReport` — so a stream served by a fleet
is bit-identical to the sequential scheduler, whatever the worker
count, and a :class:`~repro.serve.StreamCheckpoint` written by any
executor resumes under any other.

The server runs the pool's supervision round (plus its feeder thread)
over a :mod:`selectors` socket transport. Remote
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

from repro.core.errors import ConfigurationError
from repro.obs.bus import get_bus
from repro.obs.instruments import (
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
from repro.serve.pool import (
    _TICK_SECONDS,
    PoolScheduler,
    _supervise,
    _supervised,
    _Transport,
)
from repro.serve.report import StreamReport
from repro.serve.scheduler import StreamScheduler, _serve_session

#: How long an accepted connection may stay silent before ``hello``.
_HELLO_TIMEOUT = 5.0
#: Blocking-send timeout on accepted sockets (results are read
#: non-blocking via the selector; only outbound frames can block).
_CONN_TIMEOUT = 5.0
#: Windows the feeder thread slices ahead of dispatch.
_FEED_AHEAD = 32


class _Conn:
    """One accepted connection (its tasks live in the ledger)."""

    def __init__(self, sock) -> None:
        self.sock = sock
        self.buffer = FrameBuffer()
        self.name = None     # set by ``hello``
        self.ready = False   # the worker's platform is built
        self.last_seen = self.connected_at = time.monotonic()


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

    @property
    def engine(self) -> str:
        return self._local.engine

    # -- listener lifecycle --------------------------------------------------

    def bind(self):
        """Bind and listen; returns ``(host, port)``. Idempotent."""
        if self._listener is None:
            # SO_REUSEADDR is set, so a restarted server rebinds at once.
            listener = socket.create_server(
                (self.host, self.port), backlog=64
            )
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
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()

    # -- serving -------------------------------------------------------------

    def run(self, stream, checkpoint=None) -> StreamReport:
        """Serve ``stream`` over the fleet; returns the merged report.

        Same contract as :meth:`PoolScheduler.run` — checkpoint resume,
        bit-identical merge, :class:`~repro.serve.PoolWorkerError` on a
        genuine worker failure — plus the degradation ladder when no
        workers are available.
        """
        self.bind()
        try:
            return _serve_session(
                self, stream, checkpoint, dedup=_supervised(
                    self.fault_plan, self._local.respawn_limit,
                    self.heartbeat_timeout, self.task_deadline,
                ),
                backoff=self._backoff, stop_after=self.stop_after,
            )
        finally:
            self.close()

    def _serve_remaining(self, stream, ledger):
        """Serve every unaccounted window; returns the workers' engine.

        The ledger owns the windows, :class:`_FleetTransport` the
        sockets, and the pool's supervision round drives both.
        """
        transport = _FleetTransport(self, stream, ledger)
        engine = _supervise(
            transport, ledger, stream, _FEED_AHEAD, self.prefetch,
            self.task_deadline,
        )
        if transport.handoff is None:
            return engine or self.engine
        # The degradation ladder: a local loop finishes the session over
        # this same ledger, so the merge stays bit-identical. Backoff
        # lets a flapping link settle; locally, retries wait for nothing.
        self.close()
        ledger.backoff = None
        ledger.tally({"local_degradations": 1})
        return transport.handoff(stream, ledger)

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_cap, self.retry_backoff * (2 ** attempt))


class _FleetTransport(_Transport):
    """Sockets (owners: registered connections): registration and
    reconnects, frame checks, the ``net_fired`` merge, the heartbeat rule
    (a remote peer has no exit code) and the degradation ladder."""

    kind = "fleet"

    def __init__(self, server, stream, ledger) -> None:
        super().__init__(ledger)
        self.server = server
        plan = server.fault_plan
        # The spec payload and its digest (pinned in ``hello``).
        self.spec_payload = (
            server._local._spec(stream),
            plan.net_specs("result") if plan is not None else (),
        )
        self.spec_digest = hashlib.sha256(
            pickle.dumps(self.spec_payload)
        ).hexdigest()[:16]
        self.task_gate = NetGate(
            plan.specs if plan is not None else (), side="task"
        )
        self.sel = selectors.DefaultSelector()
        self.sel.register(server._listener, selectors.EVENT_READ, None)
        self.conns = {}     # fileno -> _Conn (every accepted connection)
        self.workers = {}   # name -> _Conn (registered)
        self.reg_deadline = time.monotonic() + server.register_timeout
        self.last_alive = None   # when a worker was last ready

    def label(self, conn):
        return conn.name

    def namespace(self, name: str) -> dict:
        return self.ledger.state.namespaces.setdefault(name, {})

    def bump(self, name: str, key: str) -> None:
        self.namespace(name)[key] = self.namespace(name).get(key, 0) + 1

    def owners(self) -> list:
        return [c for c in self.workers.values() if c.ready]

    def frame(self, conn, msg, payload=None, gated=False) -> str:
        """Send one frame; returns the gate's action or ``"peer_gone"``."""
        try:
            if gated and self.task_gate.specs:
                action = self.task_gate.send(conn.sock, msg, payload)
            else:
                send_frame(conn.sock, msg, payload)
                action = "sent"
        except (OSError, socket.timeout):
            return "peer_gone"
        bus = get_bus()
        if bus is not None and action != "dropped":
            record_net_frames(bus, "out")
        return action

    def retried(self, verdict, reason: str) -> None:
        bus = get_bus()
        if verdict == "retry" and bus is not None:
            record_net_retry(bus, reason)

    def close_conn(self, conn) -> None:
        self.conns.pop(conn.sock.fileno(), None)
        try:
            self.sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def retire(self, conn, reason: str) -> None:
        """Drop one connection; spend a rung per in-flight window.

        Every in-flight task rides the ladder (not just the head, as
        the pool does): over a lossy transport the server cannot know
        which of them the worker half-served, and unbounded free
        requeues would let a flapping link retry forever.
        """
        if conn.name is not None and self.workers.get(conn.name) is conn:
            del self.workers[conn.name]
        self.close_conn(conn)
        for verdict in self.ledger.lose(
            conn, None, f"net_{reason}",
            f"connection to worker {conn.name!r} lost ({reason}) "
            "with the window in flight",
        ):
            self.retried(verdict, reason)

    def merge_net_fired(self, name: str, fired) -> None:
        """Fold a worker's cumulative gate counters into resilience.

        Deltas are taken against the per-worker cumulative stored in
        the checkpoint namespaces, so reconnects and server restarts
        never double-count an injection.
        """
        if not fired:
            return
        stored = self.namespace(name).setdefault("net_fired", {})
        delta = {}
        for kind, count in fired.items():
            seen = stored.get(kind, 0)
            if count < seen:
                seen = 0  # the worker itself restarted
            if count > seen:
                delta[f"fault:{kind}"] = count - seen
            stored[kind] = count
        if delta:
            self.ledger.tally(delta)

    def on_frame(self, conn, msg, payload) -> None:
        conn.last_seen = time.monotonic()
        kind = msg.get("type")
        if kind == "hello":
            self.register(conn, msg)
            return
        if conn.name is None:
            # Data frames from a peer that never registered: a
            # protocol violation, not a scheduling event.
            return
        self.merge_net_fired(conn.name, msg.get("net_fired"))
        if kind == "ready":
            self.mark_ready(conn, msg)
        elif kind == "result":
            if self.verdict(
                conn, "ok", msg.get("index"), *payload,
                bool(msg.get("force_reference")),
            ):
                self.bump(conn.name, "served")
        elif kind == "retry":
            kinds = tuple(msg.get("kinds") or ("unknown",))
            self.retried(
                self.verdict(conn, "retry", msg["index"], kinds), "fault"
            )
        elif kind == "err":
            self.verdict(conn, "err", msg.get("index"), payload)
        # Other frame types (``hb`` carries only ``net_fired``) are
        # ignored: wire compatibility.

    def register(self, conn, msg) -> None:
        name = msg.get("name") or f"anon-{conn.sock.fileno()}"
        stale = self.workers.get(name)
        if stale is not None and stale is not conn:
            # The worker reconnected before its old connection was
            # detected dead: retire the half-open husk.
            self.retire(stale, "disconnect")
        conn.name = name
        self.workers[name] = conn
        # Every name ever registered has a checkpoint namespace, so a
        # worker re-registering after a *server* restart counts as the
        # reconnect it is from the worker's point of view.
        if name in self.ledger.state.namespaces:
            self.ledger.tally({"net_reconnects": 1})
            self.bump(name, "reconnects")
        self.namespace(name)  # registration is durable bookkeeping
        if msg.get("spec_digest") == self.spec_digest:
            self.mark_ready(conn, msg)  # warm reconnect: platform built
        else:
            self.frame(conn, {
                "type": "spec", "digest": self.spec_digest,
            }, payload=self.spec_payload)

    def mark_ready(self, conn, msg) -> None:
        conn.ready = True
        if msg.get("engine"):
            self.engines.add(msg["engine"])

    def poll(self) -> None:
        for key, _events in self.sel.select(timeout=_TICK_SECONDS):
            if key.data is None:
                try:
                    sock, _ = self.server._listener.accept()
                except OSError:
                    continue
                sock.settimeout(_CONN_TIMEOUT)
                conn = _Conn(sock)
                self.conns[sock.fileno()] = conn
                self.sel.register(sock, selectors.EVENT_READ, conn)
            else:
                self.read(key.data)

    def read(self, conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = None
        if not data:
            if data is None or conn.name is not None:
                self.ledger.tally({"net_disconnects": 1})
            self.retire(conn, "disconnect")
            return
        conn.buffer.feed(data)
        bus = get_bus()
        while True:
            try:
                item = conn.buffer.pop()
            except FrameError:
                # Desynced or hostile byte stream: the connection is
                # unusable. In-flight windows ride the ladder; a real
                # worker will reconnect.
                self.ledger.tally({"net_desyncs": 1})
                self.retire(conn, "desync")
                return
            if item is None:
                return
            if item[0] == "bad":
                self.ledger.tally({"net_checksum_failures": 1})
                continue
            if bus is not None:
                record_net_frames(bus, "in")
            try:
                self.on_frame(conn, item[1], item[2])
            except (KeyError, TypeError, ValueError, IndexError):
                # A structurally valid frame whose fields violate the
                # protocol (hostile or byte-lucky corruption): never
                # the server's problem to crash over.
                self.ledger.tally({"net_protocol_errors": 1})
            if conn.sock.fileno() < 0:
                return  # the frame handler closed the connection

    def send(self, conn, task) -> None:
        action = self.frame(conn, {
            "type": "task",
            "index": task.index,
            "attempt": task.attempt,
            "force_reference": task.reference,
        }, payload=(task.window.start, task.window.samples), gated=True)
        if action in ("disconnect", "peer_gone"):
            self.ledger.tally({"net_disconnects": 1})
            self.retire(conn, "disconnect")
        # "dropped" frames wait for their deadline; "sent" and
        # duplicated/delayed frames need nothing more.

    def scan(self) -> None:
        server = self.server
        now = time.monotonic()
        for conn in list(self.conns.values()):
            if conn.name is None and now - conn.connected_at > _HELLO_TIMEOUT:
                self.close_conn(conn)  # silent stranger
        if server.heartbeat_timeout is not None:
            for conn in list(self.workers.values()):
                if now - conn.last_seen > server.heartbeat_timeout:
                    self.ledger.tally({"net_heartbeat_misses": 1})
                    self.retire(conn, "heartbeat")
        if self.owners():
            self.last_alive = now
        elif self.last_alive is None and now > self.reg_deadline:
            if not server.local_fallback:
                raise ConfigurationError(
                    "no fleet workers registered within "
                    f"{server.register_timeout}s and local_fallback is off"
                )
            self.handoff = server._local._serve_remaining
        elif self.last_alive is not None and now - self.last_alive > max(
            server.register_timeout, server.heartbeat_timeout or 0.0,
        ):
            # Lost the whole fleet mid-run: the last rung.
            if server.local_fallback:
                self.handoff = functools.partial(StreamScheduler(
                    config=server.config,
                    runner=server._local.runner_factory(),
                    pipeline=server.pipeline,
                    energy_model=server.energy_model,
                    fault_plan=server._local.fault_plan,
                )._serve_remaining, label="local")
            else:
                self.fail(
                    "fleet", None,
                    "every fleet worker was lost mid-stream and "
                    "local_fallback is off",
                )

    def publish(self, bus) -> None:
        record_net_state(bus, len(self.owners()), self.ledger.n_in_flight)

    def release(self) -> None:
        for conn in list(self.workers.values()):
            self.frame(conn, {"type": "fin"})

    def close(self) -> None:
        for conn in list(self.conns.values()):
            self.close_conn(conn)
        self.sel.close()
