"""The fleet client: one remote platform, served over TCP.

A :class:`FleetWorker` dials the :class:`~repro.serve.net.FleetServer`,
introduces itself (``hello``), receives its picklable worker spec over
the wire, builds its platform through the same
:class:`~repro.serve.scheduler.AttemptServer` core that pool worker
processes use, and then serves one attempt per ``task`` frame — so a
window served by a fleet worker is bit-identical to the same window
served by a local pool worker or the sequential scheduler.

Liveness and loss are the client's whole job beyond that:

* **Heartbeats** — the socket read times out every
  ``heartbeat_interval`` seconds and the worker sends an ``hb`` frame,
  so the server can tell a slow window from a dead peer.
* **Auto-reconnect** — any connection loss (server restart, injected
  disconnect, desynced stream) sends the worker back into a dial loop
  with exponential backoff, bounded by ``reconnect_timeout`` of
  continuous unreachability. The platform survives reconnects: the
  ``hello`` carries the spec digest, and the server only re-ships the
  spec when it differs.
* **Result-side chaos** — when the job's fault plan schedules
  result-side ``net_*`` faults, the server ships those specs with the
  worker spec and the worker arms them on its own
  :class:`~repro.serve.net.framing.NetGate`, corrupting/truncating/
  dribbling its own result frames on schedule.

``process_faults`` stays ``False`` by default so thread-hosted workers
(tests, examples) can share a process with the server; the CLI worker
entry point turns it on, making ``worker_kill``/``worker_hang`` plans
lethal exactly like pool workers.
"""

from __future__ import annotations

import multiprocessing
import socket
import time
import traceback

from repro.serve.net.framing import (
    ConnectionClosed,
    FrameError,
    NetGate,
    read_frame,
    send_frame,
)
from repro.serve.ledger import Task
from repro.serve.pool import _default_start_method
from repro.serve.scheduler import AttemptServer
from repro.serve.stream import Window

#: Timeout for outbound frames — generous next to the per-beat read
#: timeout, since a result frame can be tens of KB.
_SEND_TIMEOUT = 10.0


class FleetWorker:
    """Serve windows for one fleet server until released.

    :meth:`run` returns the exit reason: ``"fin"`` (stream complete,
    server released us) or ``"unreachable"`` (no server accepted a
    connection for ``reconnect_timeout`` continuous seconds).
    """

    def __init__(self, host: str, port: int, name: str = None,
                 heartbeat_interval: float = 0.5,
                 reconnect_backoff: float = 0.2,
                 reconnect_cap: float = 5.0,
                 reconnect_timeout: float = 60.0,
                 process_faults: bool = False) -> None:
        self.host = host
        self.port = port
        self.name = name or f"worker-{id(self) & 0xFFFF:04x}"
        self.heartbeat_interval = heartbeat_interval
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_cap = reconnect_cap
        self.reconnect_timeout = reconnect_timeout
        self.process_faults = process_faults
        self._attempts = None   # AttemptServer, built from the wire spec
        self._gate = None       # result-side NetGate
        self._digest = ""       # spec digest (survives reconnects)

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> str:
        """Dial, serve, reconnect — until released or unreachable."""
        while True:
            sock = self._connect()
            if sock is None:
                return "unreachable"
            try:
                reason = self._session(sock)
            finally:
                try:
                    sock.close()
                except OSError:
                    pass
            if reason != "lost":
                return reason
            # Connection lost: dial again with a fresh backoff budget.

    def _connect(self):
        """Dial with exponential backoff; ``None`` once the budget dies."""
        deadline = time.monotonic() + self.reconnect_timeout
        pause = self.reconnect_backoff
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=2.0
                )
            except OSError:
                if time.monotonic() >= deadline:
                    return None
                time.sleep(
                    min(pause, max(0.0, deadline - time.monotonic()))
                )
                pause = min(pause * 2, self.reconnect_cap)
                continue
            sock.settimeout(self.heartbeat_interval)
            try:
                self._send(sock, {
                    "type": "hello",
                    "name": self.name,
                    "spec_digest": self._digest,
                    "engine": (
                        self._attempts.engine
                        if self._attempts is not None else ""
                    ),
                })
            except OSError:
                sock.close()
                continue
            return sock

    # -- one connection ------------------------------------------------------

    def _session(self, sock) -> str:
        while True:
            try:
                msg, payload = read_frame(sock)
            except socket.timeout:
                try:
                    self._send(sock, {
                        "type": "hb",
                        "name": self.name,
                        "net_fired": self._fired(),
                    })
                except OSError:
                    return "lost"
                continue
            except FrameError as err:
                if err.fatal:
                    return "lost"
                # Recoverable bad frame from the server (a corrupted
                # task): drop it — the server's deadline re-serves it.
                continue
            except (ConnectionClosed, OSError):
                return "lost"
            try:
                verdict = self._handle(sock, msg, payload)
            except (ConnectionClosed, OSError):
                # The connection died under an outbound frame (e.g. the
                # server restarted while we were sending a result):
                # reconnect and let the deadline re-serve the window.
                return "lost"
            if verdict is not None:
                return verdict

    def _handle(self, sock, msg: dict, payload):
        kind = msg.get("type")
        if kind == "spec":
            worker_spec, net_specs = payload
            try:
                self._attempts = AttemptServer.from_spec(
                    worker_spec, process_faults=self.process_faults
                )
            except Exception:
                # A spec that cannot build a platform is a job-level
                # failure: report it (the server aborts the stream the
                # way a pool worker crash would) and give up.
                self._send(sock, {
                    "type": "err",
                    "name": self.name,
                    "index": None,
                }, payload=traceback.format_exc())
                return "spec_error"
            self._gate = NetGate(net_specs, side="result")
            self._gate.stamp = self._stamp
            self._digest = msg.get("digest", "")
            self._send(sock, {
                "type": "ready",
                "name": self.name,
                "engine": self._attempts.engine,
            })
        elif kind == "task":
            if self._attempts is None:
                # A task before the spec means the server thinks we are
                # warm when we are not: ask for the spec again.
                self._send(sock, {
                    "type": "hello",
                    "name": self.name,
                    "spec_digest": "",
                    "engine": "",
                })
                return None
            return self._serve_task(sock, msg, payload)
        elif kind == "fin":
            return "fin"
        # Unknown control frames are ignored: wire compatibility.
        return None

    def _serve_task(self, sock, msg: dict, payload):
        start, samples = payload
        task = Task(
            Window(msg["index"], start, samples), msg["attempt"],
            bool(msg.get("force_reference")),
        )
        try:
            verdict = self._attempts.serve(task)
        except Exception:
            # A genuine pipeline failure: ship the full traceback so
            # the server re-raises it as a PoolWorkerError that reads
            # identically to a local one.
            self._send(sock, {
                "type": "err",
                "name": self.name,
                "index": task.index,
            }, payload=traceback.format_exc())
            return None
        header = {
            "index": task.index,
            "attempt": task.attempt,
            "force_reference": task.reference,
            "net_fired": self._fired(),
        }
        if verdict[0] == "ok":
            _, result, stats_delta, _ = verdict
            action = self._send(
                sock, {"type": "result", **header},
                payload=(result, stats_delta), gated=True,
            )
        else:
            action = self._send(
                sock, {"type": "retry", **header, "kinds": list(verdict[1])},
                gated=True,
            )
        if action in ("truncated", "disconnect"):
            # The gate modeled a mid-frame (or post-frame) disconnect:
            # honour it by actually dropping the connection.
            return "lost"
        return None

    # -- plumbing ------------------------------------------------------------

    def _fired(self) -> dict:
        return dict(self._gate.counters) if self._gate is not None else {}

    def _stamp(self, msg: dict) -> None:
        # NetGate hook: refresh the cumulative fired-counter report
        # after matching (so a fault firing on this very frame is
        # already counted) but before the frame is encoded.
        msg["net_fired"] = self._fired()

    def _send(self, sock, msg: dict, payload=None,
              gated: bool = False) -> str:
        old = sock.gettimeout()
        sock.settimeout(_SEND_TIMEOUT)
        try:
            if gated and self._gate is not None and self._gate.specs:
                return self._gate.send(sock, msg, payload)
            send_frame(sock, msg, payload)
            return "sent"
        except socket.timeout as exc:
            raise OSError(f"send timed out: {exc}") from exc
        finally:
            try:
                sock.settimeout(old)
            except OSError:
                pass


def run_worker(host: str, port: int, name: str = None,
               heartbeat_interval: float = 0.5,
               reconnect_timeout: float = 60.0,
               process_faults: bool = True) -> str:
    """Module-level worker entry point (multiprocessing/CLI target)."""
    return FleetWorker(
        host, port, name=name,
        heartbeat_interval=heartbeat_interval,
        reconnect_timeout=reconnect_timeout,
        process_faults=process_faults,
    ).run()


def spawn_workers(host: str, port: int, n: int) -> list:
    """Start ``n`` fleet worker processes dialing ``host:port``.

    Each is a daemon :func:`run_worker` process named ``fleet-{i}``,
    heartbeating every 0.25 s with process faults armed, started with
    the pool's start method. Release them with :func:`reap`.
    """
    ctx = multiprocessing.get_context(_default_start_method())
    procs = []
    for i in range(n):
        proc = ctx.Process(
            target=run_worker,
            args=(host, port),
            kwargs={"name": f"fleet-{i}", "heartbeat_interval": 0.25},
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    return procs


def reap(procs) -> None:
    """Join worker processes, terminating any still alive after 5 s."""
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
