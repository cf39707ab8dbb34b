"""Fault-tolerant distributed fleet serving over TCP.

The socket transport for the serving stack (docs/distributed.md):

* :mod:`repro.serve.net.framing` — length-prefixed, CRC32-checksummed
  JSON+pickle frames, the incremental :class:`FrameBuffer` decoder, and
  the :class:`NetGate` that injects the deterministic ``net_*`` fault
  family of :mod:`repro.faults` at this layer;
* :class:`FleetServer` — shards a window stream over remote workers
  with per-task deadlines, exponential-backoff retries, heartbeat
  liveness, idempotent at-least-once delivery and a degradation
  ladder down to local serving
  (:mod:`repro.serve.net.server`);
* :class:`FleetWorker` — the auto-reconnecting client that serves
  attempts on its own platform via the same
  :class:`~repro.serve.scheduler.AttemptServer` core pool workers use,
  with :func:`spawn_workers`/:func:`reap` starting and releasing local
  worker processes (:mod:`repro.serve.net.worker`);
* ``python -m repro.serve.net`` — ``server``/``worker`` entry points
  plus the ``smoke`` loopback chaos drill CI runs
  (:mod:`repro.serve.net.__main__`).

Deliberately not imported by :mod:`repro.serve` itself: the transport
is opt-in and the serve package stays import-light.
"""

from repro.serve.net.framing import (
    MAGIC,
    MAX_FRAME,
    ConnectionClosed,
    FrameBuffer,
    FrameError,
    NetGate,
    decode_body,
    encode_frame,
    free_port,
    read_frame,
    send_frame,
)
from repro.serve.net.server import FleetServer
from repro.serve.net.worker import (
    FleetWorker,
    reap,
    run_worker,
    spawn_workers,
)

__all__ = [
    "ConnectionClosed",
    "FleetServer",
    "FleetWorker",
    "FrameBuffer",
    "FrameError",
    "MAGIC",
    "MAX_FRAME",
    "NetGate",
    "decode_body",
    "encode_frame",
    "free_port",
    "read_frame",
    "reap",
    "run_worker",
    "send_frame",
    "spawn_workers",
]
