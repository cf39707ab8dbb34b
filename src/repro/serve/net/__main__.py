"""CLI entry points for the fleet transport: server, worker, smoke.

Three subcommands (see docs/distributed.md):

* ``server`` — serve a synthetic respiration stream over the fleet,
  waiting for remote workers to register::

      python -m repro.serve.net server --port 7420 --windows 8

* ``worker`` — one remote platform, dialing a server::

      python -m repro.serve.net worker --host 10.0.0.5 --port 7420

* ``smoke`` — the self-contained loopback chaos drill CI runs: a
  sequential baseline, then a fleet session with injected frame drops
  and delays plus one worker killed mid-stream, stopped halfway
  (simulating a server restart), then a second session resuming from
  the shared checkpoint — asserting the merged report is bit-identical
  to the baseline::

      python -m repro.serve.net smoke --windows 6 --json smoke.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

#: Worker exit reasons -> process exit codes (``worker`` subcommand).
_WORKER_EXIT = {"fin": 0, "unreachable": 3, "spec_error": 4}


def _add_server_args(parser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (0 picks a free one)",
    )
    parser.add_argument("--config", default="cpu_vwr2a")
    parser.add_argument(
        "--windows", type=int, default=8,
        help="synthetic stream length in application windows",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint file for resume across restarts",
    )
    parser.add_argument(
        "--every", type=int, default=4,
        help="checkpoint cadence in completed windows",
    )
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument(
        "--deadline", type=float, default=None,
        help="per-task deadline in seconds (off by default)",
    )
    parser.add_argument(
        "--heartbeat-timeout", type=float, default=None,
        help="declare a silent worker dead after this many seconds",
    )
    parser.add_argument(
        "--register-timeout", type=float, default=10.0,
        help="seconds to wait for the first worker before degrading",
    )
    parser.add_argument(
        "--no-local-fallback", action="store_true",
        help="error out instead of degrading to the local pool",
    )


def _cmd_server(args) -> int:
    from repro.app.mbiotracker import WINDOW
    from repro.app.signals import respiration_signal
    from repro.serve import StreamCheckpoint, WindowStream
    from repro.serve.net.server import FleetServer

    stream = WindowStream(
        respiration_signal(args.windows * WINDOW), window=WINDOW
    )
    checkpoint = (
        StreamCheckpoint(args.checkpoint, every=args.every)
        if args.checkpoint else None
    )
    server = FleetServer(
        config=args.config,
        host=args.host,
        port=args.port,
        max_retries=args.retries,
        task_deadline=args.deadline,
        heartbeat_timeout=args.heartbeat_timeout,
        register_timeout=args.register_timeout,
        local_fallback=not args.no_local_fallback,
    )
    host, port = server.bind()
    print(f"fleet server listening on {host}:{port} "
          f"({stream.n_windows} windows)")
    report = server.run(stream, checkpoint)
    print(report.summary())
    if report.resilience:
        print(f"resilience: {dict(sorted(report.resilience.items()))}")
    return 0 if report.n_failed == 0 else 1


def _cmd_worker(args) -> int:
    from repro.serve.net.worker import run_worker

    reason = run_worker(
        args.host, args.port,
        name=args.name,
        heartbeat_interval=args.heartbeat,
        reconnect_timeout=args.reconnect_timeout,
        process_faults=not args.no_process_faults,
    )
    print(f"worker exited: {reason}")
    return _WORKER_EXIT.get(reason, 1)


def _cmd_smoke(args) -> int:
    from repro.app.mbiotracker import WINDOW
    from repro.app.signals import respiration_signal
    from repro.faults import FaultPlan, FaultSpec
    from repro.serve import StreamCheckpoint, StreamScheduler, WindowStream
    from repro.serve.net.server import FleetServer
    from repro.serve.net.worker import reap, spawn_workers

    n = args.windows
    stream = WindowStream(respiration_signal(n * WINDOW), window=WINDOW)
    print(f"smoke: {stream.n_windows} windows, {args.workers} workers")

    t0 = time.perf_counter()
    baseline = StreamScheduler(config=args.config).run(stream)
    base_wall = time.perf_counter() - t0
    print(f"sequential baseline: {base_wall:.2f}s")

    # The chaos menu: a dropped task frame, a delayed one, a corrupted
    # result frame, and one worker killed mid-window. Recoverable by
    # design — the drill proves recovery is invisible in the results.
    plan = FaultPlan(specs=(
        FaultSpec(kind="net_drop", window=0, persist=1),
        FaultSpec(kind="net_delay", window=1 % n, persist=1, delay_ms=150),
        FaultSpec(kind="net_corrupt", window=2 % n, persist=1,
                  offset=40, xor_mask=0x10),
        FaultSpec(kind="worker_kill", window=3 % n, persist=1),
    ))

    def server_for(stop_after=None):
        return FleetServer(
            config=args.config,
            host="127.0.0.1",
            port=getattr(server_for, "port", 0),
            fault_plan=plan,
            max_retries=2,
            task_deadline=5.0,
            heartbeat_timeout=15.0,
            register_timeout=60.0,
            local_fallback=False,
            stop_after=stop_after,
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "smoke.ckpt")
        half = max(1, stream.n_windows // 2)

        # Session 1: serve half the stream, then stop — the "server
        # restart". Workers keep running and reconnect-loop.
        server = server_for(stop_after=half)
        host, port = server.bind()
        server_for.port = port  # session 2 rebinds the same port
        procs = spawn_workers(host, port, args.workers)
        try:
            t1 = time.perf_counter()
            partial = server.run(
                stream, StreamCheckpoint(path, every=1)
            )
            print(f"session 1 (stopped after {half}): "
                  f"{partial.n_windows} served in "
                  f"{time.perf_counter() - t1:.2f}s, resilience="
                  f"{dict(sorted(partial.resilience.items()))}")

            # Session 2: a fresh server on the same port resumes from
            # the checkpoint; surviving workers reconnect.
            t2 = time.perf_counter()
            report = server_for().run(
                stream, StreamCheckpoint(path, every=1)
            )
            print(f"session 2 (resumed): {report.n_windows} served in "
                  f"{time.perf_counter() - t2:.2f}s")
        finally:
            reap(procs)

    mismatch = report.identical_to(baseline, engines=False)
    complete = report.n_windows == stream.n_windows and not report.n_failed
    reconnected = report.resilience.get("net_reconnects", 0) > 0
    ok = mismatch is None and complete and reconnected
    print(f"resilience: {dict(sorted(report.resilience.items()))}")
    print("bit-identical to sequential baseline: "
          + ("yes" if mismatch is None else f"NO — {mismatch}"))
    if not reconnected:
        print("NO reconnects recorded — the restart drill proved nothing")
    print("smoke verdict: " + ("ok" if ok else "FAILED"))

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({
                "ok": ok,
                "windows": stream.n_windows,
                "workers": args.workers,
                "served": report.n_windows,
                "failed": report.n_failed,
                "bit_identical": mismatch is None,
                "mismatch": mismatch,
                "resilience": dict(report.resilience),
                "baseline_wall_seconds": base_wall,
                "faults": [
                    {"kind": s.kind, "window": s.window,
                     "persist": s.persist}
                    for s in plan.specs
                ],
            }, handle, indent=2)
        print(f"report written to {args.json}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.net",
        description="Fault-tolerant fleet serving over TCP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    server = sub.add_parser(
        "server", help="serve a synthetic stream over remote workers"
    )
    _add_server_args(server)
    server.set_defaults(func=_cmd_server)

    worker = sub.add_parser("worker", help="serve windows for a server")
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, required=True)
    worker.add_argument("--name", default=None)
    worker.add_argument("--heartbeat", type=float, default=0.5)
    worker.add_argument("--reconnect-timeout", type=float, default=60.0)
    worker.add_argument(
        "--no-process-faults", action="store_true",
        help="ignore lethal process faults in the shipped plan",
    )
    worker.set_defaults(func=_cmd_worker)

    smoke = sub.add_parser(
        "smoke",
        help="loopback chaos drill: faults + restart + resume (CI job)",
    )
    smoke.add_argument("--windows", type=int, default=6)
    smoke.add_argument("--workers", type=int, default=3)
    smoke.add_argument("--config", default="cpu_vwr2a")
    smoke.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the drill report as JSON",
    )
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
