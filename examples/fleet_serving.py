"""Fault-tolerant fleet serving: chaos, a server restart, and a resume.

Serves one respiration trace through the full MBioTracker ``cpu_vwr2a``
pipeline three ways — a sequential :class:`StreamScheduler` baseline, a
clean loopback TCP fleet, and a fleet under injected network chaos that
is stopped mid-stream and resumed from its checkpoint by a second
server — and shows that every merged report is **bit-identical** to
the baseline, with the recoveries visible only in the resilience
counters.

Workers run as real processes (``multiprocessing``) dialing loopback
TCP, exactly like a production fleet minus the distance.

Run with: ``PYTHONPATH=src python examples/fleet_serving.py``
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.app import WINDOW, respiration_signal
from repro.faults import FaultPlan, FaultSpec
from repro.serve import StreamCheckpoint, StreamScheduler, WindowStream
from repro.serve.net import FleetServer, reap, spawn_workers

N_WINDOWS = 6
WORKERS = 2


def main() -> None:
    trace = respiration_signal(N_WINDOWS * WINDOW)
    stream = WindowStream(trace, window=WINDOW)

    print(f"== sequential baseline ({N_WINDOWS} windows) ==")
    start = time.perf_counter()
    baseline = StreamScheduler(config="cpu_vwr2a").run(stream)
    print(f"{baseline.summary()}")
    print(f"wall: {time.perf_counter() - start:.2f}s")

    print(f"\n== clean fleet: {WORKERS} worker processes on loopback ==")
    server = FleetServer(config="cpu_vwr2a", local_fallback=False,
                         register_timeout=60.0)
    host, port = server.bind()
    procs = spawn_workers(host, port, WORKERS)
    try:
        clean = server.run(stream)
    finally:
        reap(procs)
    assert clean.identical_to(baseline, engines=False) is None
    print("fleet report is bit-identical to the baseline")

    print("\n== chaos + mid-stream server stop + checkpoint resume ==")
    plan = FaultPlan(specs=(
        FaultSpec(kind="net_drop", window=0, persist=1),
        FaultSpec(kind="net_corrupt", window=2, persist=1,
                  offset=32, xor_mask=0x08),
    ))

    def chaos_server(stop_after=None, port=0):
        return FleetServer(
            config="cpu_vwr2a", port=port, fault_plan=plan,
            max_retries=2, task_deadline=4.0, heartbeat_timeout=15.0,
            register_timeout=60.0, local_fallback=False,
            stop_after=stop_after,
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fleet.ckpt")
        first = chaos_server(stop_after=N_WINDOWS // 2)
        host, port = first.bind()
        procs = spawn_workers(host, port, WORKERS)
        try:
            partial = first.run(stream, StreamCheckpoint(path, every=1))
            print(f"session 1 stopped early: {partial.n_windows} of "
                  f"{N_WINDOWS} windows on disk")

            # A second server on the same port: the workers' reconnect
            # loop finds it and the checkpoint supplies the history.
            resumed = chaos_server(port=port).run(
                stream, StreamCheckpoint(path, every=1)
            )
        finally:
            reap(procs)

    assert resumed.identical_to(baseline, engines=False) is None
    assert resumed.n_windows == N_WINDOWS
    print(f"session 2 resumed to completion: {resumed.n_windows} windows")
    print(f"resilience: {dict(sorted(resumed.resilience.items()))}")
    print("chaos + restart were invisible in the results — "
          "bit-identical to the baseline")


if __name__ == "__main__":
    main()
