"""Fault-tolerant fleet serving (``repro.serve.net``).

The load-bearing property, extended one more transport out from
``tests/test_pool.py``: a :class:`FleetServer` sharding a stream over
remote :class:`FleetWorker` peers on loopback TCP produces a
:class:`StreamReport` **bit-identical** to the single-process
:class:`StreamScheduler` — under clean links, under injected network
chaos (dropped/delayed/duplicated/corrupted/truncated frames,
mid-stream disconnects), and across a server restart resumed from a
:class:`StreamCheckpoint`. Plus: the framing codec never crashes on
hostile bytes, :class:`PoolWorkerError` round-trips the wire losslessly
and remote failures read like local ones, and the degradation ladder
lands on the local pool when no workers ever register.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import signal
import socket
import threading
import time

import pytest

from repro.app import WINDOW, respiration_signal
from repro.core.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.serve import (
    PoolWorkerError,
    StreamCheckpoint,
    StreamScheduler,
    WindowStream,
)
from repro.serve.net import (
    MAX_FRAME,
    FleetServer,
    FleetWorker,
    FrameBuffer,
    FrameError,
    encode_frame,
    free_port,
    reap,
    run_worker,
    spawn_workers,
)
from repro.serve.net.framing import corrupt_frame
from repro.serve.pool import _default_start_method
from test_pool import FlakyPipeline, assert_windows_bit_identical

N_WINDOWS = 4


@pytest.fixture(scope="module")
def trace():
    return respiration_signal(N_WINDOWS * WINDOW)


@pytest.fixture(scope="module")
def stream(trace):
    return WindowStream(trace, window=WINDOW)


@pytest.fixture(scope="module")
def single(stream):
    return StreamScheduler(config="cpu_vwr2a", energy_model=True).run(stream)


def run_fleet(stream, n_workers=2, checkpoint=None, pipeline=None,
              reconnect_timeout=15.0, **kwargs):
    """One fleet session with ``n_workers`` thread-hosted workers."""
    kwargs.setdefault("register_timeout", 60.0)
    kwargs.setdefault("local_fallback", False)
    server = FleetServer(
        config="cpu_vwr2a", energy_model=True, pipeline=pipeline,
        **kwargs,
    )
    host, port = server.bind()
    threads = []
    for i in range(n_workers):
        worker = FleetWorker(
            host, port, name=f"w{i}",
            heartbeat_interval=0.2, reconnect_timeout=reconnect_timeout,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        threads.append(thread)
    try:
        return server.run(stream, checkpoint)
    finally:
        server.close()
        for thread in threads:
            thread.join(timeout=15.0)


# -- the framing codec -------------------------------------------------------


class TestFraming:
    def test_roundtrip_message_only(self):
        frame = encode_frame({"type": "hb", "name": "w0"})
        buf = FrameBuffer()
        buf.feed(frame)
        kind, msg, payload = buf.pop()
        assert kind == "frame"
        assert msg == {"type": "hb", "name": "w0"}
        assert payload is None
        assert buf.pop() is None

    def test_roundtrip_with_pickle_payload(self):
        body = {"tuple": (1, 2), "list": [3.5]}
        frame = encode_frame({"type": "result", "index": 7}, payload=body)
        buf = FrameBuffer()
        # Byte-at-a-time reassembly: the decoder is incremental.
        for i in range(len(frame)):
            buf.feed(frame[i:i + 1])
        kind, msg, payload = buf.pop()
        assert kind == "frame"
        assert msg["index"] == 7
        assert payload == body

    def test_two_frames_in_one_feed(self):
        data = encode_frame({"type": "a"}) + encode_frame({"type": "b"})
        buf = FrameBuffer()
        buf.feed(data)
        assert buf.pop()[1]["type"] == "a"
        assert buf.pop()[1]["type"] == "b"
        assert buf.pop() is None

    def test_corrupt_body_is_recoverable_bad(self):
        frame = corrupt_frame(
            encode_frame({"type": "task", "index": 3}),
            offset=4, xor_mask=0x20,
        )
        buf = FrameBuffer()
        buf.feed(frame)
        kind, err = buf.pop()
        assert kind == "bad"
        assert isinstance(err, FrameError) and not err.fatal
        # The stream stays in sync: a clean frame after decodes fine.
        buf.feed(encode_frame({"type": "hb"}))
        assert buf.pop()[0] == "frame"

    def test_bad_magic_is_fatal(self):
        buf = FrameBuffer()
        buf.feed(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(FrameError) as excinfo:
            buf.pop()
        assert excinfo.value.fatal

    def test_oversize_frame_is_fatal(self):
        frame = bytearray(encode_frame({"type": "hb"}))
        frame[4:8] = (MAX_FRAME + 1).to_bytes(4, "big")
        buf = FrameBuffer()
        buf.feed(bytes(frame))
        with pytest.raises(FrameError) as excinfo:
            buf.pop()
        assert excinfo.value.fatal

    def test_fuzz_never_crashes_the_decoder(self):
        """Seeded chaos: mangled frames only ever yield ``bad`` verdicts
        or fatal :class:`FrameError` — never an unhandled exception, and
        never a silently wrong decode (the checksum gate)."""
        rng = random.Random(2022)
        clean = encode_frame(
            {"type": "result", "index": 1, "attempt": 0},
            payload=([1.0] * 64, {"hits": 3}),
        )
        for _ in range(300):
            blob = bytearray(clean)
            mode = rng.randrange(4)
            if mode == 0:      # flip a few bytes anywhere
                for _ in range(rng.randrange(1, 4)):
                    blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            elif mode == 1:    # truncate
                del blob[rng.randrange(1, len(blob)):]
            elif mode == 2:    # duplicate a slice in place
                cut = rng.randrange(1, len(blob))
                blob = blob[:cut] + blob[:cut]
            else:              # garbage prefix
                blob = bytearray(rng.randbytes(rng.randrange(1, 32))) + blob
            buf = FrameBuffer()
            try:
                buf.feed(bytes(blob))
                while True:
                    popped = buf.pop()
                    if popped is None:
                        break
                    if popped[0] == "frame":
                        # Whatever survives the CRC gate must decode.
                        assert popped[1]["type"] == "result"
            except FrameError as err:
                assert err.fatal  # desync is the only throwing path

    def test_free_port_is_bindable(self):
        port = free_port()
        sock = socket.socket()
        sock.bind(("127.0.0.1", port))
        sock.close()


# -- error transport ---------------------------------------------------------


class TestWireErrors:
    def test_pool_worker_error_pickles_losslessly(self):
        err = PoolWorkerError("w3", 17, "Traceback ...\nBoom")
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is PoolWorkerError
        assert clone.worker_id == "w3"
        assert clone.window_index == 17
        assert clone.details == "Traceback ...\nBoom"
        assert str(clone) == str(err)

    def test_remote_failure_reads_like_local(self, stream, tmp_path):
        marker = tmp_path / "armed"
        marker.touch()
        pipeline = FlakyPipeline(
            str(marker),
            tuple(respiration_signal(N_WINDOWS * WINDOW)[
                2 * WINDOW:3 * WINDOW]),
        )
        with pytest.raises(PoolWorkerError) as excinfo:
            run_fleet(stream, n_workers=2, pipeline=pipeline,
                      reconnect_timeout=1.0)
        assert excinfo.value.window_index == 2
        assert "injected mid-stream kill" in excinfo.value.details
        assert excinfo.value.worker_id.startswith("w")


# -- clean-link bit-identity -------------------------------------------------


class TestFleetParity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_fleet_matches_single(self, stream, single, n_workers):
        report = run_fleet(stream, n_workers=n_workers)
        assert_windows_bit_identical(single, report)
        assert report.total_energy_uj == single.total_energy_uj
        assert report.n_failed == 0
        assert report.resilience == {}

    def test_namespaces_record_who_served_what(self, stream, tmp_path):
        checkpoint = StreamCheckpoint(tmp_path / "ns.ckpt", every=1)
        run_fleet(stream, n_workers=2, checkpoint=checkpoint)
        state = checkpoint.load()
        assert state.complete
        served = {
            name: ns.get("served", 0)
            for name, ns in state.namespaces.items()
        }
        assert set(served) <= {"w0", "w1"}
        assert sum(served.values()) == N_WINDOWS


# -- network chaos -----------------------------------------------------------


class TestNetworkChaos:
    def test_chaos_is_invisible_in_the_results(self, stream, single):
        """Frame drops, delays, duplicates, corruption and slow-loris
        dribbling at once; the merged report is still bit-identical and
        the recoveries show up in the counters. (Each fault keeps its
        own window so the expected counters stay deterministic —
        interleavings of e.g. disconnect+corrupt are exercised by the
        generated sweeps in ``FaultCampaign``.)"""
        plan = FaultPlan(specs=(
            FaultSpec(kind="net_drop", window=0, persist=1),
            FaultSpec(kind="net_delay", window=1, persist=1, delay_ms=120),
            FaultSpec(kind="net_dup", window=1, persist=1),
            FaultSpec(kind="net_corrupt", window=2, persist=1,
                      offset=32, xor_mask=0x08),
            FaultSpec(kind="net_slow", window=3, persist=1,
                      chunk_bytes=64, delay_ms=2),
        ))
        report = run_fleet(
            stream, n_workers=2, fault_plan=plan,
            max_retries=2, task_deadline=4.0, heartbeat_timeout=15.0,
        )
        assert_windows_bit_identical(single, report)
        assert report.n_failed == 0
        res = report.resilience
        assert res.get("retries", 0) >= 2          # drop + corrupt
        assert res.get("net_checksum_failures", 0) >= 1   # corrupt
        assert res.get("net_deadline_misses", 0) >= 1     # lost frames
        # The late duplicate of window 1 was deduplicated, not merged
        # twice: exactly one result per window survived.
        assert res.get("late_results", 0) >= 1
        assert report.n_windows == N_WINDOWS

    def test_disconnects_and_truncation_retire_and_recover(
            self, stream, single):
        """Mid-stream disconnects (task side) and truncated result
        frames (a worker dying mid-send) both cost a ladder rung and
        recover invisibly."""
        plan = FaultPlan(specs=(
            FaultSpec(kind="net_disconnect", window=1, persist=1),
            FaultSpec(kind="net_truncate", window=2, persist=1, keep=24),
        ))
        report = run_fleet(
            stream, n_workers=2, fault_plan=plan,
            max_retries=3, task_deadline=4.0, heartbeat_timeout=15.0,
        )
        assert_windows_bit_identical(single, report)
        assert report.n_failed == 0
        res = report.resilience
        assert res.get("net_disconnects", 0) >= 1
        assert res.get("retries", 0) >= 2
        assert res.get("net_reconnects", 0) >= 1

    def test_unrecoverable_drop_quarantines_not_crashes(
            self, stream, single):
        plan = FaultPlan(specs=(
            FaultSpec(kind="net_drop", window=1, persist=99),
        ))
        report = run_fleet(
            stream, n_workers=2, fault_plan=plan,
            max_retries=1, task_deadline=0.75, retry_backoff=0.05,
        )
        assert report.n_failed == 1
        (failed,) = report.failed_windows
        assert failed.index == 1
        assert "net_deadline" in failed.kinds
        assert report.resilience.get("quarantined") == 1
        # The served remainder is still bit-identical.
        assert_windows_bit_identical(
            _subset(single, {w.index for w in report.windows}), report
        )

    def test_net_faults_without_deadline_is_a_config_error(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="net_drop", window=0, persist=1),
        ))
        with pytest.raises(ConfigurationError, match="task_deadline"):
            FleetServer(fault_plan=plan)


def _subset(report, indices):
    from repro.serve import StreamReport

    out = StreamReport(
        config=report.config, engine=report.engine,
        window=report.window, hop=report.hop,
    )
    for window in report.windows:
        if window.index in indices:
            out.add_window(window)
    return out


# -- server restart + checkpoint resume --------------------------------------


def _serve_in_child(port, n_windows, path, listening):
    """Child-process server target (killed by the restart test)."""
    trace = respiration_signal(n_windows * WINDOW)
    stream = WindowStream(trace, window=WINDOW)
    server = FleetServer(
        config="cpu_vwr2a", energy_model=True, port=port,
        register_timeout=60.0, local_fallback=False,
    )
    server.bind()
    listening.set()
    server.run(stream, StreamCheckpoint(path, every=1))


#: A restarted server listens again within milliseconds. A worker that
#: has not re-registered when the resumed server finishes never gets
#: ``fin``; it gives up once this budget runs out, which bounds how long
#: the join waits for it.
_RESTART_GAP = 2.0


def _start_workers(port, n_workers):
    """Thread-hosted workers whose reconnect budget spans one restart."""
    threads = []
    for i in range(n_workers):
        worker = FleetWorker(
            "127.0.0.1", port, name=f"w{i}",
            heartbeat_interval=0.2, reconnect_timeout=_RESTART_GAP,
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        threads.append(thread)
    return threads


def _join_workers(threads):
    for thread in threads:
        thread.join(timeout=5 * _RESTART_GAP)
    assert not any(thread.is_alive() for thread in threads)


class TestServerRestart:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_stop_and_resume_is_bit_identical(
            self, stream, single, n_workers, tmp_path):
        """A server that stops mid-stream (the graceful half of a
        restart) resumes from its checkpoint to a bit-identical merge,
        with the worker reconnections on the books."""
        path = tmp_path / f"restart{n_workers}.ckpt"
        port = free_port()
        first = FleetServer(
            config="cpu_vwr2a", energy_model=True, port=port,
            register_timeout=60.0, local_fallback=False, stop_after=2,
        )
        first.bind()
        threads = _start_workers(port, n_workers)
        try:
            partial = first.run(
                stream, StreamCheckpoint(path, every=1)
            )
            second = FleetServer(
                config="cpu_vwr2a", energy_model=True, port=port,
                register_timeout=60.0, local_fallback=False,
            )
            second.bind()
            # stop_after is an at-least bound: results already in
            # flight when the threshold trips are still accepted.
            assert 2 <= partial.n_windows < N_WINDOWS
            state = StreamCheckpoint(path).load()
            assert not state.complete

            resumed = second.run(
                stream, StreamCheckpoint(path, every=1)
            )
        finally:
            _join_workers(threads)
        assert_windows_bit_identical(single, resumed)
        assert resumed.total_energy_uj == single.total_energy_uj
        assert resumed.resilience.get("net_reconnects", 0) >= 1
        assert StreamCheckpoint(path).load().complete

    def test_killed_server_resumes_from_checkpoint(
            self, stream, single, tmp_path):
        """The ungraceful half: SIGKILL the server process mid-stream;
        workers ride their reconnect loop into the replacement server
        and the merged report is still bit-identical."""
        path = str(tmp_path / "killed.ckpt")
        port = free_port()
        ctx = multiprocessing.get_context(_default_start_method())
        listening = ctx.Event()
        child = ctx.Process(
            target=_serve_in_child,
            args=(port, N_WINDOWS, path, listening), daemon=True,
        )
        child.start()
        assert listening.wait(timeout=60.0)
        threads = _start_workers(port, 2)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                state = StreamCheckpoint(path).load() \
                    if os.path.exists(path) else None
                if state is not None and state.n_done >= 1:
                    break
                if child.exitcode is not None:
                    break
                time.sleep(0.02)
            if child.is_alive():
                os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)

            server = FleetServer(
                config="cpu_vwr2a", energy_model=True, port=port,
                register_timeout=60.0, local_fallback=False,
            )
            server.bind()
            resumed = server.run(stream, StreamCheckpoint(path, every=1))
        finally:
            _join_workers(threads)
        assert_windows_bit_identical(single, resumed)
        assert StreamCheckpoint(path).load().complete


# -- the degradation ladder --------------------------------------------------


class TestDegradation:
    def test_no_workers_degrades_to_local_pool(self, stream, single):
        server = FleetServer(
            config="cpu_vwr2a", energy_model=True,
            register_timeout=0.4, local_fallback=True,
        )
        report = server.run(stream)
        assert_windows_bit_identical(single, report)
        assert report.resilience.get("local_degradations") == 1

    def test_no_workers_without_fallback_is_an_error(self, stream):
        server = FleetServer(
            register_timeout=0.3, local_fallback=False,
        )
        with pytest.raises(ConfigurationError, match="no fleet workers"):
            server.run(stream)


# -- observability -----------------------------------------------------------


class TestFleetObservability:
    def test_chaos_run_emits_only_registered_metrics(
            self, stream, single):
        """The transport's bus families are all in the docs' registry,
        and the headline robustness counters show up live."""
        from repro.obs import REGISTRY, default_bus, recording

        plan = FaultPlan(specs=(
            FaultSpec(kind="net_drop", window=1, persist=1),
            FaultSpec(kind="net_corrupt", window=2, persist=1,
                      offset=32, xor_mask=0x08),
        ))
        with recording(default_bus()) as bus:
            report = run_fleet(
                stream, n_workers=2, fault_plan=plan,
                max_retries=2, task_deadline=4.0,
            )
        snap = bus.snapshot()
        assert_windows_bit_identical(single, report)
        emitted = {key[0] for key in snap.counters}
        emitted |= {key[0] for key in snap.gauges}
        emitted |= {key[0] for key in snap.histograms}
        unregistered = emitted - set(REGISTRY)
        assert not unregistered, \
            f"undocumented metrics: {sorted(unregistered)}"
        assert snap.counter("repro_windows_served_total") == N_WINDOWS
        assert snap.counter(
            "repro_net_retries_total", reason="deadline"
        ) >= 1
        assert snap.counter(
            "repro_resilience_total", event="net_checksum_failures"
        ) >= 1
        assert sum(
            snap.counter_family("repro_net_frames_total").values()
        ) > 0


# -- worker exit reasons -----------------------------------------------------


class TestWorkerLifecycle:
    def test_unreachable_server_gives_up(self):
        port = free_port()  # nothing listens here
        reason = run_worker(
            "127.0.0.1", port, name="lost",
            reconnect_timeout=0.5, process_faults=False,
        )
        assert reason == "unreachable"

    def test_spawned_worker_processes_serve_and_are_reaped(
            self, stream, single, tmp_path):
        """The one start/stop pair of every multi-process fleet."""
        checkpoint = StreamCheckpoint(tmp_path / "spawned.ckpt", every=1)
        server = FleetServer(
            config="cpu_vwr2a", energy_model=True, register_timeout=60.0,
            local_fallback=False,
        )
        host, port = server.bind()
        procs = spawn_workers(host, port, 2)
        try:
            report = server.run(stream, checkpoint)
        finally:
            server.close()
            reap(procs)
        assert_windows_bit_identical(single, report)
        assert report.total_energy_uj == single.total_energy_uj
        assert not any(proc.is_alive() for proc in procs)
        assert set(checkpoint.load().namespaces) <= {"fleet-0", "fleet-1"}
