"""Parallel multi-instance serving (``repro.serve.pool``) + checkpoints.

The load-bearing property, extended from ``tests/test_serve.py``: a
:class:`PoolScheduler` sharding a stream across N worker processes (each
its own simulated platform) produces a :class:`StreamReport`
**bit-identical** to the single-process :class:`StreamScheduler` —
cycles, events, energy, per-engine decisions, features and labels —
including streams whose kernels trigger the reference-engine fallback
mid-stream, and runs that are killed and resumed from a
:class:`StreamCheckpoint` (with a different worker count, or across the
pool/single-process boundary). On top of that: the mergeable report
arithmetic, checkpoint persistence semantics, sweep cases served alone
on the pool and the pickling contract of the worker spec.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field

import pytest

from repro.app import WINDOW, AppParams, respiration_signal
from repro.app.mbiotracker import window_pipeline
from repro.arch import DEFAULT_SPEC
from repro.core.errors import ConfigurationError
from repro.energy import model_for
from repro.isa.rc import RCOp
from repro.kernels import KernelRunner, RunnerFactory, elementwise_kernel
from repro.serve import (
    CheckpointState,
    ParameterSweep,
    PoolScheduler,
    PoolWorkerError,
    StreamCheckpoint,
    StreamReport,
    StreamScheduler,
    SweepCase,
    WindowResult,
    WindowStream,
    serve_trace,
)
from test_serve import _conflicting_kernel

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


@pytest.fixture(scope="module")
def pooled(stream):
    return PoolScheduler(
        config="cpu_vwr2a", workers=4, energy_model=True
    ).run(stream)


def assert_windows_bit_identical(left, right):
    """Window-for-window equality of everything simulated."""
    assert [w.index for w in left.windows] == [w.index for w in right.windows]
    for a, b in zip(left.windows, right.windows):
        assert a.start == b.start
        assert a.cycles == b.cycles
        assert a.events == b.events
        assert a.energy_uj == b.energy_uj
        assert a.kernel_energy_pj == b.kernel_energy_pj
        assert a.staging_in_cycles == b.staging_in_cycles
        assert a.staging_out_cycles == b.staging_out_cycles
        assert [r.engine for r in a.launches] \
            == [r.engine for r in b.launches]
        assert [r.name for r in a.launches] == [r.name for r in b.launches]
        assert [r.cycles for r in a.launches] \
            == [r.cycles for r in b.launches]
        if hasattr(a.app, "features"):
            assert a.app.features == b.app.features
            assert a.app.label == b.app.label
            for name, step in a.app.steps.items():
                assert b.app.steps[name].cycles == step.cycles
                assert b.app.steps[name].events == step.events
        else:
            assert a.app == b.app


class TestPoolBitIdentity:
    """PoolScheduler(workers=4) == StreamScheduler, exactly."""

    def test_per_window_results_match(self, single, pooled):
        assert pooled.n_windows == N_WINDOWS
        assert_windows_bit_identical(single, pooled)

    def test_aggregates_match(self, single, pooled):
        assert pooled.total_cycles == single.total_cycles
        assert pooled.total_events == single.total_events
        assert pooled.total_energy_uj == single.total_energy_uj
        assert pooled.engine_counts == single.engine_counts
        assert pooled.fallbacks == single.fallbacks
        assert pooled.labels == single.labels
        assert pooled.overlap_saved_cycles == single.overlap_saved_cycles
        assert pooled.pipelined_total_cycles \
            == single.pipelined_total_cycles

    def test_report_shape_matches(self, single, pooled):
        assert pooled.config == single.config == "cpu_vwr2a"
        assert pooled.engine == single.engine == "auto"
        assert pooled.window == WINDOW and pooled.hop == WINDOW
        assert pooled.windows_per_second > 0
        assert "windows" in pooled.summary()

    def test_store_stats_total_worker_cold_stores(self, single, pooled):
        # Each worker pays its own cold stores and launch records; the
        # merged counters honestly total the work done, they are not
        # required to match the single-runner amortization. Encodes are
        # not counted here: fork-started workers inherit the configs'
        # encode stamps of whatever ran in the parent first, so they may
        # pay none.
        def fresh(report):
            stats = report.store_stats
            return (stats["stores"] - stats["dedup_hits"],
                    stats["analysis_misses"])

        assert pooled.store_stats["stores"] == single.store_stats["stores"]
        pooled_stores, pooled_records = fresh(pooled)
        single_stores, single_records = fresh(single)
        assert pooled_stores >= single_stores > 0
        assert pooled_records >= single_records > 0

    def test_single_worker_pool_degenerates_cleanly(self, stream, single):
        one = PoolScheduler(
            config="cpu_vwr2a", workers=1, energy_model=True
        ).run(stream)
        assert_windows_bit_identical(single, one)
        # One worker == one runner: the same stores flow through it
        # (hit/miss splits depend on process-wide structural memos the
        # forked worker inherits, so only the store count is pinned).
        assert one.store_stats["stores"] == single.store_stats["stores"]

    def test_serve_trace_workers_path(self, trace, single):
        report = serve_trace(trace, "cpu_vwr2a", workers=2)
        assert_windows_bit_identical(single, report)
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            serve_trace(
                trace, "cpu_vwr2a", workers=2, runner=KernelRunner()
            )

    def test_rejects_degenerate_pools(self, trace):
        with pytest.raises(ConfigurationError):
            PoolScheduler(workers=0)
        with pytest.raises(ConfigurationError):
            PoolScheduler(workers=2, prefetch=0)
        with pytest.raises(ConfigurationError, match="at least one"):
            serve_trace(trace, "cpu_vwr2a", workers=0)


# -- mid-stream reference-engine fallback ------------------------------------

PARITY_WINDOW = 128
N_PARITY_WINDOWS = 6


@dataclass(frozen=True)
class ParityEnginePipeline:
    """Odd-index windows launch an SPM-communicating kernel.

    The window index is read from the trace itself (``samples[0]``), so
    the behaviour is identical however the windows are sharded — the
    auto engine must fall back to the reference interpreter for exactly
    the odd windows, in every worker.
    """

    config: str = "custom"

    def __call__(self, runner, samples):
        # Stage everything the kernels read and collect only lines they
        # write: sharded pipelines must not rely on SPM state left over
        # from other windows (each worker owns a fresh platform).
        index = samples[0]
        line_words = runner.soc.params.line_words
        runner.stage_in(samples, 0)
        runner.stage_in(samples, line_words)
        if index % 2:
            config = _conflicting_kernel()
            out_line = 3  # column 1's copy of the communicated line
        else:
            config = elementwise_kernel(
                runner.soc.params, RCOp.SADD, PARITY_WINDOW,
                a_line=0, b_line=1, c_line=4, name="pool_vadd",
            )
            out_line = 4
        result = runner.execute(config)
        out, _ = runner.stage_out(out_line * line_words, line_words)
        # Probe one word per RC slice: the conflicting kernel writes a
        # single element per RC, the rest of its line is stale SPM.
        slice_words = runner.soc.params.slice_words
        probe = tuple(out[i * slice_words] for i in range(4))
        return {"probe": probe, "kernel": result.name}


@pytest.fixture(scope="module")
def parity_stream():
    trace = respiration_signal(N_PARITY_WINDOWS * PARITY_WINDOW)
    trace = list(trace)
    for i in range(N_PARITY_WINDOWS):
        trace[i * PARITY_WINDOW] = i  # stamp the window index
    return WindowStream(trace, window=PARITY_WINDOW)


class TestFallbackMidStream:
    def test_pool_matches_single_with_mixed_engines(self, parity_stream):
        single = StreamScheduler(pipeline=ParityEnginePipeline()) \
            .run(parity_stream)
        pooled = PoolScheduler(
            pipeline=ParityEnginePipeline(), workers=4
        ).run(parity_stream)
        assert_windows_bit_identical(single, pooled)
        counts = pooled.engine_counts
        assert counts["reference"] == N_PARITY_WINDOWS // 2
        assert counts["compiled"] \
            == N_PARITY_WINDOWS - counts["reference"]
        for win in pooled.windows:
            engines = {r.engine for r in win.launches}
            assert engines == \
                ({"reference"} if win.index % 2 else {"compiled"})
        assert pooled.fallbacks == single.fallbacks
        window_index, kernel, reason = pooled.fallbacks[0]
        assert window_index == 1
        assert kernel == "serve_prodcons"
        assert "column 0" in reason and "column 1" in reason


# -- checkpointing -----------------------------------------------------------


@dataclass(frozen=True)
class FlakyPipeline:
    """Delegates to the application pipeline; injects one failure.

    Raises on the window whose samples match ``fail_samples`` while the
    ``marker`` file exists — the test's stand-in for a mid-run kill that
    is deterministic under any sharding. Removing the marker "restarts
    the host" and lets the resume complete.
    """

    marker: str
    fail_samples: tuple
    inner: object = field(default_factory=lambda: window_pipeline("cpu_vwr2a"))

    @property
    def config(self):
        return self.inner.config

    def __call__(self, runner, samples):
        if tuple(samples) == self.fail_samples and os.path.exists(self.marker):
            raise RuntimeError("injected mid-stream kill")
        return self.inner(runner, samples)


class TestCheckpointResume:
    @pytest.fixture()
    def flaky(self, trace, tmp_path):
        marker = tmp_path / "armed"
        marker.touch()
        fail_samples = tuple(trace[2 * WINDOW:3 * WINDOW])
        return FlakyPipeline(str(marker), fail_samples), marker

    def test_kill_and_resume_is_bit_identical(
            self, stream, single, flaky, tmp_path):
        pipeline, marker = flaky
        path = tmp_path / "stream.ckpt"
        checkpoint = StreamCheckpoint(path, every=1)
        with pytest.raises(PoolWorkerError) as excinfo:
            PoolScheduler(pipeline=pipeline, workers=2,
                          energy_model=True).run(stream, checkpoint)
        assert excinfo.value.window_index == 2
        assert "injected mid-stream kill" in excinfo.value.details

        # The abort flushed every completed window to disk.
        state = checkpoint.load()
        assert 2 not in state.results
        assert 0 < state.n_done < N_WINDOWS
        assert not state.complete

        marker.unlink()  # "restart the host"
        resumed = PoolScheduler(
            pipeline=pipeline, workers=3, energy_model=True,  # other N
        ).run(stream, StreamCheckpoint(path, every=1))
        assert_windows_bit_identical(single, resumed)
        assert resumed.total_energy_uj == single.total_energy_uj
        # The final checkpoint now holds the complete stream...
        assert checkpoint.load().complete
        # ...so a further resume rebuilds the report with no serving.
        replay = PoolScheduler(pipeline=pipeline, workers=2,
                               energy_model=True) \
            .run(stream, StreamCheckpoint(path))
        assert_windows_bit_identical(single, replay)

    def test_single_process_resumes_a_pool_checkpoint(
            self, stream, single, flaky, tmp_path):
        pipeline, marker = flaky
        path = tmp_path / "cross.ckpt"
        with pytest.raises(PoolWorkerError):
            PoolScheduler(pipeline=pipeline, workers=2,
                          energy_model=True).run(
                stream, StreamCheckpoint(path, every=1))
        marker.unlink()
        resumed = StreamScheduler(pipeline=pipeline, energy_model=True) \
            .run(stream, checkpoint=StreamCheckpoint(path, every=1))
        assert_windows_bit_identical(single, resumed)

    def test_stream_scheduler_checkpoints_and_resumes(
            self, stream, single, flaky, tmp_path):
        pipeline, marker = flaky
        path = tmp_path / "single.ckpt"
        with pytest.raises(RuntimeError, match="injected"):
            # Cadence far beyond the stream: only the failure-path
            # flush can have written the file.
            StreamScheduler(pipeline=pipeline, energy_model=True).run(
                stream, checkpoint=StreamCheckpoint(path, every=100))
        state = StreamCheckpoint(path).load()
        assert sorted(state.results) == [0, 1]  # sequential cursor
        marker.unlink()
        resumed = PoolScheduler(pipeline=pipeline, workers=2,
                                energy_model=True) \
            .run(stream, StreamCheckpoint(path, every=1))
        assert_windows_bit_identical(single, resumed)

    def test_fingerprint_mismatch_refuses_to_resume(self, stream, tmp_path):
        path = tmp_path / "wrong.ckpt"
        StreamScheduler(config="cpu_vwr2a").run(
            WindowStream(respiration_signal(WINDOW), window=WINDOW),
            checkpoint=StreamCheckpoint(path),
        )
        with pytest.raises(ConfigurationError, match="different stream"):
            PoolScheduler(config="cpu_vwr2a", workers=2).run(
                stream, StreamCheckpoint(path))

    def test_energy_setting_is_part_of_the_fingerprint(self, tmp_path):
        # Resuming an energy-modeled run with energy off would mix
        # windows with and without energy_uj — refused up front.
        path = tmp_path / "energy.ckpt"
        short = WindowStream(respiration_signal(WINDOW), window=WINDOW)
        StreamScheduler(config="cpu_vwr2a", energy_model=True).run(
            short, checkpoint=StreamCheckpoint(path))
        with pytest.raises(ConfigurationError, match="energy"):
            StreamScheduler(config="cpu_vwr2a", energy_model=None).run(
                short, checkpoint=StreamCheckpoint(path))
        # The True sentinel and a default_model() instance are the same
        # setting: pool- and single-written checkpoints interchange.
        PoolScheduler(config="cpu_vwr2a", workers=2, energy_model=True) \
            .run(short, StreamCheckpoint(path))

    @pytest.mark.parametrize("version", [1, 3, 4])
    def test_stale_format_version_refuses_to_resume(self, tmp_path, version):
        # v3 windows folded kernel energy from compiled block histograms
        # only: resuming one would mix two attributions in one report;
        # v4 fingerprints still carry the retired staging-policy key.
        path = tmp_path / "stale.ckpt"
        checkpoint = StreamCheckpoint(path, every=1)
        checkpoint.mark(CheckpointState(
            fingerprint={"version": version, "n_windows": 9}
        ))
        with pytest.raises(ConfigurationError,
                           match=f"format version {version}"):
            checkpoint.load()

    def test_checkpoint_cadence_and_clear(self, tmp_path):
        path = tmp_path / "cadence.ckpt"
        checkpoint = StreamCheckpoint(path, every=3)
        state = CheckpointState(fingerprint={"version": 1, "n_windows": 9})
        assert checkpoint.load() is None
        assert not checkpoint.mark(state)
        assert not checkpoint.mark(state)
        assert not path.exists()
        assert checkpoint.mark(state)  # third mark flushes
        assert path.exists()
        checkpoint.clear()
        assert not path.exists()
        with pytest.raises(ConfigurationError):
            StreamCheckpoint(path, every=0)


class TestMergeArithmetic:
    def _report(self, indices):
        report = StreamReport(
            config="c", engine="auto", window=4, hop=4,
        )
        for index in indices:
            report.add_window(WindowResult(
                index=index, start=4 * index, app=None, cycles=10 + index,
                events={"column.cycle": index}, launches=(),
                staging_in_cycles=1, staging_out_cycles=1,
            ))
        return report

    def test_add_window_keeps_index_order(self):
        report = self._report([3, 0, 2, 1])
        assert [w.index for w in report.windows] == [0, 1, 2, 3]
        with pytest.raises(ConfigurationError, match="already"):
            report.add_window(report.windows[0])

    def test_merge_interleaves_and_sums(self):
        left = self._report([0, 2])
        left.store_stats = {"stores": 2}
        left.wall_seconds = 1.0
        right = self._report([1, 3])
        right.store_stats = {"stores": 3, "dedup_hits": 1}
        right.wall_seconds = 0.5
        left.merge(right)
        assert [w.index for w in left.windows] == [0, 1, 2, 3]
        assert left.store_stats == {"stores": 5, "dedup_hits": 1}
        assert left.wall_seconds == 1.5
        assert left.total_events == {"column.cycle": 6}

    def test_merge_rejects_mismatched_streams(self):
        left = self._report([0])
        other = self._report([1])
        other.window = 8
        with pytest.raises(ConfigurationError, match="window"):
            left.merge(other)


# -- worker construction and pickling ---------------------------------------


@dataclass(frozen=True)
class TinyPipeline:
    """A kernel-free pipeline cheap enough for spawn-method tests."""

    config: str = "tiny"

    def __call__(self, runner, samples):
        runner.soc.run_cpu(10)
        return sum(samples)


class BareReferenceFactory:
    """A runner factory with no ``engine`` attribute (probe path)."""

    def __call__(self):
        return KernelRunner(engine="reference")


class ExplodingTrace(list):
    """A lazy-trace stand-in whose slicing fails past window 1."""

    def __getitem__(self, key):
        if isinstance(key, slice) and (key.start or 0) >= 16:
            raise OSError("simulated I/O error reading the trace")
        return super().__getitem__(key)


class TestWorkerPlumbing:
    def test_spawn_start_method_round_trips(self):
        # Spawn pickles the spec end-to-end (fork only inherits), so this
        # proves the worker-side construction path is import-clean.
        stream = WindowStream(list(range(16)), window=8)
        report = PoolScheduler(
            pipeline=TinyPipeline(), workers=2, start_method="spawn",
        ).run(stream)
        assert [w.app for w in report.windows] == [28, 92]
        assert report.engine == "auto"

    def test_feeder_failure_raises_instead_of_hanging(self):
        # Lazy traces can fail mid-stream (I/O); the feeder must still
        # deliver worker sentinels and surface the error as a
        # PoolWorkerError rather than deadlocking the run.
        stream = WindowStream(ExplodingTrace(range(32)), window=8)
        with pytest.raises(PoolWorkerError, match="trace slicing"):
            PoolScheduler(pipeline=TinyPipeline(), workers=2).run(stream)

    def test_unpicklable_pipeline_is_rejected_early(self):
        stream = WindowStream(list(range(8)), window=4)
        unpicklable = lambda runner, samples: 0  # noqa: E731
        with pytest.raises(ConfigurationError, match="does not pickle"):
            PoolScheduler(pipeline=unpicklable, workers=2).run(stream)

    def test_runner_factory_builds_engine_specific_runners(self):
        factory = RunnerFactory(engine="reference")
        runner = pickle.loads(pickle.dumps(factory))()
        assert runner.soc.vwr2a.engine == "reference"
        assert PoolScheduler(
            pipeline=TinyPipeline(), runner_factory=factory,
        ).engine == "reference"

    def test_bare_factory_engine_is_probed_not_guessed(self):
        # A custom factory without an `engine` attribute: the pool
        # builds one throwaway runner to read the real engine, so
        # fingerprints and reports never record a wrong "auto".
        pool = PoolScheduler(
            pipeline=TinyPipeline(), runner_factory=BareReferenceFactory(),
        )
        assert pool.engine == "reference"

    def test_float_traces_fingerprint_distinctly(self):
        from repro.serve.checkpoint import stream_fingerprint

        ints = WindowStream([1, 2, 3, 4], window=2)
        floats = WindowStream([1.4, 2.4, 3.4, 4.4], window=2)
        assert stream_fingerprint(ints, "c", "auto")["trace_sha256"] \
            != stream_fingerprint(floats, "c", "auto")["trace_sha256"]

    def test_custom_pipeline_parameters_pin_the_fingerprint(self):
        # Same non-dataclass pipeline class, different instance
        # attributes: must describe differently, or a resume could mix
        # windows computed under two parameterizations.
        from repro.serve.checkpoint import describe

        class Custom:
            def __init__(self, threshold):
                self.threshold = threshold

        assert describe(Custom(1)) != describe(Custom(2))
        assert describe(Custom(1)) == describe(Custom(1))

    def test_closure_parameters_pin_the_fingerprint(self):
        from repro.serve.checkpoint import describe

        def make(threshold):
            def pipeline(runner, samples):
                return threshold
            return pipeline

        assert describe(make(5)) != describe(make(7))
        assert describe(make(5)) == describe(make(5))

    def test_host_interrupt_flushes_the_checkpoint(self, tmp_path):
        # Ctrl-C on the host between cadence flushes must not discard
        # completed windows: the pool flushes before propagating.
        class InterruptingCheckpoint(StreamCheckpoint):
            def mark(self, state):
                if state.n_done >= 2:
                    raise KeyboardInterrupt
                return super().mark(state)

        path = tmp_path / "interrupt.ckpt"
        stream = WindowStream(list(range(64)), window=8)
        with pytest.raises(KeyboardInterrupt):
            PoolScheduler(pipeline=TinyPipeline(), workers=2).run(
                stream, InterruptingCheckpoint(path, every=100))
        state = StreamCheckpoint(path).load()
        assert state.n_done >= 2  # completed windows survived the ^C
        resumed = PoolScheduler(pipeline=TinyPipeline(), workers=2).run(
            stream, StreamCheckpoint(path, every=100))
        assert [w.app for w in resumed.windows] == [
            sum(range(i * 8, (i + 1) * 8)) for i in range(8)
        ]

    def test_warm_hook_leaves_no_trace(self):
        runner = KernelRunner()
        log = []
        runner.launch_log = log
        pipeline = window_pipeline("cpu_vwr2a")
        samples = respiration_signal(WINDOW)
        runner.warm(pipeline, samples)
        assert log == []  # launches invisible to per-window reports
        assert runner._sram_next == 0  # staging rewound
        stats = runner.soc.vwr2a.config_mem.stats
        assert stats.stores > 0  # the window's kernels are held
        # A warmed worker serves the window with zero new encodes.
        before = stats.snapshot()
        StreamScheduler(pipeline=pipeline, runner=runner).run(
            WindowStream(samples, window=WINDOW))
        assert stats.since(before)["encode_misses"] == 0

    def test_warmed_pool_is_still_bit_identical(self, stream, single):
        warmed = PoolScheduler(
            config="cpu_vwr2a", workers=2, energy_model=True, warm=True,
        ).run(stream)
        assert_windows_bit_identical(single, warmed)


class TestSweepCaseOnPool:
    def test_sweep_cases_match_pool_served_alone(self, trace):
        """Each case of a shared-runner sweep equals the same case served
        alone by the process pool on its own design point."""
        cases = [
            SweepCase(name="paper", config="cpu_vwr2a"),
            SweepCase(name="short_fir", config="cpu_vwr2a",
                      params=AppParams(fir_taps=7)),
            SweepCase(name="narrow", config="cpu_vwr2a",
                      arch=DEFAULT_SPEC.vary("narrow", vwr_words=64)),
        ]
        two_windows = trace[:2 * WINDOW]
        sweep = ParameterSweep(cases=cases).run(two_windows)
        assert sweep.cases == [case.name for case in cases]
        for case in cases:
            alone = PoolScheduler(
                config=case.config, workers=2, params=case.params,
                energy_model=(
                    True if case.arch is None else model_for(case.arch)
                ),
                runner_factory=RunnerFactory(spec=case.arch),
            ).run(WindowStream(two_windows, window=WINDOW))
            assert_windows_bit_identical(sweep[case.name], alone)
            assert alone.total_energy_uj == sweep[case.name].total_energy_uj


def test_energy_model_false_means_off_on_every_scheduler(trace, tmp_path):
    """``energy_model=False`` is ``None`` under another spelling: no
    energy, the same windows, and the same checkpoint fingerprint."""
    one_window = trace[:WINDOW]
    stream = WindowStream(one_window, window=WINDOW)
    path = str(tmp_path / "off.ckpt")
    off = StreamScheduler(energy_model=None).run(stream, checkpoint=path)
    assert off.total_energy_uj is None
    reports = [
        serve_trace(one_window, energy_model=False),
        ParameterSweep(["cpu_vwr2a"], energy_model=False)
        .run(one_window)["cpu_vwr2a"],
        PoolScheduler(workers=1, energy_model=False).run(stream),
        # A resume may spell "off" either way.
        StreamScheduler(energy_model=False).run(stream, checkpoint=path),
    ]
    for report in reports:
        assert report.total_energy_uj is None
        assert_windows_bit_identical(off, report)
