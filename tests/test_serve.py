"""The batched window-stream serving subsystem (``repro.serve``).

The load-bearing property: serving a long trace through the stream
scheduler — store-once kernel caching, one rewound SRAM staging region
— is **bit-identical** per window (cycles, events, features,
labels) to the historical sequential ``run_application`` loop, including
streams whose kernels trigger the reference-engine fallback mid-stream.
On top of that: window slicing semantics, SRAM staging regions, sweep
amortization, and the report aggregates.
"""

from __future__ import annotations

import pytest

from repro.app import (
    WINDOW,
    AppParams,
    respiration_signal,
    run_application,
)
from repro.asm.builder import ProgramBuilder
from repro.core.errors import ConfigurationError
from repro.isa.fields import DST_VWR_B, VWR_A, Vwr, imm
from repro.isa.lcu import addi, blt, seti
from repro.isa.lsu import ld_vwr, st_vwr
from repro.isa.program import KernelConfig
from repro.isa.rc import RCOp, rc
from repro.kernels import KernelRunner, elementwise_kernel
from repro.serve import (
    ParameterSweep,
    StreamScheduler,
    SweepCase,
    WindowStream,
    serve_trace,
)

N_STREAM_WINDOWS = 3


@pytest.fixture(scope="module")
def trace():
    return respiration_signal(N_STREAM_WINDOWS * WINDOW)


@pytest.fixture(scope="module")
def sequential(trace):
    """The historical flow: one runner, a plain run_application loop."""
    runner = KernelRunner()
    windows = []
    for i in range(N_STREAM_WINDOWS):
        samples = trace[i * WINDOW:(i + 1) * WINDOW]
        before = runner.soc.events.snapshot()
        app = run_application(samples, "cpu_vwr2a", runner)
        windows.append({
            "app": app,
            "events": runner.soc.events.diff(before),
        })
    return windows


@pytest.fixture(scope="module")
def streamed(trace):
    return serve_trace(trace, "cpu_vwr2a")


class TestWindowStream:
    def test_back_to_back_slicing(self):
        stream = WindowStream(list(range(10)), window=4)
        assert len(stream) == 2
        windows = list(stream)
        assert [w.samples for w in windows] == [(0, 1, 2, 3), (4, 5, 6, 7)]
        assert [(w.index, w.start) for w in windows] == [(0, 0), (1, 4)]

    def test_overlapping_hop(self):
        stream = WindowStream(list(range(8)), window=4, hop=2)
        assert [w.start for w in stream] == [0, 2, 4]
        assert stream[1].samples == (2, 3, 4, 5)

    def test_tail_pad_serves_every_sample(self):
        stream = WindowStream(list(range(6)), window=4, tail="pad")
        windows = list(stream)
        assert [w.samples for w in windows] == \
            [(0, 1, 2, 3), (4, 5, 0, 0)]

    def test_short_trace_drops_or_pads(self):
        assert len(WindowStream([1, 2], window=4)) == 0
        padded = WindowStream([1, 2], window=4, tail="pad")
        assert [w.samples for w in padded] == [(1, 2, 0, 0)]
        assert len(WindowStream([], window=4, tail="pad")) == 0

    def test_is_reiterable_and_indexable(self):
        stream = WindowStream(list(range(12)), window=4)
        assert list(stream) == list(stream)
        assert stream[-1].start == 8
        with pytest.raises(IndexError):
            stream[3]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            WindowStream([1], window=0)
        with pytest.raises(ConfigurationError):
            WindowStream([1], window=4, hop=0)
        with pytest.raises(ConfigurationError):
            WindowStream([1], window=4, tail="wrap")

    def test_empty_trace_yields_no_windows(self):
        for tail in ("drop", "pad"):
            stream = WindowStream([], window=4, tail=tail)
            assert len(stream) == 0
            assert list(stream) == []
            with pytest.raises(IndexError):
                stream[0]

    def test_window_longer_than_trace(self):
        # "drop" ends before the first window; "pad" serves one padded.
        assert list(WindowStream([7, 8, 9], window=8)) == []
        padded = WindowStream([7, 8, 9], window=8, tail="pad")
        assert [w.samples for w in padded] == [(7, 8, 9, 0, 0, 0, 0, 0)]
        assert padded[0].start == 0

    def test_overlap_of_a_full_window_or_more_raises(self):
        # overlap = window - hop; overlap >= window means hop <= 0,
        # i.e. a stream that never advances — rejected outright.
        for overlap in (4, 5, 9):
            with pytest.raises(ConfigurationError, match="hop"):
                WindowStream(list(range(16)), window=4, hop=4 - overlap)

    def test_reiteration_after_partial_consumption(self):
        stream = WindowStream(list(range(16)), window=4)
        first = iter(stream)
        consumed = [next(first), next(first)]
        assert [w.index for w in consumed] == [0, 1]
        # A fresh iteration restarts from window 0, unaffected by the
        # half-consumed iterator (and that iterator keeps its cursor).
        assert [w.index for w in stream] == [0, 1, 2, 3]
        assert next(first).index == 2
        assert [w.samples for w in stream] == [w.samples for w in stream]


class TestStreamBitIdentity:
    """Streamed serving == the sequential run_application loop, exactly."""

    def test_cycles_and_steps_match(self, sequential, streamed):
        assert streamed.n_windows == N_STREAM_WINDOWS
        for seq, win in zip(sequential, streamed.windows):
            assert win.cycles == seq["app"].total_cycles
            assert win.app.total_cycles == seq["app"].total_cycles
            for name, step in seq["app"].steps.items():
                assert win.app.steps[name].cycles == step.cycles
                assert win.app.steps[name].cpu_active == step.cpu_active
                assert win.app.steps[name].cpu_sleep == step.cpu_sleep

    def test_events_match(self, sequential, streamed):
        for seq, win in zip(sequential, streamed.windows):
            assert win.events == seq["events"]

    def test_features_and_labels_match(self, sequential, streamed):
        for seq, win in zip(sequential, streamed.windows):
            assert win.app.features == seq["app"].features
            assert win.app.label == seq["app"].label
        assert streamed.labels == [s["app"].label for s in sequential]

    def test_every_launch_stayed_compiled(self, streamed):
        # All seed application kernels are proven conflict-free.
        assert set(streamed.engine_counts) == {"compiled"}
        assert streamed.fallbacks == ()
        for win in streamed.windows:
            assert win.launches
            assert all(r.engine == "compiled" for r in win.launches)

    def test_store_cache_amortizes_after_first_window(self, streamed):
        stats = streamed.store_stats
        assert stats["dedup_hits"] > 0
        # Warm windows re-store structurally identical kernels: every
        # encode miss belongs to the cold first window.
        assert stats["encode_misses"] <= stats["stores"] / N_STREAM_WINDOWS

    def test_staging_overlap_estimate(self, streamed):
        assert streamed.overlap_saved_cycles > 0
        assert streamed.pipelined_total_cycles \
            == streamed.total_cycles - streamed.overlap_saved_cycles
        for win in streamed.windows:
            assert win.staging_in_cycles > 0
            assert win.staging_out_cycles > 0

    def test_aggregates_are_sums(self, streamed):
        assert streamed.total_cycles == \
            sum(w.cycles for w in streamed.windows)
        total = streamed.total_events
        for name in ("column.cycle", "dma.beat", "sram.read"):
            assert total[name] == \
                sum(w.events.get(name, 0) for w in streamed.windows)
        assert streamed.total_energy_uj > 0
        assert streamed.windows_per_second > 0
        assert "windows" in streamed.summary()

    def test_energy_skipped_when_unmodeled(self, trace):
        report = serve_trace(
            trace[:WINDOW], "cpu_vwr2a", energy_model=None
        )
        assert report.windows[0].energy_uj is None
        assert report.total_energy_uj is None
        assert report.windows[0].kernel_energy_pj is None
        assert report.energy_by_kernel == {}

    def test_per_kernel_energy_attribution(self, streamed):
        # Every launch folds its own event delta; the per-window map must
        # equal folding the launches directly, and the stream aggregate
        # must sum windows.
        from repro.energy import default_model

        model = default_model()
        for win in streamed.windows:
            assert win.kernel_energy_pj
            expected = {}
            for result in win.launches:
                folded = model.fold_histogram(((result.events, 1),)).total_pj
                expected[result.name] = \
                    expected.get(result.name, 0.0) + folded
            assert win.kernel_energy_pj == expected
        aggregate = streamed.energy_by_kernel
        assert set(aggregate) == {
            name for w in streamed.windows for name in w.kernel_energy_pj
        }
        for name, pj in aggregate.items():
            assert pj == pytest.approx(sum(
                w.kernel_energy_pj.get(name, 0.0)
                for w in streamed.windows
            ))
        # Attribution covers datapath events only — it must stay below
        # the full window energy model (which adds leakage, DMA, CPU).
        total_uj = sum(aggregate.values()) * 1e-6
        assert 0 < total_uj < streamed.total_energy_uj

    def test_energy_follows_the_pipeline_config(self, trace):
        # A pipeline declaring its configuration wins over the scheduler
        # default, so a cpu-only window is never charged VWR2A leakage.
        from repro.app import window_pipeline

        stream = WindowStream(trace[:WINDOW], window=WINDOW)
        via_pipeline = StreamScheduler(
            pipeline=window_pipeline("cpu"), energy_model=True,
        ).run(stream)
        assert via_pipeline.config == "cpu"
        direct = StreamScheduler(config="cpu", energy_model=True) \
            .run(stream)
        assert via_pipeline.windows[0].energy_uj \
            == pytest.approx(direct.windows[0].energy_uj)


def _conflicting_kernel() -> KernelConfig:
    """Column 0 writes SPM line 2 that column 1 reads mid-kernel."""
    b0 = ProgramBuilder(n_rcs=4)
    b0.srf(0, 0)
    b0.srf(1, 2)
    b0.emit(lsu=ld_vwr(Vwr.A, 0))
    b0.emit(rcs=[rc(RCOp.SADD, DST_VWR_B, VWR_A, imm(1))] * 4)
    b0.emit(lsu=st_vwr(Vwr.B, 1))
    b0.exit()
    b1 = ProgramBuilder(n_rcs=4)
    b1.srf(0, 2)
    b1.srf(1, 3)
    b1.emit(lcu=seti(0, 0))
    b1.label("wait")
    b1.emit(lcu=addi(0, 1))
    b1.emit(lcu=blt(0, 20, "wait"))
    b1.emit(lsu=ld_vwr(Vwr.A, 0))
    b1.emit(lsu=st_vwr(Vwr.A, 1))
    b1.exit()
    return KernelConfig(
        name="serve_prodcons", columns={0: b0.build(), 1: b1.build()}
    )


class _MixedEnginePipeline:
    """Custom served pipeline: every odd window launches a kernel whose
    columns communicate through the SPM — the auto engine must fall back
    to the reference interpreter for exactly those windows."""

    def __init__(self):
        self.calls = 0

    def __call__(self, runner, samples):
        index = self.calls
        self.calls += 1
        runner.stage_in(samples[:128], 0)
        if index % 2:
            config = _conflicting_kernel()
        else:
            config = elementwise_kernel(
                runner.soc.params, RCOp.SADD, 128,
                a_line=0, b_line=1, c_line=4, name="serve_vadd",
            )
        result = runner.execute(config)
        out, _ = runner.stage_out(4 * 128, 32)
        return {"head": out[:4], "kernel": result.name}


class TestFallbackMidStream:
    def test_auto_engine_mixes_mid_stream(self, trace):
        scheduler = StreamScheduler(
            pipeline=_MixedEnginePipeline(), config="custom",
        )
        report = scheduler.run(WindowStream(trace, window=WINDOW))
        assert report.n_windows == N_STREAM_WINDOWS
        counts = report.engine_counts
        assert counts["reference"] == N_STREAM_WINDOWS // 2
        assert counts["compiled"] == N_STREAM_WINDOWS - counts["reference"]
        for win in report.windows:
            engines = {r.engine for r in win.launches}
            assert engines == \
                ({"reference"} if win.index % 2 else {"compiled"})
        # Fallbacks name the window, the kernel and the conflict.
        assert report.fallbacks
        window_index, kernel, reason = report.fallbacks[0]
        assert window_index == 1
        assert kernel == "serve_prodcons"
        assert "column 0" in reason and "column 1" in reason
        # The engine's own lifetime tally agrees with the launch log.
        assert scheduler.runner.soc.vwr2a.engine_decisions == counts
        # Custom pipelines carry no application steps: no label/energy.
        assert report.labels == [None] * N_STREAM_WINDOWS

    def test_mixed_stream_is_bit_identical_to_manual_loop(self, trace):
        manual_runner = KernelRunner()
        manual_pipeline = _MixedEnginePipeline()
        manual = []
        for i in range(N_STREAM_WINDOWS):
            manual_runner.reset_sram()
            before = manual_runner.soc.events.snapshot()
            cpu = manual_runner.soc.cpu
            cycles0 = cpu.active_cycles + cpu.sleep_cycles
            out = manual_pipeline(
                manual_runner, tuple(trace[i * WINDOW:(i + 1) * WINDOW])
            )
            manual.append({
                "out": out,
                "cycles": cpu.active_cycles + cpu.sleep_cycles - cycles0,
                "events": manual_runner.soc.events.diff(before),
            })

        report = StreamScheduler(
            pipeline=_MixedEnginePipeline(), config="custom",
        ).run(WindowStream(trace, window=WINDOW))
        for ref, win in zip(manual, report.windows):
            assert win.app == ref["out"]
            assert win.cycles == ref["cycles"]
            assert win.events == ref["events"]


class TestStagingRegions:
    def test_region_constrains_allocator(self):
        runner = KernelRunner()
        runner.set_sram_region(1000, 64)
        assert runner.sram_alloc(32) == 1000
        assert runner.sram_alloc(32) == 1032
        with pytest.raises(ConfigurationError, match="SRAM overflow"):
            runner.sram_alloc(1)
        runner.reset_sram()  # rewinds to the region base, not word 0
        assert runner.sram_alloc(8) == 1000

    def test_region_validation(self):
        runner = KernelRunner()
        n_words = runner.soc.sram.n_words
        with pytest.raises(ConfigurationError):
            runner.set_sram_region(0, 0)
        with pytest.raises(ConfigurationError):
            runner.set_sram_region(-4, 16)
        with pytest.raises(ConfigurationError):
            runner.set_sram_region(n_words - 8, 16)

    def test_scheduler_keeps_the_runner_region(self, trace):
        from repro.app import window_pipeline

        runner = KernelRunner()
        sram = runner.soc.sram
        region = (1000, sram.n_words - 1000)
        runner.set_sram_region(*region)
        pinned = [(37 * i) % 2001 - 1000 for i in range(1000)]
        sram.poke_words(0, pinned)
        pipeline = window_pipeline("cpu_vwr2a")
        regions = []

        def spy(runner, samples):
            regions.append(runner.sram_region)
            return pipeline(runner, samples)

        StreamScheduler(pipeline=spy, config="cpu_vwr2a", runner=runner) \
            .run(WindowStream(trace[:2 * WINDOW], window=WINDOW))
        # Every window rewinds the region the runner had; serving never
        # writes below it and leaves the region as it found it.
        assert regions == [region, region]
        assert sram.peek_words(0, 1000) == pinned
        assert runner.sram_region == region

    def test_nested_run_application_lands_in_outer_launch_log(self, trace):
        # A pipeline delegating to run_application (itself a stream
        # client) must still surface its launches on the outer report.
        def nested(runner, samples):
            return run_application(samples, "cpu_vwr2a", runner)

        report = StreamScheduler(
            pipeline=nested, config="cpu_vwr2a",
        ).run(WindowStream(trace[:WINDOW], window=WINDOW))
        assert report.windows[0].launches
        assert report.windows[0].app.label in (-1, 1)


class TestRunApplicationThinClient:
    """run_application kept its contract while becoming a stream client."""

    def test_reset_sram_default_rewinds(self, trace):
        runner = KernelRunner()
        run_application(trace[:WINDOW], "cpu_vwr2a", runner)
        watermark = runner._sram_next
        run_application(trace[:WINDOW], "cpu_vwr2a", runner)
        assert runner._sram_next == watermark

    def test_buffers_reserved_below_the_region_survive(self, trace):
        runner = KernelRunner()
        mine = list(range(-50, 50))
        base = runner.reserve_sram(mine)
        run_application(trace[:WINDOW], "cpu_vwr2a", runner)
        assert runner.soc.sram.peek_words(base, 100) == mine
        assert runner.sram_region == (100, runner.soc.sram.n_words - 100)

    def test_params_override_changes_the_pipeline(self, trace):
        window = trace[:WINDOW]
        default = run_application(window, "cpu", KernelRunner())
        short = run_application(
            window, "cpu", KernelRunner(),
            params=AppParams(fir_taps=7),
        )
        assert short.steps["preprocessing"].cycles \
            < default.steps["preprocessing"].cycles
        assert default.features != short.features

    def test_params_default_is_the_paper_pipeline(self, trace):
        window = trace[:WINDOW]
        assert run_application(window, "cpu", KernelRunner()).features \
            == run_application(
                window, "cpu", KernelRunner(), params=AppParams()
            ).features


class TestParameterSweep:
    @pytest.fixture(scope="class")
    def sweep_report(self, trace):
        sweep = ParameterSweep(
            cases=[
                SweepCase(name="paper", config="cpu_vwr2a"),
                SweepCase(
                    name="short_fir", config="cpu_vwr2a",
                    params=AppParams(fir_taps=7),
                ),
                "cpu",
            ],
        )
        two_windows = trace[:2 * WINDOW]
        return sweep.run(two_windows)

    def test_every_case_served(self, sweep_report):
        assert sweep_report.cases == ["paper", "short_fir", "cpu"]
        for _, report in sweep_report:
            assert report.n_windows == 2
            assert report.total_energy_uj > 0

    def test_cases_differ_where_they_should(self, sweep_report):
        paper = sweep_report["paper"]
        short = sweep_report["short_fir"]
        cpu = sweep_report["cpu"]
        assert short.total_cycles != paper.total_cycles
        assert cpu.total_cycles > 3 * paper.total_cycles
        assert sweep_report.best() in ("paper", "short_fir")

    def test_shared_runner_amortizes_across_sweeps(self, trace):
        runner = KernelRunner()
        cases = [SweepCase(name="only", config="cpu_vwr2a")]
        one_window = trace[:WINDOW]
        ParameterSweep(cases=cases, runner=runner).run(one_window)
        second = ParameterSweep(cases=cases, runner=runner) \
            .run(one_window)
        stats = second["only"].store_stats
        # Every store of the second pass dedupes against the first.
        assert stats["encode_misses"] == 0
        assert stats["dedup_hits"] > 0

    def test_table_renders_all_cases(self, sweep_report):
        table = sweep_report.table()
        for name in ("paper", "short_fir", "cpu"):
            assert name in table

    def test_rejects_degenerate_sweeps(self):
        with pytest.raises(ConfigurationError):
            ParameterSweep(cases=[])
        with pytest.raises(ConfigurationError):
            ParameterSweep(cases=["cpu", "cpu"])
