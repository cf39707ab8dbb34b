"""Differential tests: compiled fast path vs the reference interpreter.

Every seed kernel runs twice — once on ``engine="reference"`` (the
golden per-cycle interpreter) and once on ``engine="auto"``, where every
seed kernel takes the compiled fast path — through identical staging
flows, and the results must agree **exactly**: kernel outputs, cycle
ledgers, per-column executed-bundle counts, and the full platform event
snapshot (which the calibrated energy model consumes).

Equal event counts alone do not make the modeled energy equal: the
engines insert events in different orders, and a float sum depends on
its order. ``EnergyModel.report`` and the per-launch delta fold both fold
in sorted event-name order, and :class:`TestCrossEngineEnergy` asserts
exact window and per-kernel energy equality over served windows.
"""

from __future__ import annotations

import pytest

from repro.arch import ArchParams
from repro.asm.builder import ProgramBuilder
from repro.baselines import lowpass_taps_q15
from repro.core.cgra import Vwr2a
from repro.core.errors import AddressError, ConfigurationError, ProgramError
from repro.engine import executor
from repro.engine.compiler import compile_program
from repro.engine.executor import run_launch
from repro.isa.fields import (
    DST_R0,
    DST_R1,
    DST_VWR_B,
    DST_VWR_C,
    R0,
    R1,
    RCB,
    RCT,
    VWR_A,
    ShuffleMode,
    Vwr,
    dst_srf,
    imm,
    srf,
)
from repro.isa.lcu import addi, beq, bge, blt, jump, ldsrf, seti
from repro.isa.lsu import ld_srf, ld_vwr, shuf, st_srf, st_vwr
from repro.isa.mxcu import MXCUInstr, MXCUOp, inck, setk
from repro.isa.program import ColumnProgram, KernelConfig
from repro.isa.rc import RCOp, rc
from repro.kernels import (
    FftEngine,
    KernelRunner,
    RfftEngine,
    SplitFftEngine,
    run_accumulate,
    run_delineation,
    run_fir,
    run_intervals,
)
from repro.soc.platform import BiosignalSoC

ENGINES = ("reference", "auto")

#: Both engine options, with test ids naming the path each one exercises.
ENGINE_PARAMS = (
    pytest.param("reference", id="reference"),
    pytest.param("auto", id="compiled"),
)


def _runner(engine: str) -> KernelRunner:
    return KernelRunner(soc=BiosignalSoC(engine=engine))


def _signal(n: int, scale: int = 2000) -> list:
    """Deterministic pseudo-biosignal (no RNG dependencies)."""
    return [((i * 37 + (i * i) % 211) % (2 * scale)) - scale
            for i in range(n)]


def _run_both(flow):
    """Run ``flow(runner)`` on both engines; return (payloads, runners)."""
    payloads = {}
    runners = {}
    for engine in ENGINES:
        runner = _runner(engine)
        payloads[engine] = flow(runner)
        runners[engine] = runner
    # Seed kernels are conflict-free: ``auto`` ran every launch compiled.
    assert set(runners["auto"].soc.vwr2a.engine_decisions) == {"compiled"}
    return payloads, runners


def _assert_platform_equal(runners) -> None:
    ref, cmp_ = runners["reference"], runners["auto"]
    assert ref.soc.events.snapshot() == cmp_.soc.events.snapshot()
    assert ref.soc.cpu.active_cycles == cmp_.soc.cpu.active_cycles
    assert ref.soc.cpu.sleep_cycles == cmp_.soc.cpu.sleep_cycles


def _assert_kernel_run_equal(a, b) -> None:
    assert a.dma_in_cycles == b.dma_in_cycles
    assert a.config_cycles == b.config_cycles
    assert a.compute_cycles == b.compute_cycles
    assert a.dma_out_cycles == b.dma_out_cycles


class TestKernelEquivalence:
    def test_fir(self):
        taps = lowpass_taps_q15(11, 0.1)
        samples = _signal(512)

        payloads, runners = _run_both(
            lambda r: run_fir(r, taps, samples)
        )
        ref, cmp_ = payloads["reference"], payloads["auto"]
        assert ref.samples == cmp_.samples
        _assert_kernel_run_equal(ref.run, cmp_.run)
        _assert_platform_equal(runners)

    def test_delineation(self):
        samples = _signal(512)

        payloads, runners = _run_both(
            lambda r: run_delineation(r, samples, 600)
        )
        ref, cmp_ = payloads["reference"], payloads["auto"]
        assert ref.maxima == cmp_.maxima
        assert ref.minima == cmp_.minima
        _assert_kernel_run_equal(ref.run, cmp_.run)
        _assert_platform_equal(runners)

    @pytest.mark.parametrize("n", [256, 512])
    def test_complex_fft(self, n):
        re = _signal(n)
        im = _signal(n, scale=1500)

        def flow(runner):
            return FftEngine(runner, n).run(re, im)

        payloads, runners = _run_both(flow)
        ref, cmp_ = payloads["reference"], payloads["auto"]
        assert ref.re == cmp_.re and ref.im == cmp_.im
        _assert_kernel_run_equal(ref.run, cmp_.run)
        _assert_platform_equal(runners)

    def test_rfft(self):
        x = _signal(512)

        def flow(runner):
            return RfftEngine(runner, 512).run(x)

        payloads, runners = _run_both(flow)
        ref, cmp_ = payloads["reference"], payloads["auto"]
        assert ref.re == cmp_.re and ref.im == cmp_.im
        _assert_kernel_run_equal(ref.run, cmp_.run)
        _assert_platform_equal(runners)

    def test_split_fft_2048(self):
        re = _signal(2048)
        im = _signal(2048, scale=900)

        def flow(runner):
            return SplitFftEngine(runner, 2048).run(re, im)

        payloads, runners = _run_both(flow)
        ref, cmp_ = payloads["reference"], payloads["auto"]
        assert ref.re == cmp_.re and ref.im == cmp_.im
        _assert_kernel_run_equal(ref.run, cmp_.run)
        _assert_platform_equal(runners)

    def test_features_accumulate_and_intervals(self):
        values = [v % 97 for v in _signal(64)]
        weights = [(v % 13) - 6 for v in _signal(64)]
        maxima = [3, 20, 41, 60]
        minima = [1, 11, 33, 52]

        def flow(runner):
            runner.stage_in(values, 0)
            runner.stage_in(weights, 64)
            spm = runner.soc.vwr2a.spm
            hi = 4096
            runner.stage_in(maxima, hi)
            runner.stage_in(minima, hi + 8)
            out = {}
            out["sum"] = run_accumulate(runner, 0, 64, 200).value
            out["sq"] = run_accumulate(runner, 0, 64, 200, squares=True).value
            out["dot"] = run_accumulate(runner, 0, 64, 200, b_word=64).value
            run_intervals(
                runner,
                insp_spec=(hi, hi + 8, hi + 16, 3),
                exp_spec=(hi + 8 + 1, hi, hi + 24, 3),
            )
            out["intervals"] = spm.peek_words(hi + 16, 12)
            return out

        payloads, runners = _run_both(flow)
        assert payloads["reference"] == payloads["auto"]
        _assert_platform_equal(runners)


def _asymmetric_config(params: ArchParams) -> KernelConfig:
    """Two columns with identical code but different SRF loop bounds, so
    their control flow diverges — column 1 runs on after column 0 EXITs,
    and the launch lasts as long as the longer column."""
    columns = {}
    for col, (bound, line) in enumerate(((5, 0), (11, 1))):
        b = ProgramBuilder(n_rcs=params.rcs_per_column)
        b.srf(0, bound)
        b.srf(1, line)
        b.emit(lcu=seti(0, 0), mxcu=setk(0),
               lsu=ld_vwr(VWR_A.vwr(), 1))
        b.label("loop")
        b.emit(
            rcs=[rc(RCOp.SADD, DST_VWR_B, VWR_A, srf(0))] * 4,
            mxcu=inck(1, and_mask=params.slice_words - 1),
            lcu=addi(0, 1),
        )
        b.emit(lcu=bge(0, ("srf", 0), "done"))
        b.emit(lcu=seti(1, 7))
        b.emit(lcu=addi(1, -1), mxcu=inck(1))
        b.emit(lcu=bge(0, 999, "loop"))  # never taken: falls into loop
        b.label("loop2")
        b.emit(lcu=bge(1, 0, "loop"))
        b.label("done")
        b.emit(lsu=st_vwr(VWR_A.vwr(), 1))
        b.exit()
        columns[col] = b.build()
    return KernelConfig(name="asym", columns=columns)


def _launch_state(sim: Vwr2a) -> tuple:
    """Event tally, SPM and every column's state (copies)."""
    return (
        sim.events.snapshot(),
        sim.spm.snapshot(),
        [col.state_snapshot() for col in sim.columns],
    )


def _torture_program(params: ArchParams) -> ColumnProgram:
    """Single column exercising every operand kind, ALU op class, LSU op,
    shuffle mode, MXCU variant and LCU compare kind."""
    b = ProgramBuilder(n_rcs=params.rcs_per_column)
    b.srf(0, 2)       # SPM line address (LD/ST_VWR)
    b.srf(1, 5)       # SPM word address (LD/ST_SRF)
    b.srf(2, 3)       # loop bound / compare value / UPD and-mask
    b.srf(3, -7)      # broadcast RC operand
    b.emit(lsu=ld_vwr(Vwr.A, 0, inc=1))
    b.emit(mxcu=setk(3), rcs=[
        rc(RCOp.SADD, DST_R0, VWR_A, imm(123)),
        rc(RCOp.SSUB, DST_R1, imm(-5), VWR_A),
        rc(RCOp.SMUL, DST_VWR_B, VWR_A, imm(3)),
        rc(RCOp.MOV, DST_VWR_C, VWR_A),
    ])
    b.emit(mxcu=inck(2, and_mask=31), rcs=[
        rc(RCOp.SMAX, DST_R0, RCT, R0),
        rc(RCOp.SMIN, DST_R1, RCB, R1),
        rc(RCOp.LNOT, dst_srf(4), R0),
        rc(RCOp.LXOR, DST_VWR_B, R0, R1),
    ])
    b.emit(rcs=[
        rc(RCOp.SLL, DST_VWR_C, srf(3), imm(2)),
        rc(RCOp.SRL, DST_VWR_C, srf(3), imm(1)),
        rc(RCOp.SRA, DST_VWR_C, srf(3), imm(3)),
        rc(RCOp.LAND, DST_VWR_C, srf(3), imm(0xFF)),
    ])
    b.emit(rcs=[
        rc(RCOp.SADD16, DST_VWR_B, VWR_A, imm(-321)),
        rc(RCOp.SSUB16, DST_VWR_B, VWR_A, imm(777)),
        rc(RCOp.FXPMUL16, DST_VWR_B, VWR_A, imm(1 << 14)),
        rc(RCOp.FXPMUL, DST_VWR_B, VWR_A, imm(12345)),
    ])
    b.emit(lsu=st_vwr(Vwr.B, 0, inc=-1))
    for mode in (ShuffleMode.INTERLEAVE_LO, ShuffleMode.BITREV_HI,
                 ShuffleMode.CSHIFT_LO, ShuffleMode.EVEN_PRUNE):
        b.emit(lsu=shuf(mode))
    b.emit(lsu=ld_srf(5, 1, inc=2))
    b.emit(lsu=st_srf(5, 1, inc=1))
    b.emit(lcu=ldsrf(1, 2))
    b.emit(lcu=seti(0, 0))
    b.label("lp")
    b.emit(lcu=addi(0, 1), mxcu=inck(1, and_mask=7, xor_mask=1))
    b.emit(lcu=blt(0, ("reg", 1), "lp"))
    b.emit(lcu=jump("j"))
    b.label("j")
    b.emit(lcu=beq(0, ("srf", 2), "skip"))   # taken: L0 == SRF[2] == 3
    b.emit(lcu=jump("end"))                  # not executed
    b.label("skip")
    b.emit(rcs=[rc(RCOp.LOR, DST_VWR_C, R1, imm(1))] * 4)
    b.label("end")
    b.emit(mxcu=MXCUInstr(op=MXCUOp.UPD, inc=3, xor_mask=2, srf_and=2))
    b.exit()
    return b.build()


class TestEngineSemantics:
    def test_torture_program_full_state_equivalence(self):
        states = {}
        for engine in ENGINES:
            sim = Vwr2a(engine=engine)
            sim.spm.poke_words(0, [((i * 73) % 4001) - 2000
                                   for i in range(1024)])
            config = KernelConfig(
                name="torture",
                columns={0: _torture_program(sim.params)},
            )
            result = sim.execute(config)
            assert result.engine == (
                "reference" if engine == "reference" else "compiled"
            )
            col = sim.columns[0]
            states[engine] = {
                "cycles": result.cycles,
                "steps": result.column_steps,
                "events": sim.events.snapshot(),
                "spm": sim.spm.peek_words(0, 1024),
                "vwrs": {v: col.vwr_words(v) for v in col.vwrs},
                "srf": [col.srf.peek(e)
                        for e in range(sim.params.srf_entries)],
                "rc_regs": col.rc_regs,
                "rc_out": col.rc_out,
                "lcu_regs": col.lcu_regs,
                "k": col.k,
                "pc": col.pc,
            }
        assert states["reference"] == states["auto"]

    def test_multi_column_divergent_control_flow(self):
        results = {}
        snapshots = {}
        for engine in ENGINES:
            sim = Vwr2a(engine=engine)
            sim.spm.poke_words(0, list(range(256)))
            result = sim.execute(_asymmetric_config(sim.params))
            results[engine] = result
            snapshots[engine] = (
                sim.events.snapshot(),
                sim.spm.peek_words(0, 256),
                {v: sim.columns[0].vwr_words(v) for v in sim.columns[0].vwrs},
            )
        ref, cmp_ = results["reference"], results["auto"]
        assert cmp_.engine == "compiled"
        assert ref.cycles == cmp_.cycles
        assert ref.config_cycles == cmp_.config_cycles
        assert ref.column_steps == cmp_.column_steps
        assert ref.events == cmp_.events
        assert snapshots["reference"] == snapshots["auto"]

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_max_cycles_guard(self, engine):
        params = ArchParams()
        b = ProgramBuilder(n_rcs=params.rcs_per_column)
        b.label("spin")
        b.emit(lcu=seti(0, 0))
        b.emit(lcu=bge(0, 0, "spin"))
        b.exit()  # unreachable: the loop above spins forever
        sim = Vwr2a(engine=engine)
        sim.store_kernel(KernelConfig(name="spin", columns={0: b.build()}))
        with pytest.raises(ProgramError, match="exceeded 100 cycles"):
            sim.run("spin", max_cycles=100)
        # The aborted launch still counts, once, on the path it took.
        assert sim.engine_decisions == {
            "reference" if engine == "reference" else "compiled": 1
        }

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_run_past_end_guard(self, engine):
        from repro.isa.bundle import make_bundle

        # No EXIT anywhere: the PC falls off the end of the program
        # (bypasses ProgramBuilder, which insists on an EXIT).
        program = ColumnProgram(bundles=[
            make_bundle(lcu=seti(0, 0)),
            make_bundle(lcu=addi(0, 1)),
        ])
        sim = Vwr2a(engine=engine)
        sim.store_kernel(KernelConfig(name="noexit", columns={0: program}))
        with pytest.raises(ProgramError, match="ran past the program"):
            sim.run("noexit", max_cycles=100)
        assert sim.engine_decisions == {
            "reference" if engine == "reference" else "compiled": 1
        }

    @staticmethod
    def _interrupt_last_column(sim, monkeypatch, error, n_columns=2):
        """Warm-run a kernel whose ``n_columns`` columns each bump their
        own SPM line, then make its last column's bound program run and
        raise ``error``; returns the config name and the engine-entry
        states the next launch records."""
        params = sim.params
        columns = {}
        for col in range(n_columns):
            b = ProgramBuilder(n_rcs=params.rcs_per_column)
            b.srf(0, col)
            b.emit(lsu=ld_vwr(Vwr.A, 0), mxcu=setk(0))
            b.emit(rcs=[rc(RCOp.SADD, DST_VWR_C, VWR_A, imm(col + 1))] * 4,
                   lcu=seti(0, 3))
            b.emit(lsu=st_vwr(Vwr.C, 0))
            b.exit()
            columns[col] = b.build()
        sim.spm.poke_words(0, list(range(2 * params.line_words)))
        config = KernelConfig(name="bump", columns=columns)
        assert sim.execute(config).engine == "compiled"
        bound = sim._launches[id(config)].bounds[-1]
        fn = bound.fn

        def interrupted(*args):
            fn(*args)
            raise error

        bound.fn = interrupted
        entry_states = []

        def recorded(*args):
            entry_states.append(_launch_state(sim))
            return run_launch(*args)

        monkeypatch.setattr(executor, "run_launch", recorded)
        return "bump", entry_states

    def test_interrupted_compiled_launch_rewinds(self, monkeypatch):
        # Two columns: column 0 has run to EXIT and column 1 has written
        # its SPM line when the interrupt lands. One column: it has
        # written its line. Either way the launch is undone, not half
        # kept, from a snapshot of only the lines the launch may write.
        for n_columns in (2, 1):
            sim = Vwr2a(engine="auto")
            name, entry = self._interrupt_last_column(
                sim, monkeypatch, KeyboardInterrupt, n_columns
            )
            launch = sim._launches[id(sim.config_mem.get(name))]
            assert launch.spm_slices \
                == ((0, n_columns * sim.params.line_words),)
            decisions = sim.engine_decisions
            with pytest.raises(KeyboardInterrupt):
                sim.run(name)
            assert _launch_state(sim) == entry[0]
            assert sim.engine_decisions == decisions

    def test_compiled_abort_with_completing_replay_is_divergence(
            self, monkeypatch):
        sim = Vwr2a(engine="auto")
        name, _ = self._interrupt_last_column(
            sim, monkeypatch, AddressError("stray")
        )
        with pytest.raises(ProgramError, match="engine divergence"):
            sim.run(name)

    def test_engine_selection(self):
        assert Vwr2a().engine == "auto"
        assert Vwr2a(engine="reference").engine == "reference"
        for name in ("turbo", "compiled"):
            with pytest.raises(ConfigurationError, match="unknown engine"):
                Vwr2a(engine=name)
        with pytest.raises(ConfigurationError, match="conflicts"):
            KernelRunner(
                soc=BiosignalSoC(engine="reference"), engine="auto"
            )

    def test_compiled_programs_are_memoized_structurally(self):
        sim = Vwr2a(engine="auto")
        run1 = sim.execute(_asymmetric_config(sim.params))
        assert run1.engine == "compiled"
        # A fresh, structurally identical config (new objects, same code)
        # must reuse the compiled form via the fingerprint memo.
        config = _asymmetric_config(sim.params)
        sim.store_kernel(config)
        compiled = {
            col: compile_program(program, sim.params)
            for col, program in config.columns.items()
        }
        for col in config.columns:
            assert compiled[col] is compile_program(
                sim.columns[col].program, sim.params
            )
        run2 = sim.run("asym")
        assert run2.cycles == run1.cycles

    def test_pc_histogram_matches_column_steps(self):
        sim = Vwr2a(engine="auto")
        config = _asymmetric_config(sim.params)
        result = sim.execute(config)
        assert result.engine == "compiled"
        bounds = sim._launches[id(config)].bounds
        for bound, (col_index, steps) in zip(
            bounds, result.column_steps.items()
        ):
            assert bound.column.index == col_index
            assert sum(bound.pc_histogram()) == steps

    def test_launch_records_live_on_each_array(self, monkeypatch):
        # One config object run alternately on two arrays builds one
        # launch record on each.
        sims = [Vwr2a(engine="auto"), Vwr2a(engine="auto")]
        config = _asymmetric_config(sims[0].params)
        for _ in range(3):
            for sim in sims:
                assert sim.execute(config).engine == "compiled"
        for sim in sims:
            assert sim.config_mem.stats.analysis_misses == 1
            assert len(sim._launches) == 1
        # Under a one-record cap, two configs run alternately rebuild
        # their records at every launch and still match the reference.
        monkeypatch.setattr(Vwr2a, "LAUNCH_CAP", 1)
        runs = {}
        for engine in ENGINES:
            sim = Vwr2a(engine=engine)
            params = sim.params
            configs = [
                _asymmetric_config(params),
                KernelConfig(name="torture",
                             columns={0: _torture_program(params)}),
            ]
            sim.spm.poke_words(0, list(range(2 * params.line_words)))
            results = []
            for launch in range(4):
                result = sim.execute(configs[launch % 2])
                results.append((result.cycles, result.events))
            assert len(sim._launches) == 1
            assert sim.config_mem.stats.analysis_misses == 4
            runs[engine] = (results, _launch_state(sim))
            assert sim.engine_decisions == {
                "reference" if engine == "reference" else "compiled": 4
            }
        assert runs["auto"] == runs["reference"]


class TestCrossEngineEnergy:
    """Modeled window and per-kernel energy are bit-identical across engines."""

    def test_served_windows_have_identical_energy(self):
        from repro.app import (
            WINDOW,
            high_workload_config,
            low_workload_config,
            respiration_signal,
        )
        from repro.serve import serve_trace

        trace = []
        for config in (high_workload_config(1), low_workload_config(2)):
            trace.extend(respiration_signal(8 * WINDOW, config))
        reports = {
            engine: serve_trace(trace, "cpu_vwr2a", runner=_runner(engine),
                                energy_model=True)
            for engine in ENGINES
        }
        reference, compiled = reports["reference"], reports["auto"]
        assert len(compiled.windows) == 16
        assert set(compiled.engine_counts) == {"compiled"}
        for ref, comp in zip(reference.windows, compiled.windows):
            assert comp.events == ref.events
            assert comp.energy_uj == ref.energy_uj, (
                f"window {comp.index}: {comp.energy_uj!r} vs "
                f"{ref.energy_uj!r}"
            )
            assert comp.kernel_energy_pj == ref.kernel_energy_pj
            assert [r.events for r in comp.launches] \
                == [r.events for r in ref.launches]
        assert compiled.total_energy_uj == reference.total_energy_uj
        assert reference.energy_by_kernel
        assert compiled.energy_by_kernel == reference.energy_by_kernel
