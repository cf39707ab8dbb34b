"""Compile-time SPM-conflict analysis, auto engine selection, store cache.

Covers the soundness hole closed on top of the compiled engine: kernels
whose columns communicate through the SPM mid-kernel must never run on the
compiled engine, which runs columns one after another.
``engine="auto"`` (the default) proves seed kernels conflict-free and
keeps them compiled, routes conflicting kernels to the reference
interpreter bit-identically, with a fallback reason naming the columns
and address ranges. Aborted compiled runs (address faults, budget
overruns) replay cycle-by-cycle so events and column state match the
interpreter exactly.
``store_kernel`` stamps each config with its validation and encoding, so
re-storing a kernel object is free.
"""

from __future__ import annotations

import pytest

from repro.app import WINDOW, respiration_signal
from repro.arch import DEFAULT_PARAMS
from repro.asm.builder import ProgramBuilder
from repro.baselines import lowpass_taps_q15
from repro.core.cgra import Vwr2a
from repro.core.errors import AddressError, ProgramError
from repro.engine import conflicts, superblocks
from repro.engine.compiler import compile_program
from repro.isa.fields import DST_VWR_B, VWR_A, Vwr, imm
from repro.isa.lcu import addi, blt, ldsrf, seti
from repro.isa.lsu import ld_srf, ld_vwr, st_srf, st_vwr
from repro.isa.program import ColumnProgram, KernelConfig
from repro.isa.rc import RCOp, rc
from repro.kernels import KernelRunner, SplitFftEngine, run_intervals
from repro.kernels.fir import build_fir_kernel, plan_fir
from repro.kernels.vector import elementwise_kernel
from repro.serve import serve_trace

LINE_WORDS = DEFAULT_PARAMS.line_words


def _producer_consumer(tag: str = "") -> KernelConfig:
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
        name=f"prodcons{tag}", columns={0: b0.build(), 1: b1.build()}
    )


def _faulting_config() -> KernelConfig:
    """Walks ST_VWR off the end of the SPM mid-loop -> AddressError."""
    b = ProgramBuilder(n_rcs=4)
    b.srf(0, DEFAULT_PARAMS.spm_lines - 4)
    b.emit(lcu=seti(0, 0))
    b.label("l")
    b.emit(
        rcs=[rc(RCOp.SADD, DST_VWR_B, VWR_A, imm(7))] * 4, lcu=addi(0, 1)
    )
    b.emit(lsu=st_vwr(Vwr.B, 0, inc=1), lcu=blt(0, 40, "l"))
    b.exit()
    return KernelConfig(name="walk_off_spm", columns={0: b.build()})


def _line_then_fault_config() -> KernelConfig:
    """Bumps SPM line 3, then loads a word past the SPM -> AddressError."""
    b = ProgramBuilder(n_rcs=4)
    b.srf(0, 3)
    b.srf(1, DEFAULT_PARAMS.spm_words)
    b.emit(lsu=ld_vwr(Vwr.A, 0))
    b.emit(rcs=[rc(RCOp.SADD, DST_VWR_B, VWR_A, imm(5))] * 4)
    b.emit(lsu=st_vwr(Vwr.B, 0))
    b.emit(lsu=ld_srf(2, 1))
    b.exit()
    return KernelConfig(name="line_then_fault", columns={0: b.build()})


def _spin_column(bound: int = 60000) -> ColumnProgram:
    """A column that counts to ``bound`` without touching the SPM."""
    b = ProgramBuilder(n_rcs=4)
    b.emit(lcu=seti(0, 0))
    b.label("s")
    b.emit(lcu=addi(0, 1))
    b.emit(lcu=blt(0, bound, "s"))
    b.exit()
    return b.build()


def _late_fault_config() -> KernelConfig:
    """Column 1 walks off the SPM after column 0 has EXITed."""
    faulting = _faulting_config().columns[0]
    return KernelConfig(
        name="late_fault", columns={0: _spin_column(2), 1: faulting}
    )


def _full_state(sim: Vwr2a, col_index: int = 0) -> dict:
    col = sim.columns[col_index]
    return {
        "events": sim.events.snapshot(),
        "spm": sim.spm.peek_words(0, sim.params.spm_words),
        "vwrs": {v: col.vwr_words(v) for v in col.vwrs},
        "srf": [col.srf.peek(e)
                for e in range(sim.params.srf_entries)],
        "rc_regs": col.rc_regs,
        "rc_out": col.rc_out,
        "lcu_regs": col.lcu_regs,
        "k": col.k,
        "pc": col.pc,
        "steps": col.steps,
        "done": col.done,
    }


def write_footprint_holds(report, before: list, after: list) -> bool:
    """Whether the columns' writes are bounded; when they are, asserts
    every SPM word that changed lies in their write runs."""
    if any(fp.unbounded_writes for _, fp in report.footprints):
        return False
    slices = report.write_slices(len(before))
    for addr, (old, new) in enumerate(zip(before, after)):
        if old != new:
            assert any(start <= addr < stop for start, stop in slices), (
                f"SPM word {addr} changed outside the write footprint"
            )
    return True


class TestAutoSelection:
    def test_conflict_free_seed_kernels_stay_compiled(self):
        sim = Vwr2a()
        assert sim.engine == "auto"
        result = sim.execute(
            elementwise_kernel(sim.params, RCOp.SADD, 512, 0, 4, 8)
        )
        assert result.engine == "compiled"
        assert result.fallback_reason is None
        assert result.spm_conflicts == ()

        taps = lowpass_taps_q15(11, 0.1)
        layout = plan_fir(sim.params, 256, 11)
        fir = build_fir_kernel(
            sim.params, taps, layout, 16, 16 + layout.n_lines
        )
        assert sim.execute(fir).engine == "compiled"

    def test_intervals_kernel_stays_compiled_on_auto_runner(self):
        runner = KernelRunner()  # auto by default
        hi = 4096
        runner.stage_in([3, 20, 41, 60], hi)
        runner.stage_in([1, 11, 33, 52], hi + 8)
        seen = []
        vwr2a = runner.soc.vwr2a
        original = vwr2a.run

        def spy(name, max_cycles=None):
            result = original(name, max_cycles=max_cycles)
            seen.append(result.engine)
            return result

        vwr2a.run = spy
        run_intervals(
            runner,
            insp_spec=(hi, hi + 8, hi + 16, 3),
            exp_spec=(hi + 8 + 1, hi, hi + 24, 3),
        )
        assert seen == ["compiled"]

    def test_conflicting_kernel_falls_back_to_reference(self):
        sim = Vwr2a()
        result = sim.execute(_producer_consumer())
        assert result.engine == "reference"
        assert "column 0" in result.fallback_reason
        assert "column 1" in result.fallback_reason
        assert len(result.spm_conflicts) == 1
        conflict = result.spm_conflicts[0]
        assert conflict.kind == "write-read"
        assert conflict.writer == 0 and conflict.other == 1
        # Line 2: one full line of overlapping words.
        assert conflict.ranges() == ((2 * LINE_WORDS, 3 * LINE_WORDS - 1),)

    def test_auto_fallback_is_bit_identical_to_reference(self):
        states = {}
        for engine in ("reference", "auto"):
            sim = Vwr2a(engine=engine)
            sim.spm.poke_words(0, [(i * 31) % 907 for i in range(512)])
            result = sim.execute(_producer_consumer())
            states[engine] = (
                result.cycles,
                result.config_cycles,
                result.column_steps,
                _full_state(sim, 0),
                _full_state(sim, 1),
            )
        assert states["reference"] == states["auto"]

    def test_word_granular_communication_falls_back_bit_identically(self):
        # Adversarial: col0 streams words into [100..111] with ST_SRF
        # post-increment while col1 reads the same window with LD_SRF and
        # accumulates elsewhere — mid-kernel word-granular communication.
        def config():
            b0 = ProgramBuilder(n_rcs=4)
            b0.srf(0, 100)  # destination walker
            b0.emit(lsu=st_srf(1, 0, inc=1), lcu=seti(0, 0))
            b0.label("p")
            b0.emit(lcu=addi(0, 1))
            b0.emit(lsu=st_srf(1, 0, inc=1), lcu=blt(0, 11, "p"))
            b0.exit()
            b1 = ProgramBuilder(n_rcs=4)
            b1.srf(0, 100)  # source walker over col0's window
            b1.srf(2, 200)  # private output
            b1.emit(lcu=seti(0, 0))
            b1.label("c")
            b1.emit(lsu=ld_srf(1, 0, inc=1), lcu=addi(0, 1))
            b1.emit(lsu=st_srf(1, 2, inc=1), lcu=blt(0, 12, "c"))
            b1.exit()
            return KernelConfig(
                name="word_stream", columns={0: b0.build(), 1: b1.build()}
            )

        states = {}
        for engine in ("reference", "auto"):
            sim = Vwr2a(engine=engine)
            sim.spm.poke_words(0, [(i * 17) % 513 for i in range(256)])
            result = sim.execute(config())
            if engine == "auto":
                assert result.engine == "reference"
                overlap = set()
                for conflict in result.spm_conflicts:
                    overlap.update(conflict.words)
                assert overlap == set(range(100, 112))
            states[engine] = (
                result.cycles,
                result.column_steps,
                _full_state(sim, 0),
                _full_state(sim, 1),
            )
        assert states["reference"] == states["auto"]

    def test_forced_compiled_raises_named_diagnostic(self):
        # The conflicting launch runs on the reference; the diagnostic
        # naming columns and words rides on the result.
        sim = Vwr2a()
        result = sim.execute(_producer_consumer())
        message = result.fallback_reason
        assert "column 0" in message and "column 1" in message
        assert f"[{2 * LINE_WORDS}..{3 * LINE_WORDS - 1}]" in message
        assert result.spm_conflicts[0].words[0] == 2 * LINE_WORDS
        assert result.engine == "reference"
        assert sim.engine_decisions == {"reference": 1}

    def test_write_write_overlap_is_a_conflict(self):
        columns = {}
        for col in (0, 1):
            b = ProgramBuilder(n_rcs=4)
            b.srf(0, 5)  # both columns store line 5
            b.emit(lsu=st_vwr(Vwr.A, 0))
            b.exit()
            columns[col] = b.build()
        report = conflicts.analyze_columns(columns, DEFAULT_PARAMS)
        assert not report.conflict_free
        assert report.conflicts[0].kind == "write-write"

    def test_shared_reads_are_not_a_conflict(self):
        columns = {}
        for col in (0, 1):
            b = ProgramBuilder(n_rcs=4)
            b.srf(0, 1)       # both columns read line 1
            b.srf(1, 8 + col)  # disjoint writes
            b.emit(lsu=ld_vwr(Vwr.A, 0))
            b.emit(lsu=st_vwr(Vwr.A, 1))
            b.exit()
            columns[col] = b.build()
        report = conflicts.analyze_columns(columns, DEFAULT_PARAMS)
        assert report.conflict_free

    def test_data_dependent_address_widens_to_unbounded(self):
        # Column 0's store address is loaded from the SPM (data-dependent):
        # the analysis must widen it and conservatively fall back.
        b0 = ProgramBuilder(n_rcs=4)
        b0.srf(0, 0)
        b0.emit(lsu=ld_srf(1, 0))       # SRF1 <- SPM[SRF0]: unknown
        b0.emit(lsu=st_vwr(Vwr.A, 1))   # store at unknown line
        b0.exit()
        b1 = ProgramBuilder(n_rcs=4)
        b1.srf(0, 40)
        b1.emit(lsu=ld_vwr(Vwr.A, 0))
        b1.exit()
        columns = {0: b0.build(), 1: b1.build()}
        report = conflicts.analyze_columns(columns, DEFAULT_PARAMS)
        assert not report.conflict_free
        assert report.conflicts[0].unbounded
        footprints = dict(report.footprints)
        assert footprints[0].unbounded_writes

    def test_carried_over_srf_state_is_not_assumed_zero(self):
        # Column.load() does not reset SRF entries outside srf_init (or
        # the LCU registers); a kernel addressing the SPM through an
        # uninitialized entry inherits whatever the previous launch left
        # behind, so the analysis must treat it as unbounded — never
        # "proven conflict-free" with an assumed value.
        b0 = ProgramBuilder(n_rcs=4)
        # No srf_init for entry 5: the store address is carried-over state.
        b0.emit(lsu=st_vwr(Vwr.A, 5))
        b0.exit()
        b1 = ProgramBuilder(n_rcs=4)
        b1.srf(0, 2)
        b1.emit(lcu=seti(0, 0))
        b1.label("w")
        b1.emit(lcu=addi(0, 1))
        b1.emit(lcu=blt(0, 20, "w"))
        b1.emit(lsu=ld_vwr(Vwr.A, 0))
        b1.exit()
        columns = {0: b0.build(), 1: b1.build()}
        report = conflicts.analyze_columns(columns, DEFAULT_PARAMS)
        assert not report.conflict_free
        assert dict(report.footprints)[0].unbounded_writes
        # End to end: a previous launch plants SRF[5] = 2 in column 0,
        # aiming the "uninitialized" store at the line column 1 reads.
        sim = Vwr2a()
        plant = ProgramBuilder(n_rcs=4)
        plant.srf(6, 1000)
        plant.emit(lsu=ld_srf(5, 6))  # SRF[5] <- SPM[1000]
        plant.exit()
        sim.spm.poke_words(1000, [2])
        sim.execute(KernelConfig(name="plant", columns={0: plant.build()}))
        result = sim.execute(
            KernelConfig(name="stale", columns=columns)
        )
        assert result.engine == "reference"

    def test_uninitialized_loop_counter_is_not_assumed_zero(self):
        # The branch counter is never SETI'd: its start value carries over
        # from the previous launch, so the trip count (and therefore the
        # store footprint) cannot be bounded statically.
        b0 = ProgramBuilder(n_rcs=4)
        b0.srf(0, 10)
        b0.label("l")
        b0.emit(lsu=st_srf(1, 0, inc=1), lcu=addi(0, 1))
        b0.emit(lcu=blt(0, 4, "l"))
        b0.exit()
        footprint = conflicts.column_footprint(b0.build(), DEFAULT_PARAMS)
        # Any carry-in counter value is possible, so every word the
        # post-increment walker can reach must be in the footprint — not
        # just the 5 words a zero-seeded counter would visit.
        assert footprint.unbounded_writes or {10, 500, 8191} \
            <= set(footprint.writes)

    def test_data_dependent_branch_ends_the_walk(self):
        # The branch compares a value loaded from the SPM: neither arm is
        # followed, and reads and writes both become unbounded.
        b = ProgramBuilder(n_rcs=4)
        b.srf(0, 7)
        b.srf(2, 3)
        b.emit(lsu=ld_srf(1, 0))         # SRF1 <- SPM[7]: data
        b.emit(lcu=ldsrf(0, 1))          # LCU0 <- SRF1
        b.emit(lcu=blt(0, 5, "skip"))
        b.emit(lsu=st_vwr(Vwr.A, 2))
        b.label("skip")
        b.exit()
        footprint = conflicts.column_footprint(b.build(), DEFAULT_PARAMS)
        assert footprint.unbounded_reads and footprint.unbounded_writes
        assert footprint.reads == ((7, 7),)
        assert footprint.writes == ()

    def test_footprints_are_word_runs(self):
        # A line access is one inclusive run; a walk over adjacent lines
        # merges into one run.
        b = ProgramBuilder(n_rcs=4)
        b.srf(0, 2)
        b.srf(1, 10)
        b.emit(lsu=ld_vwr(Vwr.A, 0), lcu=seti(0, 0))
        b.label("l")
        b.emit(lcu=addi(0, 1))
        b.emit(lsu=st_vwr(Vwr.A, 1, inc=1), lcu=blt(0, 3, "l"))
        b.exit()
        footprint = conflicts.column_footprint(b.build(), DEFAULT_PARAMS)
        assert footprint.reads == ((2 * LINE_WORDS, 3 * LINE_WORDS - 1),)
        assert footprint.writes == ((10 * LINE_WORDS, 13 * LINE_WORDS - 1),)

    def test_footprint_hooks_on_isa_types(self):
        config = elementwise_kernel(DEFAULT_PARAMS, RCOp.SMUL, 256, 0, 2, 4)
        report = conflicts.analyze_columns(config.columns, DEFAULT_PARAMS)
        assert report.conflict_free
        footprint = conflicts.column_footprint(
            config.columns[0], DEFAULT_PARAMS
        )
        assert footprint.reads and footprint.writes
        assert not footprint.unbounded_reads
        bundle = config.columns[0].bundles[1]  # LD_VWR inside the loop
        access = bundle.spm_access()
        assert access is not None and access[0] == "line"


class TestAnalysisCaching:
    def test_regenerated_kernels_reuse_the_cached_verdict(self):
        sim = Vwr2a()
        config = elementwise_kernel(sim.params, RCOp.SSUB, 512, 0, 4, 8)
        sim.execute(config)
        before = dict(conflicts.ANALYSIS_STATS)
        hits_before = sim.config_mem.stats.analysis_hits
        # Rebuilding the kernel returns the stored config object, whose
        # launch record carries the verdict: zero new footprint
        # computations.
        sim.execute(elementwise_kernel(sim.params, RCOp.SSUB, 512, 0, 4, 8))
        after = conflicts.ANALYSIS_STATS
        assert after["footprint_misses"] == before["footprint_misses"]
        assert sim.config_mem.stats.analysis_hits > hits_before
        assert sim.config_mem.stats.analysis_misses == 1

    def test_footprint_memo_backs_fresh_config_objects(self):
        # A config object no launch record holds (a hand-built copy:
        # fresh objects, same code and SRF values) is re-analyzed from
        # the footprint memo without abstractly executing any column.
        sim = Vwr2a()
        config = _producer_consumer()
        sim.store_kernel(config)  # stamps the structural fingerprints
        conflicts.analyze_columns(config.columns, sim.params)
        before = dict(conflicts.ANALYSIS_STATS)
        regenerated = KernelConfig(name=config.name, columns={
            col: ColumnProgram(list(p.bundles), dict(p.srf_init))
            for col, p in config.columns.items()
        })
        sim.store_kernel(regenerated)
        report = conflicts.analyze_columns(regenerated.columns, sim.params)
        after = conflicts.ANALYSIS_STATS
        for col, program in regenerated.columns.items():
            assert superblocks.program_shape(program, sim.params) \
                is superblocks.program_shape(config.columns[col], sim.params)
        assert after["footprint_misses"] == before["footprint_misses"]
        assert after["footprint_hits"] \
            == before["footprint_hits"] + len(config.columns)
        assert report == conflicts.analyze_columns(
            config.columns, sim.params
        )

    def test_repeated_runs_do_not_reanalyze(self):
        sim = Vwr2a()
        config = elementwise_kernel(sim.params, RCOp.SADD, 256, 0, 2, 4)
        sim.store_kernel(config)
        for _ in range(4):
            sim.run(config.name)
        assert sim.config_mem.stats.analysis_misses == 1

    @staticmethod
    def _count_shape_work(monkeypatch) -> dict:
        """Start a private program memo; count the block partitions and
        loop summaries the shapes built in it compute."""
        monkeypatch.setattr(superblocks, "_SHAPES", {})
        calls = {"block_pcs": 0, "loop_summary": 0}
        for name in calls:
            original = getattr(superblocks, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(superblocks, name, counted)
        return calls

    def test_cold_window_partitions_each_program_once(self, monkeypatch):
        # The footprint walk and the compiler read one shape per distinct
        # program: one block partition, one loop summary per block.
        calls = self._count_shape_work(monkeypatch)
        runner = KernelRunner()
        serve_trace(respiration_signal(WINDOW), "cpu_vwr2a", runner=runner)
        sim = runner.soc.vwr2a
        programs = {
            (sim.params, program._fingerprint)
            for launch in sim._launches.values()
            for program in launch.config.columns.values()
        }
        shapes = superblocks._SHAPES.values()
        assert calls["block_pcs"] == len(programs) == len(shapes) > 1
        assert calls["loop_summary"] \
            == sum(len(shape.blocks) for shape in shapes)
        assert all(shape.compiled for shape in shapes)

    def test_second_srf_init_reuses_the_loop_table(self, monkeypatch):
        calls = self._count_shape_work(monkeypatch)
        sim = Vwr2a()
        first = elementwise_kernel(DEFAULT_PARAMS, RCOp.SADD, 256, 0, 2, 4)
        second = elementwise_kernel(DEFAULT_PARAMS, RCOp.SADD, 256, 8, 10, 12)
        for config in (first, second):
            sim.store_kernel(config)  # stamps the configuration words
        a, b = first.columns[0], second.columns[0]
        assert a.bundles == b.bundles and a.srf_init != b.srf_init
        footprint_a = conflicts.column_footprint(a, DEFAULT_PARAMS)
        summaries = calls["loop_summary"]
        footprint_b = conflicts.column_footprint(b, DEFAULT_PARAMS)
        assert footprint_a != footprint_b
        assert calls == {"block_pcs": 1, "loop_summary": summaries}
        shape = superblocks.program_shape(b, DEFAULT_PARAMS)
        assert shape is superblocks.program_shape(a, DEFAULT_PARAMS)
        assert shape.loops and len(shape.footprints) == 2


class TestAbortAccounting:
    """docs/engine.md caveat closed: aborted runs fold cycle-by-cycle."""

    @pytest.mark.parametrize("config", [
        pytest.param(_faulting_config, id="auto"),
        # Column 0 has already EXITed when column 1 faults: the compiled
        # path has run column 0 to EXIT and must rewind it too.
        pytest.param(_late_fault_config, id="compiled-second-column"),
        # One column writes a line, then faults: its snapshot holds only
        # that line, and the rewind must still be exact.
        pytest.param(_line_then_fault_config, id="single-column-line"),
    ])
    def test_address_fault_matches_reference_exactly(self, config):
        states = {}
        for name in ("reference", "auto"):
            sim = Vwr2a(engine=name)
            sim.spm.poke_words(0, [i % 1000 for i in range(512)])
            with pytest.raises(AddressError) as excinfo:
                sim.execute(config())
            states[name] = (
                str(excinfo.value), _full_state(sim, 0), _full_state(sim, 1)
            )
        # The aborted launch counts once as compiled; its reference
        # replay does not tick the tally.
        assert sim.engine_decisions == {"compiled": 1}
        (launch,) = sim._launches.values()
        assert not any(fp.unbounded_writes for _, fp in launch.report.footprints)
        assert launch.spm_slices != ((0, sim.params.spm_words),)
        assert states["reference"] == states["auto"]

    def test_budget_overrun_matches_reference_mid_block(self):
        # max_cycles falls inside a block: the reference interpreter stops
        # mid-block; the compiled engine must replay to the same point.
        # Second layout: the overrun is in column 1, after column 0 has
        # EXITed.
        for columns in (
            {0: _spin_column()},
            {0: _spin_column(3), 1: _spin_column()},
        ):
            states = {}
            for engine in ("reference", "auto"):
                sim = Vwr2a(engine=engine)
                sim.store_kernel(KernelConfig(name="spin", columns=columns))
                with pytest.raises(
                    ProgramError, match="exceeded 101 cycles"
                ):
                    sim.run("spin", max_cycles=101)
                states[engine] = (_full_state(sim, 0), _full_state(sim, 1))
            assert sim.engine_decisions == {"compiled": 1}
            assert states["reference"] == states["auto"]

    def test_multi_column_fault_matches_reference(self):
        # Column 0 faults while column 1 is still looping; the replay must
        # reproduce the interpreter's lock-step partial progress of both.
        def config():
            b0 = ProgramBuilder(n_rcs=4)
            b0.srf(0, DEFAULT_PARAMS.spm_lines - 2)
            b0.emit(lcu=seti(0, 0))
            b0.label("l")
            b0.emit(lsu=st_vwr(Vwr.B, 0, inc=1), lcu=addi(0, 1))
            b0.emit(lcu=blt(0, 30, "l"))
            b0.exit()
            b1 = ProgramBuilder(n_rcs=4)
            b1.srf(0, 4)
            b1.emit(lcu=seti(0, 0))
            b1.label("m")
            b1.emit(
                rcs=[rc(RCOp.SADD, DST_VWR_B, VWR_A, imm(3))] * 4,
                lcu=addi(0, 1),
            )
            b1.emit(lcu=blt(0, 200, "m"))
            b1.exit()
            return KernelConfig(
                name="fault2col", columns={0: b0.build(), 1: b1.build()}
            )

        states = {}
        for engine in ("reference", "auto"):
            sim = Vwr2a(engine=engine)
            with pytest.raises(AddressError) as excinfo:
                sim.execute(config())
            states[engine] = (
                str(excinfo.value),
                _full_state(sim, 0),
                _full_state(sim, 1),
            )
        assert sim.engine_decisions == {"compiled": 1}
        assert states["reference"] == states["auto"]


class TestLaunchSnapshot:
    """A compiled launch snapshots only the SPM words it may write."""

    @staticmethod
    def _bounded(vwr2a, launch) -> bool:
        return not any(
            fp.unbounded_writes for _, fp in launch.report.footprints
        ) and sum(
            stop - start for start, stop in launch.spm_slices
        ) < vwr2a.params.spm_words

    def test_served_window_records_are_bounded_except_delineate(self):
        runner = KernelRunner()
        samples = respiration_signal(WINDOW)
        for _ in range(2):  # the second window is warm
            serve_trace(samples, "cpu_vwr2a", runner=runner)
        vwr2a = runner.soc.vwr2a
        launches = vwr2a._launches.values()
        assert len(launches) > 20
        for launch in launches:
            if launch.config.name == "delineate":
                # Its branches test loaded data: the walk gives up.
                assert launch.spm_slices \
                    == ((0, vwr2a.params.spm_words),)
            else:
                assert self._bounded(vwr2a, launch), launch.config.name

    def test_fft2048_records_are_bounded(self):
        runner = KernelRunner()
        fft = SplitFftEngine(runner, 2048)
        signal = [((i * 37) % 2001) - 1000 for i in range(2048)]
        fft.run(signal, signal[::-1])
        vwr2a = runner.soc.vwr2a
        assert vwr2a._launches
        for launch in vwr2a._launches.values():
            assert self._bounded(vwr2a, launch), launch.config.name


class TestStoreCache:
    def test_repeated_store_skips_encode_and_hazard_checks(self):
        sim = Vwr2a()
        config = elementwise_kernel(
            sim.params, RCOp.SMAX, 256, 1, 3, 5, name="cache_probe"
        )
        sim.store_kernel(config)
        stats = sim.config_mem.stats
        encode_misses = stats.encode_misses
        hazard_misses = stats.hazard_misses
        # Rebuilding the kernel returns the stored object: zero
        # re-encoding, zero hazard re-checks.
        regenerated = elementwise_kernel(
            sim.params, RCOp.SMAX, 256, 1, 3, 5, name="cache_probe"
        )
        assert regenerated is config
        sim.store_kernel(regenerated)
        assert stats.encode_misses == encode_misses
        assert stats.hazard_misses == hazard_misses
        assert stats.dedup_hits >= 1
        # The fresh programs still get fingerprints for the compile memo.
        for program in regenerated.columns.values():
            assert program._fingerprint is not None

    def test_same_code_different_srf_init_shares_one_compilation(self):
        sim = Vwr2a()
        taps = lowpass_taps_q15(11, 0.1)
        layout = plan_fir(sim.params, 256, 11)
        first = build_fir_kernel(sim.params, taps, layout, 0, layout.n_lines)
        # Same bundles, different baked addresses: a distinct kernel,
        # encoded to the same configuration words, so the compile memo
        # (keyed on those words) shares one compilation.
        second = build_fir_kernel(
            sim.params, taps, layout, 8, 8 + layout.n_lines
        )
        assert second is not first
        sim.store_kernel(first)
        sim.store_kernel(second)
        for col, program in second.columns.items():
            other = first.columns[col]
            assert program.srf_init != other.srf_init
            assert program._fingerprint == other._fingerprint
            assert compile_program(program, sim.params) \
                is compile_program(other, sim.params)
        # Both configs carry their store stamps: a fresh memory of the
        # same geometry stores them with zero encodes and hazard checks.
        fresh = Vwr2a()
        fresh.store_kernel(first)
        fresh.store_kernel(second)
        stats = fresh.config_mem.stats
        assert stats.encode_misses == stats.hazard_misses == 0
        assert stats.encode_hits \
            == len(first.columns) + len(second.columns)

    def test_double_store_charges_config_cycles_once_per_launch(self):
        # The historical double-store flow: runner.store + Vwr2a.execute
        # both store; the launch must charge the configuration load once.
        runner = KernelRunner()
        vwr2a = runner.soc.vwr2a
        config = elementwise_kernel(
            vwr2a.params, RCOp.SADD, 256, 0, 2, 4, name="double_store"
        )
        runner.store(config)
        snapshot = runner.events_snapshot()
        result = vwr2a.execute(config)  # second store + launch
        assert vwr2a.config_mem.stats.dedup_hits >= 1
        expected = config.load_cycles(vwr2a.params)
        assert result.config_cycles == expected
        diff = runner.events_since(snapshot)
        total_words = sum(
            len(p.bundles) for p in config.columns.values()
        )
        # CONFIG_WORD events tick exactly once per configuration word of
        # exactly one install.
        assert diff.get("config.word", 0) == total_words

    def test_store_then_launch_ledger_charges_once(self):
        runner = KernelRunner()
        config = elementwise_kernel(
            runner.soc.params, RCOp.SSUB, 256, 0, 2, 4, name="ledger"
        )
        runner.store(config)
        runner.store(config)  # idempotent re-store
        result = runner.launch(config.name)
        assert result.config_cycles \
            == config.load_cycles(runner.soc.params)
