"""Runner staging, macro idioms, synchronizer, and small-config variants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEFAULT_PARAMS, DEFAULT_SPEC, ArchParams
from repro.core import Vwr2a
from repro.core.errors import ConfigurationError, ProgramError
from repro.core.synchronizer import Synchronizer
from repro.isa import KernelConfig, Vwr
from repro.isa.bundle import make_bundle
from repro.isa.fields import DST_VWR_C, VWR_A, imm
from repro.isa.lsu import ld_vwr, st_vwr
from repro.isa.rc import RCOp, rc
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.runner import KernelRunner


class TestRunnerStaging:
    def test_sram_alloc_bump(self):
        r = KernelRunner()
        a = r.sram_alloc(100)
        b = r.sram_alloc(50)
        assert b == a + 100
        with pytest.raises(ConfigurationError):
            r.sram_alloc(10**9)

    def test_reserve_sram_moves_the_region_above_the_block(self):
        r = KernelRunner()
        n_words = r.soc.sram.n_words
        r.sram_alloc(10)  # transient: the block lands above it
        assert r.reserve_sram([0] * 100) == 10
        assert r.sram_region == (110, n_words - 110)
        r.reset_sram()
        assert r.sram_alloc(1) == 110

    def test_stage_roundtrip_identity(self):
        r = KernelRunner()
        data = list(range(-100, 156))
        c_in = r.stage_in(data, 0)
        out, c_out = r.stage_out(0, len(data))
        assert out == data
        assert c_in > len(data) and c_out > len(data)

    @given(st.lists(st.integers(-(2**31), 2**31 - 1),
                    min_size=1, max_size=300))
    @settings(max_examples=20, deadline=None)
    def test_permuted_stage_in(self, data):
        r = KernelRunner()
        order = list(reversed(range(len(data))))
        r.stage_in(data, 0, order=order)
        got = r.soc.vwr2a.spm.peek_words(0, len(data))
        assert got == list(reversed(data))

    def test_event_windows(self):
        r = KernelRunner()
        snap = r.events_snapshot()
        r.stage_in([1, 2, 3], 0)
        diff = r.events_since(snap)
        assert any("dma" in k for k in diff)


class TestMacroIdioms:
    def test_vector_pass_rejects_odd_positions(self):
        kb = ColumnKernelBuilder(DEFAULT_PARAMS)
        with pytest.raises(ProgramError):
            kb.vector_pass(rc(RCOp.MOV, DST_VWR_C, VWR_A), positions=7)

    def test_multi_pass_needs_body(self):
        kb = ColumnKernelBuilder(DEFAULT_PARAMS)
        with pytest.raises(ProgramError):
            kb.multi_pass([(rc(RCOp.MOV, DST_VWR_C, VWR_A), None)])

    def test_partial_positions(self):
        """vector_pass over a sub-slice leaves the tail untouched."""
        sim = Vwr2a()
        sim.spm.poke_words(0, [7] * 128)
        kb = ColumnKernelBuilder(DEFAULT_PARAMS)
        kb.srf(0, 0)
        kb.srf(1, 1)
        kb.emit(lsu=ld_vwr(Vwr.A, 0))
        kb.vector_pass(
            rc(RCOp.SADD, DST_VWR_C, VWR_A, imm(1)), positions=8
        )
        kb.emit(lsu=st_vwr(Vwr.C, 1))
        kb.exit()
        sim.execute(KernelConfig(name="p", columns={0: kb.build()}))
        out = sim.spm.peek_words(128, 128)
        for s in range(4):
            # Positions iterate k = 0..7 within each slice.
            assert out[32 * s: 32 * s + 8] == [8] * 8

    def test_counted_loop_bounds(self):
        sim = Vwr2a()
        kb = ColumnKernelBuilder(DEFAULT_PARAMS)
        with kb.counted_loop(reg=1, count=5):
            kb.emit()
        kb.exit()
        result = sim.execute(KernelConfig(name="c", columns={0: kb.build()}))
        # init + 5 * (body + addi + blt) + exit
        assert result.cycles == 1 + 5 * 3 + 1

    def test_scratch_walker_chains_post_increments(self):
        """Each scratch access carries the step to the next one's line;
        bundles emitted between the accesses are left as emitted."""
        kb = ColumnKernelBuilder(DEFAULT_PARAMS)
        s = kb.scratch(7, 40)
        mov = [rc(RCOp.MOV, DST_VWR_C, VWR_A)] * 4
        s.st(Vwr.C, 0)
        kb.emit(rcs=mov)
        s.ld(Vwr.A, 2)
        s.st(Vwr.C, 2)
        kb.emit(lsu=ld_vwr(Vwr.B, 0, inc=1))
        s.ld(Vwr.B, 5)
        s.st(Vwr.C, 1)
        kb.exit()
        program = kb.build()
        assert program.srf_init == {7: 40}
        assert [program.bundles[pc] for pc in (0, 2, 3, 5, 6)] == [
            make_bundle(lsu=st_vwr(Vwr.C, 7, inc=2)),
            make_bundle(lsu=ld_vwr(Vwr.A, 7, inc=0)),
            make_bundle(lsu=st_vwr(Vwr.C, 7, inc=3)),
            make_bundle(lsu=ld_vwr(Vwr.B, 7, inc=-4)),
            make_bundle(lsu=st_vwr(Vwr.C, 7, inc=0)),
        ]
        assert program.bundles[1] == make_bundle(rcs=mov)
        assert program.bundles[4] == make_bundle(lsu=ld_vwr(Vwr.B, 0, inc=1))

    def test_fresh_labels_unique(self):
        kb = ColumnKernelBuilder(DEFAULT_PARAMS)
        labels = {kb.fresh_label() for _ in range(100)}
        assert len(labels) == 100


class TestSmallConfigs:
    """The simulator scales down: a 1-column, 32-word-VWR variant."""

    PARAMS = ArchParams(
        n_columns=1, vwr_words=32, spm_bytes=4096, srf_entries=8
    )

    def test_vector_kernel_on_small_array(self):
        from repro.kernels.vector import elementwise_kernel

        sim = Vwr2a(self.PARAMS)
        sim.spm.poke_words(0, list(range(32)))
        sim.spm.poke_words(32, [2] * 32)
        cfg = elementwise_kernel(
            self.PARAMS, RCOp.SMUL, 32, a_line=0, b_line=1, c_line=2
        )
        sim.execute(cfg)
        assert sim.spm.peek_words(64, 32) == [2 * v for v in range(32)]

    def test_slice_width(self):
        assert self.PARAMS.slice_words == 8
        assert self.PARAMS.spm_lines == 32


class TestSynchronizer:
    def test_completion_and_irq(self):
        sync = Synchronizer()
        fired = []
        sync.on_irq(fired.append)
        sync.kernel_finished("k", 123, [0, 1])
        assert sync.irq_pending
        assert fired[0].cycles == 123
        assert sync.total_kernel_cycles == 123
        sync.acknowledge()
        assert not sync.irq_pending

    def test_platform_irq_wiring(self):
        from repro.asm.builder import ProgramBuilder

        r = KernelRunner()
        b = ProgramBuilder()
        b.exit()
        r.store(KernelConfig(name="noop", columns={0: b.build()}))
        r.launch("noop")
        # The platform acknowledged the IRQ after the CPU "woke up".
        assert not r.soc.irq.pending("vwr2a")
        assert r.soc.vwr2a.synchronizer.completions[0].name == "noop"


SPM16K = DEFAULT_SPEC.vary("spm16K", spm_bytes=16 * 1024)
ONE_COL_SPM16K = DEFAULT_SPEC.vary(
    "1col-spm16K", n_columns=1, spm_bytes=16 * 1024
)


def _points(n: int, seed: int) -> list:
    return [((i * seed + (i * i) % 97) % 4001) - 2000 for i in range(n)]


class TestEngineTablesSurviveReset:
    """Engines reserve their SRAM twiddle tables below the staging region,
    so a ``reset_sram()`` between transforms cannot overwrite them.

    The complex transforms stream their tables at the paper's 32 KiB SPM
    (their layouts do not fit 16 KiB); the real FFT's inner transform
    streams its stage tables at 16 KiB, the spec where MBioTracker
    windows keep them in SRAM.
    """

    def test_fft_1024(self):
        from repro.kernels.fft import FftEngine, cg_fft_reference_int

        runner = KernelRunner()
        fft = FftEngine(runner, 1024)
        assert not fft.plan.resident_tables
        re, im = _points(1024, 31), _points(1024, 17)
        golden = cg_fft_reference_int(re, im)
        for _ in range(2):
            out = fft.run(re, im)
            assert (out.re, out.im) == golden
            runner.reset_sram()

    def test_split_fft_2048(self):
        from repro.kernels.fft2048 import (
            SplitFftEngine,
            split_fft_reference_int,
        )

        runner = KernelRunner()
        fft = SplitFftEngine(runner, 2048)
        re, im = _points(2048, 29), _points(2048, 13)
        golden = split_fft_reference_int(re, im)
        for _ in range(2):
            out = fft.run(re, im)
            assert (out.re, out.im) == golden
            runner.reset_sram()

    def test_split_fft_2048_engines_share_their_tables(self):
        """Engines built over and over on one runner reuse the table
        blocks the first one reserved instead of filling the SRAM."""
        from repro.kernels.fft2048 import (
            SplitFftEngine,
            split_fft_reference_int,
        )

        runner = KernelRunner()
        re, im = _points(2048, 29), _points(2048, 13)
        golden = split_fft_reference_int(re, im)
        for _ in range(10):
            fft = SplitFftEngine(runner, 2048)
            fft.prepare()
            runner.reset_sram()
            out = fft.run(re, im)
            assert (out.re, out.im) == golden
            runner.reset_sram()

    def test_rfft_512(self):
        from repro.kernels.rfft import RfftEngine, rfft_reference_int

        runner = KernelRunner(spec=SPM16K)
        rfft = RfftEngine(runner, 512)
        assert not rfft.cfft.plan.resident_tables
        samples = _points(512, 23)
        golden = rfft_reference_int(samples)
        for _ in range(2):
            out = rfft.run(samples)
            assert (out.re, out.im) == golden
            runner.reset_sram()

    def test_rfft_1024_streamed_recombination_table(self):
        """On one 16 KiB column the recombination table does not fit
        the SPM either: each launch streams its slice from SRAM."""
        from repro.kernels.rfft import RfftEngine, rfft_reference_int

        runner = KernelRunner(spec=ONE_COL_SPM16K)
        rfft = RfftEngine(runner, 1024)
        assert not rfft.w.resident
        samples = _points(1024, 19)
        golden = rfft_reference_int(samples)
        for _ in range(2):
            out = rfft.run(samples)
            assert (out.re, out.im) == golden
            runner.reset_sram()


def test_fft_layout_error_offers_only_advice_that_can_help():
    """The split engine's inner FFT-1024 already streams its tables on
    one 16 KiB column, so the error must not advise
    ``resident_tables=False``; a resident FFT-2048 plan still gets both
    ways out."""
    from repro.kernels.fft import FftPlan
    from repro.kernels.fft2048 import SplitFftEngine

    runner = KernelRunner(spec=ONE_COL_SPM16K)
    with pytest.raises(ConfigurationError) as excinfo:
        SplitFftEngine(runner, 2048)
    message = str(excinfo.value)
    assert message.startswith("FFT-1024 layout needs")
    assert "resident_tables" not in message
    assert "split-transform" not in message
    assert "larger SPM" in message
    with pytest.raises(ConfigurationError, match="use resident_tables=False "
                       "or the split-transform path"):
        FftPlan(2048, runner.soc.params)
