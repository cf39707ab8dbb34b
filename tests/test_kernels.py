"""Integration tests: every VWR2A kernel against its golden model."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEFAULT_PARAMS
from repro.baselines import delineate, lowpass_taps_q15
from repro.core.errors import ConfigurationError
from repro.explore.space import design_space
from repro.isa.encoding import encode_bundle
from repro.isa.rc import RCOp
from repro.kernels import (
    FftEngine,
    KernelRunner,
    RfftEngine,
    SplitFftEngine,
    cg_fft_reference_int,
    elementwise_kernel,
    fir_fx_reference,
    plan_fir,
    rfft_reference_int,
    run_delineation,
    run_fir,
    scalar_kernel,
    split_fft_reference_int,
)
from repro.kernels.features import run_accumulate, run_intervals

q15 = st.integers(-32768, 32767)


class TestVectorKernels:
    @pytest.mark.parametrize("op,fn", [
        (RCOp.SADD, lambda a, b: a + b),
        (RCOp.SSUB, lambda a, b: a - b),
        (RCOp.SMUL, lambda a, b: a * b),
        (RCOp.SMAX, max),
        (RCOp.SMIN, min),
    ])
    def test_elementwise_ops(self, op, fn):
        runner = KernelRunner()
        n = 256
        x = [(i * 37) % 100 - 50 for i in range(n)]
        y = [(i * 11) % 90 - 45 for i in range(n)]
        runner.stage_in(x, 0)
        runner.stage_in(y, n)
        cfg = elementwise_kernel(
            DEFAULT_PARAMS, op, n, a_line=0, b_line=2, c_line=4
        )
        runner.execute(cfg)
        out, _ = runner.stage_out(4 * 128, n)
        assert out == [fn(a, b) for a, b in zip(x, y)]

    def test_scalar_kernel(self):
        runner = KernelRunner()
        n = 128
        x = list(range(-64, 64))
        runner.stage_in(x, 0)
        cfg = scalar_kernel(
            DEFAULT_PARAMS, RCOp.SMUL, n, a_line=0, c_line=1, scalar=-3
        )
        runner.execute(cfg)
        out, _ = runner.stage_out(128, n)
        assert out == [v * -3 for v in x]

    @given(st.lists(q15, min_size=128, max_size=128))
    @settings(max_examples=10, deadline=None)
    def test_elementwise_add_property(self, x):
        runner = KernelRunner()
        runner.stage_in(x, 0)
        runner.stage_in(x, 128)
        cfg = elementwise_kernel(
            DEFAULT_PARAMS, RCOp.SADD, 128, a_line=0, b_line=1, c_line=2
        )
        runner.execute(cfg)
        out, _ = runner.stage_out(256, 128)
        assert out == [2 * v for v in x]


class TestFirKernel:
    def test_bit_exact_vs_golden(self):
        rng = np.random.default_rng(7)
        taps = lowpass_taps_q15(11, 0.1)
        x = (rng.uniform(-0.4, 0.4, 300) * 32768).astype(int).tolist()
        result = run_fir(KernelRunner(), taps, x)
        assert result.samples == fir_fx_reference(x, taps)

    def test_non_multiple_sizes(self):
        taps = lowpass_taps_q15(7, 0.2)
        x = list(range(-40, 37))   # 77 samples, 7 taps
        result = run_fir(KernelRunner(), taps, x)
        assert result.samples == fir_fx_reference(x, taps)

    def test_layout_math(self):
        layout = plan_fir(DEFAULT_PARAMS, 256, 11)
        assert layout.outputs_per_slice == 22
        assert layout.n_slices == 12
        assert layout.n_lines == 3
        order = layout.gather_in_order(DEFAULT_PARAMS)
        assert len(order) == layout.padded_input_words(DEFAULT_PARAMS)
        out_order = layout.gather_out_order(DEFAULT_PARAMS)
        assert len(set(out_order)) == 256  # distinct sparse positions

    def test_cycles_near_paper(self):
        taps = lowpass_taps_q15(11, 0.1)
        result = run_fir(KernelRunner(), taps, [100] * 256)
        assert 0.7 < result.run.total_cycles / 1849 < 1.5

    @given(st.lists(q15, min_size=30, max_size=80))
    @settings(max_examples=10, deadline=None)
    def test_fir_property_random(self, x):
        taps = lowpass_taps_q15(11, 0.15)
        result = run_fir(KernelRunner(), taps, x)
        assert result.samples == fir_fx_reference(x, taps)


class TestFftKernels:
    @pytest.mark.parametrize("n", [256, 512])
    def test_complex_bit_exact(self, n):
        rng = np.random.default_rng(n)
        re = (rng.uniform(-0.4, 0.4, n) * 32768).astype(int).tolist()
        im = (rng.uniform(-0.4, 0.4, n) * 32768).astype(int).tolist()
        out = FftEngine(KernelRunner(), n).run(re, im)
        gr, gi = cg_fft_reference_int(re, im)
        assert out.re == gr and out.im == gi

    def test_complex_1024_streaming_tables(self):
        rng = np.random.default_rng(9)
        re = (rng.uniform(-0.3, 0.3, 1024) * 32768).astype(int).tolist()
        engine = FftEngine(KernelRunner(), 1024)
        assert not engine.plan.resident_tables
        out = engine.run(re, [0] * 1024)
        gr, gi = cg_fft_reference_int(re, [0] * 1024)
        assert out.re == gr and out.im == gi

    def test_reference_matches_numpy(self):
        rng = np.random.default_rng(10)
        n = 512
        re = (rng.uniform(-0.4, 0.4, n) * 32768).astype(int).tolist()
        im = (rng.uniform(-0.4, 0.4, n) * 32768).astype(int).tolist()
        gr, gi = cg_fft_reference_int(re, im)
        ref = np.fft.fft((np.array(re) + 1j * np.array(im)) / 32768)
        got = (np.array(gr) + 1j * np.array(gi)) / 32768
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-3

    def test_linearity_property(self):
        """FFT(a) + FFT(b) ~= FFT(a+b) (integer rounding aside)."""
        rng = np.random.default_rng(11)
        n = 256
        a = (rng.uniform(-0.2, 0.2, n) * 32768).astype(int).tolist()
        b = (rng.uniform(-0.2, 0.2, n) * 32768).astype(int).tolist()
        fa = cg_fft_reference_int(a, [0] * n)
        fb = cg_fft_reference_int(b, [0] * n)
        fab = cg_fft_reference_int(
            [x + y for x, y in zip(a, b)], [0] * n
        )
        diff = max(
            abs(fab[0][k] - fa[0][k] - fb[0][k]) for k in range(n)
        )
        assert diff <= 64  # per-stage truncation accumulation only

    def test_real_fft_bit_exact(self):
        rng = np.random.default_rng(12)
        x = (rng.uniform(-0.4, 0.4, 512) * 32768).astype(int).tolist()
        out = RfftEngine(KernelRunner(), 512).run(x)
        gr, gi = rfft_reference_int(x)
        assert out.re == gr and out.im == gi

    def test_real_fft_dc_and_nyquist(self):
        x = [1000] * 512
        out = RfftEngine(KernelRunner(), 512).run(x)
        ref = np.fft.rfft(np.array(x))
        assert out.re[0] == pytest.approx(ref[0].real, rel=0.01)
        assert abs(out.re[256]) <= 2
        assert out.im[256] == 0

    def test_split_2048_bit_exact(self):
        rng = np.random.default_rng(13)
        re = (rng.uniform(-0.3, 0.3, 2048) * 32768).astype(int).tolist()
        im = (rng.uniform(-0.3, 0.3, 2048) * 32768).astype(int).tolist()
        out = SplitFftEngine(KernelRunner()).run(re, im)
        gr, gi = split_fft_reference_int(re, im)
        assert out.re == gr and out.im == gi

    def test_prepare_is_one_time(self):
        runner = KernelRunner()
        engine = FftEngine(runner, 256)
        first = engine.prepare()
        assert engine.prepare() == first
        assert first > 0  # resident tables are DMA'd

    #: sha256 over every configuration word and sorted SRF init of every
    #: FFT-family launch below. Any change to the batch, mirror, G/H, X/W
    #: or combine kernels' instruction streams moves it.
    WORDS_DIGEST = (
        "15e50e9bb824f5ce6c976cdfa58d499c8c4749e463190352f98f20bcce1c2b38"
    )

    def test_fft_family_config_words_are_pinned(self):
        """Complex, real and split transforms on the paper, 16 KiB and
        1-column 16 KiB specs (streamed stage tables at paper FFT-1024 and
        spm16K rFFT-512, streamed recombination table at 1col-spm16K
        rFFT-1024) launch exactly the pinned instruction words."""
        specs = {spec.name: spec for spec in design_space()}
        digest = hashlib.sha256()
        for name in ("paper", "spm16K", "1col-spm16K"):
            for engine, n in ((FftEngine, 256), (FftEngine, 512),
                              (FftEngine, 1024), (RfftEngine, 512),
                              (RfftEngine, 1024), (RfftEngine, 2048),
                              (SplitFftEngine, 2048)):
                runner = KernelRunner(spec=specs[name])
                try:
                    fft = engine(runner, n)
                except ConfigurationError:
                    continue
                launched = []
                execute = runner.execute

                def record(config, max_cycles=None, execute=execute):
                    launched.append(config)
                    return execute(config, max_cycles=max_cycles)

                runner.execute = record
                if engine is RfftEngine:
                    fft.run([0] * n)
                else:
                    fft.run([0] * n, [0] * n)
                assert launched
                for config in launched:
                    digest.update(config.name.encode())
                    for col, program in sorted(config.columns.items()):
                        digest.update(repr((
                            col,
                            [encode_bundle(b) for b in program.bundles],
                            sorted(program.srf_init.items()),
                        )).encode())
        assert digest.hexdigest() == self.WORDS_DIGEST


class TestDelineationKernel:
    def _resp(self, n=512):
        t = np.arange(n)
        return (8000 * np.sin(2 * np.pi * t / 75)
                + 800 * np.sin(2 * np.pi * t / 11)).astype(int).tolist()

    def test_matches_reference_exactly(self):
        sig = self._resp()
        ref = delineate(sig, 2500)
        out = run_delineation(KernelRunner(), sig, 2500)
        assert out.maxima == ref.maxima
        assert out.minima == ref.minima

    @given(st.integers(500, 6000), st.integers(40, 120))
    @settings(max_examples=8, deadline=None)
    def test_matches_reference_across_thresholds(self, thr, period):
        t = np.arange(400)
        sig = (8000 * np.sin(2 * np.pi * t / period)).astype(int).tolist()
        ref = delineate(sig, thr)
        out = run_delineation(KernelRunner(), sig, thr)
        assert out.maxima == ref.maxima
        assert out.minima == ref.minima

    def test_ilp_advantage(self):
        sig = self._resp()
        ref = delineate(sig, 2500)
        out = run_delineation(KernelRunner(), sig, 2500)
        assert out.run.compute_cycles < ref.cycles / 5


class TestScalarKernels:
    def test_accumulate_sum_and_squares(self):
        runner = KernelRunner()
        data = [3, -4, 10, 7]
        runner.stage_in(data, 0)
        total = run_accumulate(runner, 0, 4, 100)
        assert total.value == 16
        sq = run_accumulate(runner, 0, 4, 100, squares=True)
        assert sq.value == 9 + 16 + 100 + 49

    def test_accumulate_dot_product(self):
        runner = KernelRunner()
        runner.stage_in([1, 2, 3], 0)
        runner.stage_in([10, -20, 30], 8)
        dot = run_accumulate(runner, 0, 3, 100, b_word=8)
        assert dot.value == 10 - 40 + 90

    def test_intervals_kernel(self):
        runner = KernelRunner()
        runner.stage_in([30, 70, 110], 0)    # maxima
        runner.stage_in([10, 50, 90], 8)     # minima
        run_intervals(
            runner,
            insp_spec=(0, 8, 16, 3),
            exp_spec=(8 + 1, 0, 19, 2),
        )
        spm = runner.soc.vwr2a.spm
        assert spm.peek_words(16, 3) == [20, 20, 20]
        assert spm.peek_words(19, 2) == [20, 20]

    def test_empty_accumulate(self):
        runner = KernelRunner()
        result = run_accumulate(runner, 0, 0, 100)
        assert result.value == 0
