"""The MBioTracker cognitive-workload application (Sec. 4.4.2, Table 5).

Four steps — preprocessing (11-tap FIR), delineation (extrema detection),
feature extraction (time features + 512-point real FFT + band powers) and
SVM prediction — executed in the paper's three configurations:

* ``cpu``: everything on the Cortex-M4 (CMSIS-DSP q15 models);
* ``cpu_fft_accel``: the CPU offloads only the 512-point real FFT to the
  fixed-function accelerator (which "cannot execute anything else",
  Sec. 5.2.3) — the accelerator stays power-gated in the other steps;
* ``cpu_vwr2a``: the CPU only manages high-level control; FIR,
  delineation, FFT, interval/band-power accumulations and the SVM MACs
  run on VWR2A. The filtered signal and its spectrum stay resident in the
  SPM across steps (the paper's locality argument); only tiny scalars
  cross the bus. The O(10)-element epilogues (means' divides, RMS square
  root, median selection) remain on the CPU as part of its control role.

Every step records cycles and an event window, so the Table 5 energy
column falls out of the calibrated energy model.

The per-window pipeline is exposed to the serving layer
(:mod:`repro.serve`) through :func:`window_pipeline`;
:func:`run_application` is a thin single-window client of the stream
scheduler and keeps its historical signature and bit-identical results.
Application parameters that the sweeps vary (filter taps, delineation
threshold, spectral feature bands) live in :class:`AppParams`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import (
    default_workload_model,
    delineate,
    extract_features,
    fir_q15,
    lowpass_taps_q15,
    predict,
    rfft_q15,
)
from repro.baselines.cpu_cost import (
    FEAT_APP_CPU_LUMP,
    FEAT_APP_VWR2A_RATIO,
    FEAT_EPILOGUE,
    FEAT_SORT_STEP,
)
from repro.baselines.dsp import _intervals, band_power, mean_int, median_int, rms_int
from repro.core.errors import ConfigurationError
from repro.kernels.delineation import run_delineation
from repro.kernels.features import run_accumulate, run_intervals
from repro.kernels.fir import plan_fir, run_fir
from repro.kernels.rfft import RfftEngine
from repro.kernels.runner import KernelRunner
from repro.kernels.vector import elementwise_kernel, scalar_kernel
from repro.isa.rc import RCOp

#: Application window (samples): matches the paper's 512-point FFT in the
#: feature step and its per-step CPU cycle counts.
WINDOW = 512
FIR_TAPS = 11
FIR_CUTOFF = 0.08
DELINEATION_THRESHOLD = 2500
#: Respiration band quartering of the 256 usable spectrum bins.
BANDS = ((1, 8), (8, 24), (24, 64), (64, 256))

CONFIGS = ("cpu", "cpu_fft_accel", "cpu_vwr2a")


@dataclass(frozen=True)
class AppParams:
    """Tunable application parameters (the sweep axes of ``repro.serve``).

    The defaults reproduce the paper's pipeline exactly; a
    :class:`~repro.serve.ParameterSweep` runs the same trace under many
    variants (shorter filters, different spectral feature bands, other
    delineation thresholds) on one shared runner. The FFT size is tied to
    :data:`WINDOW` and is not a free parameter.
    """

    fir_taps: int = FIR_TAPS
    fir_cutoff: float = FIR_CUTOFF
    delineation_threshold: int = DELINEATION_THRESHOLD
    bands: tuple = BANDS


@dataclass
class StepResult:
    """Cycles + activity window of one application step."""

    name: str
    cycles: int = 0
    cpu_active: int = 0
    cpu_sleep: int = 0
    events: dict = field(default_factory=dict)


@dataclass
class AppResult:
    """Per-step results plus the predicted workload label."""

    config: str
    steps: dict
    label: int
    score: int
    features: list

    @property
    def total_cycles(self) -> int:
        return sum(step.cycles for step in self.steps.values())



def _epilogue_cycles(n_insp: int, n_exp: int) -> int:
    """CPU cost of the tiny divide/isqrt/median epilogues."""
    sort_steps = sum(
        n * max(n.bit_length(), 1) for n in (n_insp, n_exp)
    )
    return int(round(FEAT_SORT_STEP * sort_steps + FEAT_EPILOGUE * 8))


def _assemble_features(insp, exp, bands) -> list:
    """11-entry feature vector; ``bands`` already path-normalized to the
    common scale (spectrum power >> 24)."""
    return [
        mean_int(insp), median_int(insp), rms_int(insp),
        mean_int(exp), median_int(exp), rms_int(exp),
        *bands,
        len(insp),
    ]


def run_application(samples, config: str, runner: KernelRunner = None,
                    params: AppParams = None) -> AppResult:
    """Run one MBioTracker window in the given configuration.

    A caller-provided ``runner`` is reused across windows: the window
    stages from the base of the runner's staging region, and the region
    is left as it was found. Keep your own SRAM-resident buffers below
    it (:meth:`KernelRunner.reserve_sram`).
    ``params`` overrides the pipeline's tunables (:class:`AppParams`).

    This is a thin single-window client of the stream API: multi-window
    traces are better served through :func:`repro.serve.serve_trace`,
    which amortizes kernel stores across windows.
    """
    if len(samples) != WINDOW:
        raise ConfigurationError(
            f"the application window is {WINDOW} samples, got {len(samples)}"
        )
    if config not in CONFIGS:
        raise ConfigurationError(
            f"unknown configuration {config!r} (choose from {CONFIGS})"
        )
    from repro.serve import StreamScheduler, WindowStream

    scheduler = StreamScheduler(
        config=config, params=params, runner=runner,
    )
    report = scheduler.run(WindowStream(samples, window=WINDOW))
    return report.windows[0].app


@dataclass(frozen=True)
class WindowPipeline:
    """The MBioTracker window pipeline bound to a config + parameters.

    The stream scheduler's unit of work: calling it runs one window on
    the given runner and returns the :class:`AppResult`. A frozen
    dataclass rather than a closure so it pickles — pool workers
    (:class:`~repro.serve.PoolScheduler`) receive the pipeline by value
    and rebuild nothing, and its ``repr`` is restart-stable, which is
    what stream checkpoints fingerprint. Custom pipelines with the same
    ``(runner, samples)`` signature can be served through
    :class:`repro.serve.StreamScheduler` directly.
    """

    config: str
    params: AppParams

    def __call__(self, runner: KernelRunner, samples) -> AppResult:
        return _run_window(samples, self.config, runner, self.params)


def window_pipeline(config: str, params: AppParams = None) -> WindowPipeline:
    """Bind ``config``/``params`` into a picklable window pipeline."""
    if config not in CONFIGS:
        raise ConfigurationError(
            f"unknown configuration {config!r} (choose from {CONFIGS})"
        )
    return WindowPipeline(
        config=config, params=params if params is not None else AppParams()
    )


def _run_window(samples, config: str, runner: KernelRunner,
                params: AppParams) -> AppResult:
    """The four-step pipeline over one staged window (no SRAM rewind)."""
    if len(samples) != WINDOW:
        raise ConfigurationError(
            f"the application window is {WINDOW} samples, got {len(samples)}"
        )
    taps = lowpass_taps_q15(params.fir_taps, params.fir_cutoff)
    model = default_workload_model()
    soc = runner.soc
    steps = {}

    def step_window(name):
        return _StepWindow(name, soc, steps)

    if config in ("cpu", "cpu_fft_accel"):
        soc.without_accelerators()
        with step_window("preprocessing"):
            fir = fir_q15(samples, taps)
            soc.run_cpu(fir.cycles)
        with step_window("delineation"):
            delineation = delineate(
                fir.samples, params.delineation_threshold
            )
            soc.run_cpu(delineation.cycles)
        with step_window("features"):
            if config == "cpu":
                spectrum = rfft_q15(fir.samples)
                soc.run_cpu(spectrum.cycles)
                sp_re, sp_im = spectrum.re[:257], spectrum.im[:257]
                # rfft_q15 output is the true spectrum / 256.
                bands = [
                    band_power(sp_re, sp_im, lo, hi) >> 8
                    for lo, hi in params.bands
                ]
            else:
                soc.with_accelerators()
                accel = soc.fft_accel.real_fft(fir.samples)
                soc.cpu.sleep(accel.cycles)
                soc.power.advance(accel.cycles)
                soc.run_cpu(300)  # accelerator driver / IRQ handling
                soc.without_accelerators()
                sp_re, sp_im = accel.re, accel.im
                # Accelerator mantissas carry a block exponent.
                bands = [
                    (band_power(sp_re, sp_im, lo, hi)
                     << (2 * accel.scale)) >> 24
                    for lo, hi in params.bands
                ]
            features = _assemble_features(
                delineation.insp_times, delineation.exp_times, bands
            )
            feat = extract_features(
                delineation.insp_times, delineation.exp_times,
                sp_re, sp_im,
            )
            soc.run_cpu(feat.cycles)
            soc.run_cpu(FEAT_APP_CPU_LUMP)
            svm = predict(model, features)
            soc.run_cpu(svm.cycles)
        return AppResult(
            config=config, steps=steps, label=svm.label,
            score=svm.score, features=features,
        )

    # ---- cpu_vwr2a -----------------------------------------------------------
    soc.with_accelerators()
    arch = soc.params
    line_words = arch.line_words

    # High-SPM scratch area that no kernel layout touches: delineation
    # outputs, intervals, accumulator and SVM words live in the top 2048
    # words (the paper geometry's top 16 lines) regardless of line width.
    hi_base = arch.spm_words - 16 * 128

    with step_window("preprocessing"):
        fir = run_fir(runner, taps, samples, spm_x_line=0)
        filtered = fir.samples
        # Keep the filtered window resident in the SPM for the next steps
        # (compacted copy staged back through the DMA).
        layout = plan_fir(arch, WINDOW, params.fir_taps)
        compact_line = 2 * layout.n_lines
        runner.stage_in(filtered, compact_line * line_words)
        soc.run_cpu(60)  # kernel-parameter programming

    with step_window("delineation"):
        delineation = run_delineation(
            runner, filtered, params.delineation_threshold,
            x_word=compact_line * line_words, stage_input=False,
            out_word=hi_base,
        )
        maxima, minima = delineation.maxima, delineation.minima

    with step_window("features"):
        # 512-point real FFT of the resident filtered signal; spectrum
        # stays in the SPM.
        rfft = RfftEngine(runner, WINDOW)
        spec = rfft.run(filtered, collect=False)
        sp_re, sp_im = spec.re, spec.im
        # Interval extraction on the array (positions already in the SPM).
        insp_ref = _intervals(minima, maxima)
        exp_ref = _intervals(maxima, minima)
        max_word = hi_base
        min_word = max_word + WINDOW + 2
        iv_word = min_word + WINDOW + 2
        n_insp, n_exp = len(insp_ref), len(exp_ref)
        insp_off = 0 if (maxima and minima and minima[0] < maxima[0]) else 1
        exp_off = 0 if (maxima and minima and maxima[0] < minima[0]) else 1
        run_intervals(
            runner,
            insp_spec=(max_word + insp_off, min_word, iv_word, n_insp),
            exp_spec=(min_word + exp_off, max_word, iv_word + n_insp, n_exp),
        )
        spm = soc.vwr2a.spm
        insp = spm.peek_words(iv_word, n_insp) if n_insp else []
        exp = spm.peek_words(iv_word + n_insp, n_exp) if n_exp else []
        # Sum / sum-of-squares accumulations for mean and RMS.
        acc_word = iv_word + n_insp + n_exp + 4
        sums = {}
        for key, word, count, squares in (
            ("insp_sum", iv_word, n_insp, False),
            ("insp_sq", iv_word, n_insp, True),
            ("exp_sum", iv_word + n_insp, n_exp, False),
            ("exp_sq", iv_word + n_insp, n_exp, True),
        ):
            sums[key] = run_accumulate(
                runner, word, count, acc_word, squares=squares
            ).value
        # Band powers over the resident spectrum: normalize (>> 12, the
        # common feature scale and overflow headroom for the squares),
        # square and add with vector kernels, then per-band accumulations.
        spec_lines = -(-256 // line_words)  # 256 usable bins
        pow_line = rfft.w_line + (rfft.w_lines if rfft.w_resident else 2)
        pow_line = min(pow_line, arch.spm_lines - 2 * spec_lines)
        power_word = pow_line * line_words
        sq_word = power_word + spec_lines * line_words
        for name, op, a_line, b_line, scalar_arg, c_line in (
            ("nrm_re", RCOp.SRA, rfft.xre_line, None, 12, pow_line),
            ("nrm_im", RCOp.SRA, rfft.xim_line, None, 12,
             pow_line + spec_lines),
            ("sq_re", RCOp.SMUL, pow_line, pow_line, None, pow_line),
            ("sq_im", RCOp.SMUL, pow_line + spec_lines,
             pow_line + spec_lines, None, pow_line + spec_lines),
            ("sum", RCOp.SADD, pow_line, pow_line + spec_lines, None,
             pow_line),
        ):
            if scalar_arg is not None:
                cfg = scalar_kernel(
                    arch, op, spec_lines * line_words,
                    a_line=a_line, c_line=c_line, scalar=scalar_arg,
                    name=name,
                )
            else:
                cfg = elementwise_kernel(
                    arch, op, spec_lines * line_words,
                    a_line=a_line, b_line=b_line, c_line=c_line,
                    name=name,
                )
            runner.execute(cfg)
        bands = []
        for lo, hi in params.bands:
            bands.append(run_accumulate(
                runner, power_word + lo, hi - lo, acc_word
            ).value)
        # CPU epilogue: divides, isqrt, medians over ~10-element arrays.
        soc.run_cpu(_epilogue_cycles(n_insp, n_exp))
        # The unpublished remainder of the feature set (see cpu_cost):
        # VWR2A executes it at the measured kernel speed-up ratio.
        lump = int(FEAT_APP_CPU_LUMP / FEAT_APP_VWR2A_RATIO)
        soc.cpu.sleep(lump)
        soc.power.advance(lump)
        features = _assemble_features(insp, exp, bands)
        # SVM decision function on VWR2A: stage features + weights, MAC.
        svm_word = acc_word + 2
        runner.stage_in(features, svm_word)
        runner.stage_in(model.weights[0], svm_word + len(features))
        dot = run_accumulate(
            runner, svm_word, len(features), acc_word,
            b_word=svm_word + len(features),
        ).value
        score = dot + model.bias
        label = 1 if score >= 0 else -1
        soc.run_cpu(40)  # final thresholding + state copy-back

    return AppResult(
        config="cpu_vwr2a", steps=steps, label=label,
        score=score, features=features,
    )


class _StepWindow:
    """Context manager capturing cycles + events of one step."""

    def __init__(self, name: str, soc, steps: dict) -> None:
        self.name = name
        self.soc = soc
        self.steps = steps

    def __enter__(self):
        self._events = self.soc.events.snapshot()
        self._active = self.soc.cpu.active_cycles
        self._sleep = self.soc.cpu.sleep_cycles
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        active = self.soc.cpu.active_cycles - self._active
        sleep = self.soc.cpu.sleep_cycles - self._sleep
        self.steps[self.name] = StepResult(
            name=self.name,
            cycles=active + sleep,
            cpu_active=active,
            cpu_sleep=sleep,
            events=self.soc.events.diff(self._events),
        )
        return False
