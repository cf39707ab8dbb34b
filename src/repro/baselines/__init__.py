"""Cortex-M4 + CMSIS-DSP baselines: bit-accurate kernels + cycle models."""

from repro.baselines.cmsis_fft import FftResult, cfft_q15, rfft_q15
from repro.baselines.cmsis_fir import (
    FirResult,
    fir_q15,
    lowpass_taps_q15,
)
from repro.baselines.cpu_cost import (
    CPU_PJ_PER_CYCLE,
    cfft_cycles,
    fir_cycles,
    rfft_cycles,
)
from repro.baselines.dsp import (
    Delineation,
    FeatureSet,
    band_power,
    delineate,
    extract_features,
    isqrt_int,
    mean_int,
    median_int,
    rms_int,
)
from repro.baselines.svm import SvmModel, SvmResult, default_workload_model, predict

__all__ = [
    "FftResult",
    "cfft_q15",
    "rfft_q15",
    "FirResult",
    "fir_q15",
    "lowpass_taps_q15",
    "CPU_PJ_PER_CYCLE",
    "cfft_cycles",
    "fir_cycles",
    "rfft_cycles",
    "Delineation",
    "FeatureSet",
    "band_power",
    "delineate",
    "extract_features",
    "isqrt_int",
    "mean_int",
    "median_int",
    "rms_int",
    "SvmModel",
    "SvmResult",
    "default_workload_model",
    "predict",
]
