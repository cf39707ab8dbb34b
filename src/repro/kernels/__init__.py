"""VWR2A kernel mappings: the paper's evaluated workloads as real
instruction streams, plus the staging/launch infrastructure."""

from repro.kernels.delineation import (
    DelineationRun,
    build_delineation_kernel,
    run_delineation,
)
from repro.kernels.features import (
    ScalarResult,
    run_accumulate,
    run_intervals,
)
from repro.kernels.fft import (
    FftEngine,
    FftPlan,
    FftRun,
    cg_fft_reference_int,
    master_twiddles,
    stage_table,
)
from repro.kernels.fft2048 import (
    SplitFftEngine,
    split_fft_reference_int,
)
from repro.kernels.fir import (
    FirLayout,
    FirRun,
    build_fir_kernel,
    fir_fx_reference,
    plan_fir,
    run_fir,
)
from repro.kernels.macro import ColumnKernelBuilder
from repro.kernels.rfft import RfftEngine, rfft_reference_int
from repro.kernels.runner import KernelRun, KernelRunner, RunnerFactory
from repro.kernels.vector import elementwise_kernel, plan_split, scalar_kernel

__all__ = [
    "DelineationRun",
    "build_delineation_kernel",
    "run_delineation",
    "ScalarResult",
    "run_accumulate",
    "run_intervals",
    "FftEngine",
    "FftPlan",
    "FftRun",
    "cg_fft_reference_int",
    "master_twiddles",
    "stage_table",
    "SplitFftEngine",
    "split_fft_reference_int",
    "FirLayout",
    "FirRun",
    "build_fir_kernel",
    "fir_fx_reference",
    "plan_fir",
    "run_fir",
    "ColumnKernelBuilder",
    "RfftEngine",
    "rfft_reference_int",
    "KernelRun",
    "KernelRunner",
    "RunnerFactory",
    "elementwise_kernel",
    "plan_split",
    "scalar_kernel",
]
