"""Cortex-M4 cycle-cost constants, calibrated to the paper.

The paper reports total M4 cycle counts (CMSIS-DSP, q15) for every
baseline; our cost model reproduces them structurally:

**FFT** (Table 2, CPU column). CMSIS ``cfft_q15`` uses radix-4 stages with
a final radix-2 stage for odd log2 sizes. Fitting::

    cycles = SETUP + K4*bf4 + K2*bf2 + K_IO*N            (complex)
    cycles = SETUP + cfft(N/2) + K_RECOMB*N/2 + K_IO*N   (real)

to the six Table 2 CPU counts gives K4 = 64.2, K2 = 51.7, K_RECOMB = 27.2,
K_IO = 2, SETUP = 500, with residuals under 1.1% on all six points.

**FIR** (Table 4). The three measured sizes are almost exactly linear:
cycles = 224 + 95.76 * N for 11 taps. Only the 11-tap point is measured,
so the per-tap/per-output split (FIR_PER_TAP = 7, FIR_PER_OUTPUT = 18.76)
is an assumption — it matches ~7 cycles for a q15 load+MAC+pointer update
on an M4 without SIMD-friendly alignment.

**Application steps** (Table 5, 512-sample window). Delineation:
46 268 cycles / 512 samples = 90.4 cycles per sample of branch-heavy
scanning. Feature extraction minus the Table 2 real-FFT-512 cost leaves
45 712 cycles for time features + band power + SVM; the per-operation
constants below reproduce that total for the nominal workload (see
``repro.app``).
"""

from __future__ import annotations

#: Average active power of the M4 core + SRAM at 80 MHz, derived from
#: Tables 4/5 (e.g. FIR-256: 0.37 uJ / 24 747 cycles = 14.95 pJ/cycle).
CPU_PJ_PER_CYCLE = 15.0

# -- FFT (CMSIS cfft_q15 / rfft_q15) --------------------------------------
FFT_SETUP = 500
FFT_K4 = 64.2          #: cycles per radix-4 butterfly
FFT_K2 = 51.7          #: cycles per radix-2 butterfly
FFT_K_RECOMB = 27.2    #: cycles per real-FFT split-stage element
FFT_K_IO = 2.0         #: cycles per point of buffer handling

# -- FIR (arm_fir_q15) ------------------------------------------------------
FIR_SETUP = 224
FIR_PER_OUTPUT = 18.76  #: loop overhead + store per output sample
FIR_PER_TAP = 7.0       #: load + MAC + pointer update per tap

# -- Delineation (branch-heavy scan) ----------------------------------------
DELINEATION_PER_SAMPLE = 90.4

# -- Feature extraction ------------------------------------------------------
#: Sorting cost (insertion-sort style, per comparison/swap step).
FEAT_SORT_STEP = 14.0
#: Accumulating ops: mean/RMS accumulation per element.
FEAT_MAC = 9.0
#: Band-power accumulation per spectrum bin (|X|^2 = 2 MAC + add).
FEAT_BIN = 20.0
#: Square root / division epilogue per feature.
FEAT_EPILOGUE = 120.0

# -- SVM ---------------------------------------------------------------------
SVM_MAC = 9.0          #: per (support-vector x dimension) MAC
SVM_KERNEL_EPILOGUE = 60.0

# -- Application-level feature lump -------------------------------------------
#: The paper's feature-extraction step (Table 5: 70 639 CPU cycles) is far
#: heavier than the published feature list alone; MBioTracker's full set
#: (Dell'Agnola et al. 2021) includes interpolation, normalization and
#: multi-scale statistics that are not specified in enough detail to
#: implement. The remainder is a calibrated lump charged to the CPU; on
#: VWR2A the same work is charged at the measured VWR2A:CPU speed-up of
#: the feature kernels we did implement (~8x). DESIGN.md records this.
FEAT_APP_CPU_LUMP = 43000
FEAT_APP_VWR2A_RATIO = 8.0


def fft_stage_counts(n: int) -> tuple:
    """(radix-4, radix-2) butterfly counts of CMSIS's mixed-radix flow."""
    m = (n - 1).bit_length()
    r4_stages, r2_stages = divmod(m, 2)
    return r4_stages * (n // 4), r2_stages * (n // 2)


def cfft_cycles(n: int) -> int:
    """Modelled cycles of ``arm_cfft_q15`` for N complex points."""
    bf4, bf2 = fft_stage_counts(n)
    return int(round(FFT_SETUP + FFT_K4 * bf4 + FFT_K2 * bf2 + FFT_K_IO * n))


def rfft_cycles(n: int) -> int:
    """Modelled cycles of ``arm_rfft_q15`` for N real points."""
    half = n // 2
    bf4, bf2 = fft_stage_counts(half)
    return int(round(
        FFT_SETUP
        + FFT_K4 * bf4
        + FFT_K2 * bf2
        + FFT_K_RECOMB * half
        + FFT_K_IO * n
    ))


def fir_cycles(n_samples: int, n_taps: int) -> int:
    """Modelled cycles of ``arm_fir_q15``."""
    return int(round(
        FIR_SETUP + n_samples * (FIR_PER_OUTPUT + FIR_PER_TAP * n_taps)
    ))

