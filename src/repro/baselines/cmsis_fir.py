"""CMSIS-DSP-style q15 FIR filter (`arm_fir_q15` semantics).

"The processor uses the CMSIS-DSP library with 16-bit data (q15 format)."
(Sec. 5.1.2.) The functional model is bit-faithful to the library: products
accumulate in a wide accumulator, the result is shifted down by 15 and
saturated to q15. Cycle counts come from the Table-4-calibrated model in
``repro.baselines.cpu_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.cpu_cost import fir_cycles
from repro.utils.fixed_point import q15_sat


@dataclass(frozen=True)
class FirResult:
    """Functional output + modelled CPU cycles."""

    samples: list
    cycles: int


def fir_q15(samples, taps, state=None) -> FirResult:
    """Filter ``samples`` (q15 ints) with ``taps`` (q15 ints).

    ``state`` optionally provides the previous ``len(taps) - 1`` input
    samples (block processing); it defaults to zeros, matching a freshly
    initialized ``arm_fir_instance_q15``.
    """
    n_taps = len(taps)
    if n_taps == 0:
        raise ValueError("FIR needs at least one tap")
    history = list(state) if state is not None else [0] * (n_taps - 1)
    if len(history) != n_taps - 1:
        raise ValueError(
            f"state must hold {n_taps - 1} samples, got {len(history)}"
        )
    extended = history + [int(s) for s in samples]
    out = []
    for n in range(len(samples)):
        # extended index of x[n] is n + n_taps - 1
        acc = 0
        base = n + n_taps - 1
        for k in range(n_taps):
            acc += int(taps[k]) * extended[base - k]
        out.append(q15_sat(acc >> 15))
    return FirResult(samples=out, cycles=fir_cycles(len(samples), n_taps))


def lowpass_taps_q15(n_taps: int, cutoff: float) -> list:
    """Windowed-sinc low-pass design in q15 (Hamming window).

    ``cutoff`` is the normalized frequency (0..0.5, fraction of the sample
    rate). Used by the preprocessing step of the biosignal application.
    """
    import math

    if not 0.0 < cutoff < 0.5:
        raise ValueError(f"cutoff must be in (0, 0.5), got {cutoff}")
    mid = (n_taps - 1) / 2.0
    taps_float = []
    for i in range(n_taps):
        x = i - mid
        ideal = 2 * cutoff if x == 0 else (
            math.sin(2 * math.pi * cutoff * x) / (math.pi * x)
        )
        window = 0.54 - 0.46 * math.cos(2 * math.pi * i / (n_taps - 1))
        taps_float.append(ideal * window)
    gain = sum(taps_float)
    return [
        q15_sat(int(round(t / gain * (1 << 15)))) for t in taps_float
    ]
